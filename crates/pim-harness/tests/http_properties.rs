//! Property-based tests of the vendored HTTP request parser (vendored proptest,
//! pinned seeds). Every byte the daemon reads from a socket goes through
//! `tiny_http::Request::read_from` before any route sees it, so it must answer
//! anything a client sends without panicking, and read only a bounded amount.
//!
//! Three families of properties:
//!
//! 1. **Robustness**: arbitrary bytes — with and without newlines, with
//!    plausible heads and `Content-Length`s, with tails of several MiB — get
//!    `Ok` or `Err`, and the parser takes at most [`MAX_HEAD_BYTES`] +
//!    [`MAX_BODY_BYTES`] plus one buffer fill from the reader;
//! 2. **Round-trip**: a generated well-formed request parses back to its parts:
//!    the upper-cased method, `path()`, `query()`, case-insensitive `header()`
//!    and the body bytes;
//! 3. **Duplicate keys**: `duplicate_query_key` names the first key that
//!    repeats, and returns `None` when all keys differ.

use proptest::prelude::*;
use std::io::{self, BufReader, Cursor, Read};
use tiny_http::{Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};

/// The buffer the parser reads through, as the daemon's `BufReader::new` has.
const BUFFER: usize = 8 * 1024;

/// A `Read` that counts the bytes its caller took.
struct Counting<R> {
    inner: R,
    taken: usize,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.taken += n;
        Ok(n)
    }
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.sample(0..from.len())]
}

/// What a client might send: a head-like prefix followed by `tail_len` copies
/// of one byte, streamed rather than held in memory.
struct Wire {
    prefix: Vec<u8>,
    fill: u8,
    tail_len: u64,
}

impl Wire {
    fn reader(&self) -> impl Read + '_ {
        Cursor::new(&self.prefix[..]).chain(io::repeat(self.fill).take(self.tail_len))
    }
}

/// Bytes weighted towards what a head is made of, plus invalid UTF-8.
const ALPHABET: &[u8] = b"GETPOST /?=&:-aZ09 \r\n\r\n\t\x00\xff\xc3";

/// Fragments of real heads, so some inputs get past the request line.
const FRAGMENTS: &[&[u8]] = &[
    b"GET / HTTP/1.1\r\n",
    b"POST /run?seed=7 HTTP/1.1\r\n",
    b"get /x http/1.0\n",
    b"Host: x\r\n",
    b"Content-Length: 0\r\n",
    b"Content-Length: 12\r\n",
    b"Content-Length: 4194304\r\n",
    b"Content-Length: 4194305\r\n",
    b"Content-Length: -1\r\n",
    b"Content-Length: 18446744073709551616\r\n",
    b"\r\n",
    b"\n",
];

struct Wires;

impl Strategy for Wires {
    type Value = Wire;
    fn generate(&self, rng: &mut TestRng) -> Wire {
        let mut prefix = Vec::new();
        for _ in 0..rng.sample(0usize..12) {
            if rng.sample(0u32..3) == 0 {
                prefix.extend_from_slice(pick(rng, FRAGMENTS));
            } else {
                for _ in 0..rng.sample(1usize..24) {
                    prefix.push(pick(rng, ALPHABET));
                }
            }
        }
        // The tail is a run of one byte: a newline-free line of any length,
        // a flood of empty lines, or body bytes past any Content-Length.
        let fill = pick(rng, b"a\n:\xff");
        let tail_len = match rng.sample(0u32..4) {
            0 => 0,
            1 => rng.sample(0u64..(2 * MAX_HEAD_BYTES) as u64),
            2 => rng.sample(0u64..(MAX_BODY_BYTES as u64 + (1 << 20))),
            _ => (MAX_HEAD_BYTES + MAX_BODY_BYTES) as u64 + rng.sample(1u64..1 << 20),
        };
        Wire {
            prefix,
            fill,
            tail_len,
        }
    }
}

/// A well-formed request and the parts it must parse back to.
struct Exchange {
    wire: Vec<u8>,
    method: String,
    path: String,
    query: Vec<(String, String)>,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

/// Characters of a token: a method, a query key or value, a header name.
const TOKEN: &[u8] = b"abcxyzABCXYZ019-_.~";

fn token(rng: &mut TestRng, len: std::ops::Range<usize>) -> String {
    (0..rng.sample(len))
        .map(|_| char::from(pick(rng, TOKEN)))
        .collect()
}

/// A header value: visible characters, colons and inner spaces, but no
/// leading or trailing whitespace (the parser trims it).
fn header_value(rng: &mut TestRng) -> String {
    let inner: String = (0..rng.sample(0usize..16))
        .map(|_| char::from(pick(rng, b"aZ09:;,/ =\"*")))
        .collect();
    format!("v{inner}v")
}

struct Exchanges;

impl Strategy for Exchanges {
    type Value = Exchange;
    fn generate(&self, rng: &mut TestRng) -> Exchange {
        let method = token(rng, 1..8);
        let path: String = (0..rng.sample(0usize..4))
            .map(|_| format!("/{}", token(rng, 0..6)))
            .collect();
        let path = if path.is_empty() {
            "/".to_string()
        } else {
            path
        };
        let query: Vec<(String, String)> = (0..rng.sample(0usize..5))
            .map(|_| (token(rng, 1..6), token(rng, 0..6)))
            .collect();
        let mut target = path.clone();
        if !query.is_empty() || rng.sample_standard::<bool>() {
            target.push('?');
        }
        let parts: Vec<String> = query
            .iter()
            .map(|(k, v)| {
                // A bare key reads back with an empty value.
                if v.is_empty() && rng.sample_standard::<bool>() {
                    k.clone()
                } else {
                    format!("{k}={v}")
                }
            })
            .collect();
        target.push_str(&parts.join("&"));
        // `X-` keeps generated names clear of Content-Length.
        let headers: Vec<(String, String)> = (0..rng.sample(0usize..6))
            .map(|_| (format!("X-{}", token(rng, 1..6)), header_value(rng)))
            .collect();
        let body: Vec<u8> = (0..rng.sample(0usize..512))
            .map(|_| rng.sample_standard::<u64>().to_le_bytes()[0])
            .collect();

        let eol = if rng.sample_standard::<bool>() {
            "\r\n"
        } else {
            "\n"
        };
        let mut head = format!("{method} {target} HTTP/1.1{eol}");
        for (name, value) in &headers {
            let space = if rng.sample_standard::<bool>() {
                " "
            } else {
                ""
            };
            head.push_str(&format!("{name}:{space}{value}{eol}"));
        }
        if !body.is_empty() || rng.sample_standard::<bool>() {
            head.push_str(&format!("content-LENGTH: {}{eol}", body.len()));
        }
        head.push_str(eol);
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&body);
        Exchange {
            wire,
            method,
            path,
            query,
            headers,
            body,
        }
    }
}

/// Flip the case of every other ASCII letter.
fn recase(name: &str) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| {
            if i % 2 == 0 {
                c.to_ascii_lowercase()
            } else {
                c.to_ascii_uppercase()
            }
        })
        .collect()
}

/// Query keys in order: all distinct, or with some of them repeated.
struct QueryKeys;

impl Strategy for QueryKeys {
    type Value = Vec<String>;
    fn generate(&self, rng: &mut TestRng) -> Vec<String> {
        // Distinct by construction: the index is part of each key.
        let mut keys: Vec<String> = (0..rng.sample(0usize..8))
            .map(|i| format!("{}{i}", token(rng, 0..3)))
            .collect();
        if !keys.is_empty() && rng.sample_standard::<bool>() {
            for _ in 0..rng.sample(1usize..4) {
                let key = keys[rng.sample(0..keys.len())].clone();
                let at = rng.sample(0..keys.len() + 1);
                keys.insert(at, key);
            }
        }
        keys
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96).with_rng_seed(0x4177_0020))]

    /// Any bytes get `Ok` or `Err`, and never more than a head, a body and
    /// one buffer fill are taken from the reader.
    #[test]
    fn any_bytes_parse_or_fail_within_the_read_bound(wire in Wires) {
        let mut counter = Counting { inner: wire.reader(), taken: 0 };
        let _ = {
            let mut reader = BufReader::with_capacity(BUFFER, &mut counter);
            Request::read_from(&mut reader)
        };
        prop_assert!(
            counter.taken <= MAX_HEAD_BYTES + MAX_BODY_BYTES + BUFFER,
            "took {} bytes of a {}-byte prefix and a {}-byte tail",
            counter.taken,
            wire.prefix.len(),
            wire.tail_len
        );
    }

    /// A well-formed request parses back to exactly its parts.
    #[test]
    fn well_formed_requests_round_trip(exchange in Exchanges) {
        let request = Request::read_from(&mut Cursor::new(&exchange.wire[..]))
            .unwrap_or_else(|e| panic!("{e}: {:?}", String::from_utf8_lossy(&exchange.wire)));
        prop_assert_eq!(&request.method, &exchange.method.to_ascii_uppercase());
        prop_assert_eq!(request.path(), exchange.path.as_str());
        prop_assert_eq!(&request.query(), &exchange.query);
        for (name, _) in &exchange.headers {
            let first = exchange
                .headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str());
            prop_assert_eq!(request.header(&recase(name)), first);
        }
        prop_assert_eq!(&request.body, &exchange.body);
    }

    /// `duplicate_query_key` names the first key seen a second time.
    #[test]
    fn the_first_repeated_query_key_is_named(keys in QueryKeys) {
        let target = format!(
            "/run?{}",
            keys.iter()
                .enumerate()
                .map(|(i, k)| format!("{k}={i}"))
                .collect::<Vec<_>>()
                .join("&")
        );
        let request = Request {
            method: "GET".to_string(),
            target,
            headers: Vec::new(),
            body: Vec::new(),
        };
        let first_repeat = keys
            .iter()
            .enumerate()
            .find(|(i, k)| keys[..*i].contains(k))
            .map(|(_, k)| k.clone());
        prop_assert_eq!(request.duplicate_query_key(), first_repeat);
    }
}
