//! Property-based tests of the vendored JSON writer and parser (vendored
//! proptest, pinned seeds). The parser reads untrusted input: every `POST /run`
//! body and every spec file goes through it.
//!
//! Three families of properties:
//!
//! 1. **Round-trip**: any value tree in canonical form — strings full of quotes,
//!    backslashes, control and multi-byte characters, integer extremes, finite
//!    floats down to `-0.0` and subnormals, nesting up to the parser's limit —
//!    survives `to_string` and `to_string_pretty` → `value_from_str` exactly;
//! 2. **Reference**: the writer's output equals, byte for byte, that of the
//!    straightforward writer it replaced ([`reference`]);
//! 3. **Robustness**: `value_from_str` answers every input, valid or mangled,
//!    with `Ok` or `Err` — it never panics — and refuses nesting deeper than
//!    [`MAX_DEPTH`].

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test"
)]

use proptest::prelude::*;
use serde::Value;
use serde_json::{to_string, to_string_pretty, value_from_str, MAX_DEPTH};

/// The writer before it wrote tokens in place: one `String` per number and
/// indented line, one `push` per character. Kept as the oracle the current
/// writer must match byte for byte.
mod reference {
    use serde::Value;

    pub fn render(v: &Value, indent: Option<usize>) -> String {
        let mut out = String::new();
        write_value(&mut out, v, indent, 0);
        out
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::F64(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Seq(items) => write_seq(
                out,
                items.iter(),
                items.len(),
                indent,
                depth,
                ('[', ']'),
                write_value,
            ),
            Value::Map(entries) => write_seq(
                out,
                entries.iter(),
                entries.len(),
                indent,
                depth,
                ('{', '}'),
                |out, (k, v), indent, depth| {
                    write_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, v, indent, depth);
                },
            ),
        }
    }

    fn write_seq<I: Iterator>(
        out: &mut String,
        items: I,
        len: usize,
        indent: Option<usize>,
        depth: usize,
        (open, close): (char, char),
        mut write_item: impl FnMut(&mut String, I::Item, Option<usize>, usize),
    ) {
        out.push(open);
        if len == 0 {
            out.push(close);
            return;
        }
        for (i, item) in items.enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(step) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(step * (depth + 1)));
            }
            write_item(out, item, indent, depth + 1);
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
        out.push(close);
    }

    fn write_json_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Pick one element of a non-empty slice.
fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.sample(0..items.len())]
}

/// Characters the writer must escape or pass through untouched.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', '✓', '\u{2028}', '😀',
];

fn text(rng: &mut TestRng) -> String {
    (0..rng.sample(0usize..12))
        .map(|_| {
            if rng.sample(0u32..4) == 0 {
                // Anywhere in Unicode; surrogates fall back to a fixed character.
                char::from_u32(rng.sample(0u32..0x11_0000)).unwrap_or('\u{fffd}')
            } else {
                pick(rng, CHARS)
            }
        })
        .collect()
}

/// A finite float: signed zeros, subnormals, extremes, integral values and
/// arbitrary bit patterns.
fn finite_float(rng: &mut TestRng) -> f64 {
    let sign = if rng.sample_standard::<bool>() {
        -1.0
    } else {
        1.0
    };
    match rng.sample(0u32..4) {
        0 => pick(
            rng,
            &[
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
                f64::EPSILON,
                5e-324,
                0.1,
                1e16,
                1e-7,
            ],
        ),
        1 => sign * f64::from_bits(rng.sample(1u64..1 << 52)),
        2 => sign * rng.sample(0u64..1 << 53) as f64,
        _ => loop {
            let x = f64::from_bits(rng.sample_standard::<u64>());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// A scalar in canonical form: the parser reads a non-negative integer back as
/// `U64`, so `I64`s are negative, and non-finite floats do not round-trip.
fn scalar(rng: &mut TestRng) -> Value {
    match rng.sample(0u32..6) {
        0 => Value::Null,
        1 => Value::Bool(rng.sample_standard()),
        2 => Value::I64(match rng.sample(0u32..3) {
            0 => i64::MIN,
            1 => -1,
            _ => -(rng.sample(1u64..1 << 63) as i64),
        }),
        3 => Value::U64(match rng.sample(0u32..3) {
            0 => u64::MAX,
            1 => 0,
            _ => rng.sample_standard(),
        }),
        4 => Value::F64(finite_float(rng)),
        _ => Value::Str(text(rng)),
    }
}

/// Wrap `inner` in one more container, with scalar siblings around it.
fn wrap(rng: &mut TestRng, inner: Value) -> Value {
    let before = rng.sample(0usize..3);
    let after = rng.sample(0usize..3);
    let mut items: Vec<Value> = (0..before).map(|_| scalar(rng)).collect();
    items.push(inner);
    items.extend((0..after).map(|_| scalar(rng)));
    if rng.sample_standard::<bool>() {
        Value::Seq(items)
    } else {
        Value::Map(items.into_iter().map(|v| (text(rng), v)).collect())
    }
}

/// A bushy tree with at most `levels` levels of containers.
fn bushy(rng: &mut TestRng, levels: usize) -> Value {
    if levels == 0 || rng.sample(0u32..3) == 0 {
        return scalar(rng);
    }
    let items: Vec<Value> = (0..rng.sample(0usize..5))
        .map(|_| bushy(rng, levels - 1))
        .collect();
    if rng.sample_standard::<bool>() {
        Value::Seq(items)
    } else {
        Value::Map(items.into_iter().map(|v| (text(rng), v)).collect())
    }
}

/// Canonical value trees: bushy shallow ones, and narrow ones nested from 1 up
/// to exactly [`MAX_DEPTH`] levels (half of those at the limit itself).
struct Trees;

impl Strategy for Trees {
    type Value = Value;
    fn generate(&self, rng: &mut TestRng) -> Value {
        if rng.sample_standard::<bool>() {
            return bushy(rng, 4);
        }
        let levels = if rng.sample_standard::<bool>() {
            MAX_DEPTH
        } else {
            rng.sample(1..MAX_DEPTH + 1)
        };
        let mut v = scalar(rng);
        for _ in 0..levels {
            v = wrap(rng, v);
        }
        v
    }
}

/// Input for the parser that is mostly not JSON: random bytes from an alphabet
/// weighted towards JSON's own tokens, or a rendered tree cut and spliced.
struct Garbage;

/// JSON's own punctuation, one byte each.
const PUNCTUATION: &[u8] = b"[]{}\"\\:,-+.eE07 ";

/// Fragments of escapes, keywords and multi-byte (or invalid) UTF-8.
const FRAGMENTS: &[&[u8]] = &[
    b"\\u",
    b"\\ud800",
    b"00e9",
    b"null",
    b"true",
    b"fals",
    b"\xc3",
    b"\xe2\x9c",
    b"\xff",
];

impl Strategy for Garbage {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut bytes: Vec<u8> = if rng.sample_standard::<bool>() {
            let tree = Trees.generate(rng);
            if rng.sample_standard::<bool>() {
                to_string(&tree).unwrap().into_bytes()
            } else {
                to_string_pretty(&tree).unwrap().into_bytes()
            }
        } else {
            Vec::new()
        };
        for _ in 0..rng.sample(1usize..6) {
            let at = rng.sample(0..bytes.len() + 1);
            match rng.sample(0u32..3) {
                0 => bytes.truncate(at),
                1 => {
                    let end = rng.sample(at..bytes.len() + 1);
                    bytes.drain(at..end);
                }
                _ => {
                    let mut burst = Vec::new();
                    for _ in 0..rng.sample(1usize..16) {
                        if rng.sample(0u32..4) == 0 {
                            burst.extend_from_slice(pick(rng, FRAGMENTS));
                        } else {
                            burst.push(pick(rng, PUNCTUATION));
                        }
                    }
                    bytes.splice(at..at, burst);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Structural equality with floats compared bit for bit (so `-0.0 != 0.0`).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(xs), Value::Seq(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compact and pretty output both parse back to the identical tree.
    #[test]
    fn compact_and_pretty_output_round_trip_exactly(v in Trees) {
        for json in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back = value_from_str(&json).unwrap();
            prop_assert!(same(&back, &v), "{json}");
        }
    }

    /// The in-place writer renders exactly what the per-token-allocating one did.
    #[test]
    fn the_writer_matches_the_reference_writer(v in Trees) {
        prop_assert_eq!(to_string(&v).unwrap(), reference::render(&v, None));
        prop_assert_eq!(to_string_pretty(&v).unwrap(), reference::render(&v, Some(2)));
    }

    /// One level past the limit is refused, whatever the tree's shape: the
    /// outer array and `MAX_DEPTH` containers inside it.
    #[test]
    fn nesting_past_the_limit_is_refused(v in Trees, seq_first in any::<bool>()) {
        let mut deep = Value::Null;
        for level in 0..MAX_DEPTH {
            deep = if level.is_multiple_of(2) == seq_first {
                Value::Seq(vec![deep])
            } else {
                Value::Map(vec![("k".to_string(), deep)])
            };
        }
        let json = to_string(&Value::Seq(vec![v, deep])).unwrap();
        let err = value_from_str(&json).unwrap_err();
        prop_assert!(err.to_string().contains("nesting deeper"), "{err}");
    }

    /// Any input at all gets `Ok` or `Err`; a panic fails the test.
    #[test]
    fn the_parser_never_panics(input in Garbage) {
        let _ = value_from_str(&input);
    }
}
