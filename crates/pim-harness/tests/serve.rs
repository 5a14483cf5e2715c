//! Integration tests for the sweep service: spec submissions over real sockets,
//! byte-identity between served artifacts and direct execution, warm-cache
//! serving, unit-level single-flight deduplication across concurrent clients,
//! the ndjson progress stream, the HTTP error surface, and the traffic
//! discipline — bounded workers with 503 + `Retry-After` backpressure, silent
//! -client reaping, `/metrics` reconciliation, graceful drain, and
//! client-disconnect cancellation.

use pim_harness::prelude::*;
use serde::Value;
use std::io::{Read, Write};
use std::time::Duration;
use tiny_http::client;

/// A small analytic spec: 3 × 2 grid = 6 units, milliseconds to run.
const SPEC: &str = r#"{
    "schema_version": 1,
    "name": "serve_probe",
    "description": "tiny grid for service tests",
    "model": "analytic",
    "grid": {
        "node_counts": [2, 8, 32],
        "lwp_fractions": [0.25, 0.75]
    },
    "columns": ["nodes", "pct_lwp", "gain"]
}"#;
const SPEC_UNITS: u64 = 6;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bind a service on an OS-assigned port and serve on a detached thread.
/// Returns the `host:port` to dial.
fn start(opts: &ServeOptions) -> String {
    let server = SweepServer::bind(opts).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    std::thread::spawn(move || {
        let _ = server.serve_forever();
    });
    addr
}

fn header_u64(resp: &client::ClientResponse, name: &str) -> u64 {
    resp.header(name)
        .unwrap_or_else(|| panic!("missing header {name}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric header {name}"))
}

/// A distinct parcels spec per `tag`: same shape, different name and grid, so
/// concurrent submissions address disjoint unit keys. Two units each, DES-slow
/// enough that a small worker pool saturates under a client fleet.
fn parcels_spec(tag: usize) -> String {
    format!(
        r#"{{
    "schema_version": 1,
    "name": "serve_soak_{tag}",
    "description": "distinct-grid spec for saturation tests",
    "model": "parcels",
    "config": {{"horizon_cycles": 300000.0}},
    "grid": {{
        "node_counts": [{nodes}],
        "parallelisms": [8],
        "latencies": [1000.0],
        "remote_fractions": [0.1, 0.5]
    }}
}}"#,
        nodes = 2 + tag
    )
}

/// What direct in-process execution produces for `spec` under `seed` — the
/// byte-identity reference for any served 200 body.
fn reference_for(spec: &str, seed: u64) -> String {
    parse_spec(spec)
        .expect("spec parses")
        .into_scenario()
        .run(&SeedPolicy::new(seed))
        .to_json()
}

/// Walk a parsed JSON document by map keys.
fn value_at<'v>(doc: &'v Value, path: &[&str]) -> Option<&'v Value> {
    let mut v = doc;
    for key in path {
        let Value::Map(fields) = v else { return None };
        v = &fields.iter().find(|(k, _)| k == key)?.1;
    }
    Some(v)
}

fn metrics_u64(doc: &Value, path: &[&str]) -> u64 {
    match value_at(doc, path) {
        Some(Value::U64(n)) => *n,
        other => panic!("metrics field {path:?} is {other:?}"),
    }
}

/// Fetch and parse `GET /metrics`.
fn fetch_metrics(addr: &str) -> Value {
    let resp = client::request(addr, "GET", "/metrics", &[], b"").expect("metrics request");
    assert_eq!(resp.status, 200);
    serde_json::from_str(String::from_utf8_lossy(&resp.body).trim()).expect("metrics JSON parses")
}

/// Poll `GET /metrics` until `cond` holds (counters are recorded after the
/// response write, so clients can briefly outrun them).
fn wait_for_metrics(addr: &str, what: &str, cond: impl Fn(&Value) -> bool) -> Value {
    let mut last = Value::Null;
    for _ in 0..400 {
        last = fetch_metrics(addr);
        if cond(&last) {
            return last;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("metrics never satisfied: {what}; last document: {last:?}");
}

/// Wait until `n` `POST /run` requests have been answered 200. A status is
/// recorded after its handler returns, so memo admission is done by then.
fn runs_answered(addr: &str, n: u64) -> Value {
    wait_for_metrics(addr, &format!("{n} runs answered"), |d| {
        value_at(d, &["requests", "by_endpoint", "POST /run", "200"]) == Some(&Value::U64(n))
    })
}

/// The reference artifact: what direct in-process execution (and therefore the
/// CLI) produces for this spec under the daemon's default seed.
fn reference_artifact(seed: u64) -> String {
    let scenario = parse_spec(SPEC).expect("spec parses").into_scenario();
    scenario.run(&SeedPolicy::new(seed)).to_json()
}

#[test]
fn served_artifact_is_byte_identical_cold_and_warm() {
    let cache = temp_dir("roundtrip");
    let addr = start(&ServeOptions {
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    });

    let cold = client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("cold request");
    assert_eq!(cold.status, 200);
    assert_eq!(header_u64(&cold, "X-Pim-Units"), SPEC_UNITS);
    assert_eq!(header_u64(&cold, "X-Pim-Cache-Misses"), SPEC_UNITS);
    assert_eq!(header_u64(&cold, "X-Pim-Cache-Hits"), 0);
    assert_eq!(
        String::from_utf8_lossy(&cold.body),
        reference_artifact(DEFAULT_SEED),
        "served artifact differs from direct execution"
    );

    // Warm: all hits, zero recomputation, byte-identical body.
    let warm = client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("warm request");
    assert_eq!(warm.status, 200);
    assert_eq!(header_u64(&warm, "X-Pim-Cache-Hits"), SPEC_UNITS);
    assert_eq!(header_u64(&warm, "X-Pim-Cache-Misses"), 0);
    assert_eq!(header_u64(&warm, "X-Pim-Cache-Recomputed"), 0);
    assert_eq!(warm.body, cold.body);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn an_all_hit_run_is_memoized_and_its_repeat_reconciles_in_metrics() {
    let cache = temp_dir("memo");
    let addr = start(&ServeOptions {
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    });
    let post = || client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("request");
    let reference = reference_artifact(DEFAULT_SEED);

    // Cold: computed units go to disk only, and a run that computed is never
    // memoized.
    let cold = post();
    assert_eq!(header_u64(&cold, "X-Pim-Cache-Misses"), SPEC_UNITS);
    let doc = runs_answered(&addr, 1);
    assert_eq!(metrics_u64(&doc, &["pool", "mem_entries"]), 0);
    assert_eq!(metrics_u64(&doc, &["memo", "entries"]), 0);

    // Warm: every unit loads from disk (and joins the warm map); the all-hit
    // response is memoized.
    let warm = post();
    assert_eq!(header_u64(&warm, "X-Pim-Cache-Hits"), SPEC_UNITS);
    let doc = runs_answered(&addr, 2);
    assert_eq!(metrics_u64(&doc, &["pool", "mem_entries"]), SPEC_UNITS);
    assert_eq!(metrics_u64(&doc, &["memo", "entries"]), 1);
    assert_eq!(metrics_u64(&doc, &["memo", "hits"]), 0);
    assert!(metrics_u64(&doc, &["memo", "bytes"]) > warm.body.len() as u64);

    // The repeat is answered from the memo: same body, all-hit headers, and
    // the same ledger entries as a warm run.
    let repeat = post();
    assert_eq!(repeat.status, 200);
    assert_eq!(String::from_utf8_lossy(&repeat.body), reference);
    assert_eq!(repeat.body, cold.body);
    assert_eq!(header_u64(&repeat, "X-Pim-Units"), SPEC_UNITS);
    assert_eq!(header_u64(&repeat, "X-Pim-Cache-Hits"), SPEC_UNITS);
    assert_eq!(header_u64(&repeat, "X-Pim-Cache-Misses"), 0);
    assert_eq!(header_u64(&repeat, "X-Pim-Cache-Recomputed"), 0);
    assert_eq!(repeat.header("content-type"), warm.header("content-type"));
    let doc = runs_answered(&addr, 3);
    assert_eq!(metrics_u64(&doc, &["memo", "hits"]), 1);
    assert_eq!(
        metrics_u64(&doc, &["cache", "units_served"]),
        3 * SPEC_UNITS
    );
    assert_eq!(metrics_u64(&doc, &["cache", "hits"]), 2 * SPEC_UNITS);
    assert_eq!(metrics_u64(&doc, &["cache", "misses"]), SPEC_UNITS);
    assert_eq!(metrics_u64(&doc, &["cache", "recomputed"]), 0);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn another_seed_a_progress_stream_or_a_reformatted_body_misses_the_memo() {
    let addr = start(&ServeOptions::default());
    for n in 1..=3 {
        let resp = client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("warm");
        assert_eq!(resp.status, 200);
        runs_answered(&addr, n);
    }

    // Another seed addresses other units: all of them compute.
    let seeded =
        client::request(&addr, "POST", "/run?seed=99", &[], SPEC.as_bytes()).expect("seeded");
    assert_eq!(
        String::from_utf8_lossy(&seeded.body),
        reference_artifact(99)
    );
    assert_eq!(header_u64(&seeded, "X-Pim-Cache-Hits"), 0);

    // A progress stream still narrates every unit.
    let progress =
        client::request(&addr, "POST", "/run?progress=1", &[], SPEC.as_bytes()).expect("progress");
    assert_eq!(progress.header("transfer-encoding"), Some("chunked"));
    let text = String::from_utf8(progress.body).expect("ndjson is UTF-8");
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"event\":\"unit\""))
            .count() as u64,
        SPEC_UNITS
    );
    assert!(text.contains(&format!("\"hits\":{SPEC_UNITS}")), "{text}");

    // An equivalent document with other bytes takes the pipeline: its units
    // are warm, so it is all hits, with the same artifact.
    let compact = SPEC.split_whitespace().collect::<Vec<_>>().join(" ");
    assert_ne!(compact, SPEC);
    let reformatted =
        client::request(&addr, "POST", "/run", &[], compact.as_bytes()).expect("reformatted");
    assert_eq!(
        String::from_utf8_lossy(&reformatted.body),
        reference_artifact(DEFAULT_SEED)
    );
    assert_eq!(header_u64(&reformatted, "X-Pim-Cache-Hits"), SPEC_UNITS);

    let doc = runs_answered(&addr, 6);
    assert_eq!(metrics_u64(&doc, &["memo", "hits"]), 1);
    // The base-seed original and the reformatted twin; the cold seeded run
    // and the progress stream never enter.
    assert_eq!(metrics_u64(&doc, &["memo", "entries"]), 2);
}

#[test]
fn memory_only_daemon_still_serves_warm_repeats() {
    // No --cache at all: the pool's in-memory results must carry the warmth.
    let addr = start(&ServeOptions::default());
    let cold = client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("cold");
    let warm = client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("warm");
    assert_eq!(header_u64(&warm, "X-Pim-Cache-Hits"), SPEC_UNITS);
    assert_eq!(header_u64(&warm, "X-Pim-Cache-Misses"), 0);
    assert_eq!(warm.body, cold.body);
}

#[test]
fn concurrent_identical_submissions_compute_each_unit_exactly_once() {
    // N clients POST the same spec at the same instant to a fresh daemon.
    // Single-flight per unit digest means the summed accounting must show
    // exactly one miss per unit across ALL responses — the other N-1 clients
    // get hits — and every client receives byte-identical payloads.
    const CLIENTS: usize = 5;
    let cache = temp_dir("dedup");
    let addr = start(&ServeOptions {
        cache_dir: Some(cache.clone()),
        // Deduplication across *in-flight* requests needs every client in
        // service at once; the default worker count is core-bound and the CI
        // container may have one core.
        workers: CLIENTS,
        queue: CLIENTS,
        ..ServeOptions::default()
    });
    let barrier = std::sync::Barrier::new(CLIENTS);
    let responses: Vec<client::ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    client::request(&addr, "POST", "/run", &[], SPEC.as_bytes())
                        .expect("concurrent request")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (mut hits, mut misses, mut recomputed) = (0, 0, 0);
    for resp in &responses {
        assert_eq!(resp.status, 200);
        hits += header_u64(resp, "X-Pim-Cache-Hits");
        misses += header_u64(resp, "X-Pim-Cache-Misses");
        recomputed += header_u64(resp, "X-Pim-Cache-Recomputed");
        assert_eq!(resp.body, responses[0].body, "client payloads diverged");
    }
    assert_eq!(misses, SPEC_UNITS, "exactly one computation per unit key");
    assert_eq!(recomputed, 0);
    assert_eq!(hits, (CLIENTS as u64 - 1) * SPEC_UNITS);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn seed_override_readdresses_the_sweep() {
    let cache = temp_dir("seed");
    let addr = start(&ServeOptions {
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    });
    let base = client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("base");
    let seeded =
        client::request(&addr, "POST", "/run?seed=99", &[], SPEC.as_bytes()).expect("seeded");
    assert_eq!(seeded.status, 200);
    assert_ne!(seeded.body, base.body, "seed override had no effect");
    assert_eq!(
        String::from_utf8_lossy(&seeded.body),
        reference_artifact(99)
    );
    // A different seed is a different key space: all misses, no hits against
    // the base-seed submission's entries.
    assert_eq!(header_u64(&seeded, "X-Pim-Cache-Misses"), SPEC_UNITS);
    assert_eq!(header_u64(&seeded, "X-Pim-Cache-Hits"), 0);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn progress_stream_narrates_and_ends_with_the_artifact() {
    let addr = start(&ServeOptions::default());
    let resp = client::request(&addr, "POST", "/run?progress=1", &[], SPEC.as_bytes())
        .expect("progress request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    let text = String::from_utf8(resp.body).expect("ndjson is UTF-8");
    let events: Vec<Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("each line is one JSON event"))
        .collect();
    let kind = |e: &Value| match e {
        Value::Map(fields) => fields
            .iter()
            .find(|(k, _)| k == "event")
            .and_then(|(_, v)| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .expect("event field"),
        _ => panic!("event is not an object"),
    };
    assert_eq!(kind(&events[0]), "start");
    let units = events.iter().filter(|e| kind(e) == "unit").count() as u64;
    assert_eq!(units, SPEC_UNITS, "one unit event per completed unit");
    assert_eq!(kind(&events[events.len() - 2]), "done");
    assert_eq!(kind(&events[events.len() - 1]), "report");
}

#[test]
fn error_surface_is_stable() {
    let addr = start(&ServeOptions::default());
    // Liveness and catalog endpoints.
    let health = client::request(&addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!((health.status, health.body.as_slice()), (200, &b"ok\n"[..]));
    let scenarios = client::request(&addr, "GET", "/scenarios", &[], b"").expect("scenarios");
    assert_eq!(scenarios.status, 200);
    assert!(String::from_utf8_lossy(&scenarios.body).contains("\"figure5\""));
    // A malformed spec is a 400 carrying the spec error, not a hung socket.
    let bad = client::request(&addr, "POST", "/run", &[], b"{\"schema_version\": 1}").expect("bad");
    assert_eq!(bad.status, 400);
    assert!(!bad.body.is_empty());
    // Bad query parameters are 400s that name the parameter.
    for target in ["/run?seed=banana", "/run?progress=2"] {
        let resp = client::request(&addr, "POST", target, &[], SPEC.as_bytes()).expect("query");
        assert_eq!(resp.status, 400, "{target}");
    }
    // Unknown path and wrong method. A 405 must name the allowed method so
    // clients can repair the request without consulting the docs.
    let missing = client::request(&addr, "GET", "/nope", &[], b"").expect("404");
    assert_eq!(missing.status, 404);
    let wrong = client::request(&addr, "GET", "/run", &[], b"").expect("405");
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("POST"));
    for path in ["/healthz", "/scenarios", "/metrics"] {
        let resp = client::request(&addr, "POST", path, &[], b"").expect("405");
        assert_eq!(resp.status, 405, "{path}");
        assert_eq!(resp.header("allow"), Some("GET"), "{path}");
    }
}

#[test]
fn duplicate_query_parameters_are_rejected_with_400() {
    let addr = start(&ServeOptions::default());
    let dup =
        client::request(&addr, "POST", "/run?seed=1&seed=2", &[], SPEC.as_bytes()).expect("dup");
    assert_eq!(dup.status, 400);
    assert!(
        String::from_utf8_lossy(&dup.body).contains("duplicate query parameter 'seed'"),
        "body should name the repeated key: {:?}",
        String::from_utf8_lossy(&dup.body)
    );
    // The rule is structural — the same contradiction the CLI refuses in
    // repeated flags — so it applies even where the endpoint ignores the
    // parameter entirely.
    let health = client::request(&addr, "GET", "/healthz?x=1&x=2", &[], b"").expect("healthz dup");
    assert_eq!(health.status, 400);
}

#[test]
fn silent_connections_are_reaped_with_408_and_the_daemon_keeps_serving() {
    let addr = start(&ServeOptions {
        workers: 1,
        queue: 4,
        timeout_ms: 250,
        ..ServeOptions::default()
    });
    // A connection that never sends a byte pins the only worker...
    let silent = std::net::TcpStream::connect(&addr).expect("connect silent");
    // ...until the read deadline reaps it, at which point the queued client
    // behind it must be served. Without the deadline this request hangs
    // forever and the test times out.
    let health = client::request(&addr, "GET", "/healthz", &[], b"").expect("healthz after reap");
    assert_eq!(health.status, 200);
    // The silent peer was told why before the close.
    let mut raw = String::new();
    (&silent).read_to_string(&mut raw).expect("read the 408");
    assert!(raw.starts_with("HTTP/1.1 408"), "got: {raw:?}");
}

#[test]
fn metrics_schema_v1_shape_and_counters() {
    let addr = start(&ServeOptions {
        workers: 3,
        queue: 7,
        jobs: 2,
        ..ServeOptions::default()
    });
    let doc = fetch_metrics(&addr);
    assert_eq!(
        metrics_u64(&doc, &["schema_version"]),
        pim_harness::serve::METRICS_SCHEMA_VERSION
    );
    assert!(matches!(
        value_at(&doc, &["draining"]),
        Some(Value::Bool(false))
    ));
    assert_eq!(metrics_u64(&doc, &["workers", "configured"]), 3);
    assert_eq!(metrics_u64(&doc, &["workers", "queue_capacity"]), 7);
    assert_eq!(metrics_u64(&doc, &["workers", "rejected_503"]), 0);
    assert_eq!(metrics_u64(&doc, &["pool", "permits_total"]), 2);
    assert_eq!(metrics_u64(&doc, &["pool", "permits_in_use"]), 0);
    assert_eq!(metrics_u64(&doc, &["pool", "mem_entries"]), 0);
    for field in ["entries", "bytes", "hits"] {
        assert_eq!(metrics_u64(&doc, &["memo", field]), 0, "memo.{field}");
    }
    // Counters are recorded after the response write, so the serving request
    // itself is not yet visible in its own document.
    assert_eq!(metrics_u64(&doc, &["requests", "total"]), 0);
    // A served request then shows up under its "METHOD /path" label.
    let health = client::request(&addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!(health.status, 200);
    let doc = wait_for_metrics(&addr, "healthz counted", |d| {
        value_at(d, &["requests", "by_endpoint", "GET /healthz", "200"]).is_some()
    });
    assert_eq!(
        metrics_u64(&doc, &["requests", "by_endpoint", "GET /healthz", "200"]),
        1
    );
    assert_eq!(metrics_u64(&doc, &["cache", "units_served"]), 0);
}

#[test]
fn saturation_returns_503_with_retry_after_and_metrics_reconcile() {
    // A fleet far larger than the pool: every request must resolve as a 200
    // (eventually, via Retry-After honoring retries) or a 503 that carries
    // Retry-After — never a hang, never a connection reset.
    const CLIENTS: usize = 16;
    let addr = start(&ServeOptions {
        workers: 2,
        queue: 2,
        ..ServeOptions::default()
    });
    let specs: Vec<String> = (0..CLIENTS).map(parcels_spec).collect();
    let barrier = std::sync::Barrier::new(CLIENTS);
    let results: Vec<(client::ClientResponse, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let addr = &addr;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut rejections = 0u64;
                    loop {
                        let resp = client::request(addr, "POST", "/run", &[], spec.as_bytes())
                            .expect("a saturated service still answers cleanly");
                        if resp.status == 503 {
                            let retry: u64 = resp
                                .header("retry-after")
                                .expect("every 503 carries Retry-After")
                                .parse()
                                .expect("Retry-After is integer seconds");
                            assert!((1..=60).contains(&retry), "Retry-After {retry} off-range");
                            rejections += 1;
                            // The real guidance is seconds; a test compresses it.
                            std::thread::sleep(Duration::from_millis(40));
                            continue;
                        }
                        assert_eq!(resp.status, 200);
                        return (resp, rejections);
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut total_rejections = 0u64;
    let (mut hits, mut misses, mut recomputed, mut units) = (0u64, 0u64, 0u64, 0u64);
    for (i, (resp, rejections)) in results.iter().enumerate() {
        total_rejections += rejections;
        hits += header_u64(resp, "X-Pim-Cache-Hits");
        misses += header_u64(resp, "X-Pim-Cache-Misses");
        recomputed += header_u64(resp, "X-Pim-Cache-Recomputed");
        units += header_u64(resp, "X-Pim-Units");
        assert_eq!(
            String::from_utf8_lossy(&resp.body),
            reference_for(&specs[i], DEFAULT_SEED),
            "served artifact for client {i} differs from direct execution"
        );
    }
    // The service-side ledger must agree with the per-response headers
    // exactly: same totals, one `<rejected>` line per 503 the fleet saw.
    // (`busy == 1` is the worker serving the /metrics poll itself.)
    let doc = wait_for_metrics(&addr, "all 200s counted and workers settled", |d| {
        metrics_u64(d, &["requests", "by_endpoint", "POST /run", "200"]) == CLIENTS as u64
            && metrics_u64(d, &["workers", "busy"]) == 1
    });
    assert_eq!(metrics_u64(&doc, &["cache", "hits"]), hits);
    assert_eq!(metrics_u64(&doc, &["cache", "misses"]), misses);
    assert_eq!(metrics_u64(&doc, &["cache", "recomputed"]), recomputed);
    assert_eq!(metrics_u64(&doc, &["cache", "units_served"]), units);
    assert_eq!(
        metrics_u64(&doc, &["workers", "rejected_503"]),
        total_rejections
    );
    if total_rejections > 0 {
        assert_eq!(
            metrics_u64(&doc, &["requests", "by_endpoint", "<rejected>", "503"]),
            total_rejections
        );
    }
    assert_eq!(metrics_u64(&doc, &["pool", "permits_in_use"]), 0);
    assert_eq!(metrics_u64(&doc, &["pool", "flights_in_progress"]), 0);
}

#[test]
fn drain_finishes_inflight_work_answers_queued_clients_and_then_refuses() {
    let server = SweepServer::bind(&ServeOptions {
        workers: 1,
        queue: 4,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let handle = server.drain_handle();
    let server_thread = std::thread::spawn(move || server.serve_forever());

    // Client A submits a run but stalls halfway through the body, pinning the
    // only worker mid-request for as long as this test wants.
    let mut a = std::net::TcpStream::connect(&addr).expect("connect A");
    let body = SPEC.as_bytes();
    let (first, rest) = body.split_at(body.len() / 2);
    write!(
        a,
        "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("A's head");
    a.write_all(first).expect("A's first half");
    a.flush().expect("flush A");

    // Client B queues behind A before the drain begins.
    let b = std::thread::spawn({
        let addr = addr.clone();
        move || client::request(&addr, "GET", "/healthz", &[], b"").expect("queued healthz")
    });
    std::thread::sleep(Duration::from_millis(200));

    handle.request_drain();
    assert!(handle.is_draining());
    std::thread::sleep(Duration::from_millis(100));

    // A completes its submission after the drain began: in-flight work is
    // finished and answered in full, not cut off.
    a.write_all(rest).expect("A's second half");
    a.flush().expect("flush rest");
    let mut response = Vec::new();
    a.read_to_end(&mut response).expect("read A's response");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 200"),
        "A should be served through the drain: {:?}",
        &text[..text.len().min(60)]
    );
    assert!(
        text.ends_with(&reference_artifact(DEFAULT_SEED)),
        "drained artifact differs from direct execution"
    );

    // B was already queued, so it gets an answer — and the answer says the
    // service is going away.
    let b = b.join().unwrap();
    assert_eq!(b.status, 503);
    assert_eq!(String::from_utf8_lossy(&b.body), "draining\n");

    let summary = server_thread
        .join()
        .unwrap()
        .expect("serve_forever returns the drain summary");
    assert_eq!(summary.abandoned, 0, "clean drain leaves nothing behind");
    assert_eq!(summary.served, 2, "A's 200 and B's draining 503");
    assert_eq!(summary.rejected, 0);

    // The drained daemon is gone: a new connection is refused outright or
    // closed without an answer.
    if let Ok(mut post) = std::net::TcpStream::connect(&addr) {
        let _ = post.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut buf = Vec::new();
        let n = post.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(
            n,
            0,
            "a drained daemon must not answer: {:?}",
            String::from_utf8_lossy(&buf)
        );
    }
}

#[test]
fn a_disconnected_progress_client_cancels_its_run_and_frees_the_pool() {
    // Enough slow units that the run is still mid-flight when the client
    // vanishes; cancellation must abort the sweep well short of completion.
    const TOTAL_UNITS: u64 = 64;
    let spec = r#"{
        "schema_version": 1,
        "name": "serve_cancel_probe",
        "description": "slow wide grid for disconnect tests",
        "model": "parcels",
        "config": {"horizon_cycles": 1000000.0},
        "grid": {
            "node_counts": [2, 4, 8, 12, 16, 24, 32, 48],
            "parallelisms": [8],
            "latencies": [1000.0],
            "remote_fractions": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        }
    }"#;
    let addr = start(&ServeOptions {
        workers: 2,
        queue: 4,
        ..ServeOptions::default()
    });
    {
        // Hand-rolled client: submit with progress, read up to the start
        // event (so the run is genuinely under way), then vanish.
        let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
        write!(
            conn,
            "POST /run?progress=1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            spec.len()
        )
        .expect("head");
        conn.write_all(spec.as_bytes()).expect("body");
        let mut seen = Vec::new();
        let mut chunk = [0u8; 256];
        while !String::from_utf8_lossy(&seen).contains("\"event\":\"start\"") {
            let n = conn.read(&mut chunk).expect("progress bytes");
            assert!(n > 0, "stream ended before the start event");
            seen.extend_from_slice(&chunk[..n]);
        }
    } // dropped mid-run: the next unit event's write fails on the dead socket
      // The handler notices the dead stream, cancels the run (recorded as the
      // nginx-style 499, never written to anyone), and the pool returns to idle
      // with the sweep unfinished.
    let doc = wait_for_metrics(&addr, "cancelled run recorded as 499", |d| {
        value_at(d, &["requests", "by_endpoint", "POST /run", "499"]).is_some()
            && metrics_u64(d, &["pool", "permits_in_use"]) == 0
            && metrics_u64(d, &["pool", "flights_in_progress"]) == 0
    });
    assert!(
        metrics_u64(&doc, &["pool", "mem_entries"]) < TOTAL_UNITS,
        "cancellation should abort the sweep early, not run it to completion"
    );
    // A cancelled request never reaches the response path, so the cache
    // ledger (which reconciles against served headers) stays untouched.
    assert_eq!(metrics_u64(&doc, &["cache", "units_served"]), 0);
    // The daemon is unharmed.
    let health = client::request(&addr, "GET", "/healthz", &[], b"").expect("healthz after cancel");
    assert_eq!(health.status, 200);
}

#[test]
fn a_failed_cache_store_answers_500_and_leaves_nothing_warm() {
    let cache = temp_dir("store-fault");
    let addr = start(&ServeOptions {
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    });
    // A regular file where the entry directory must be: every store fails,
    // even for root-privileged test runners (where permission bits would not).
    let units = cache.join("units");
    std::fs::remove_dir_all(&units).expect("remove the entry directory");
    std::fs::write(&units, "x").expect("block the entry directory");

    let cold = client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("cold request");
    assert_eq!(cold.status, 500);
    let body = String::from_utf8_lossy(&cold.body);
    assert!(body.contains(&units.display().to_string()), "{body}");
    let health = client::request(&addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!(health.status, 200);
    let doc = wait_for_metrics(&addr, "the 500 counted", |d| {
        value_at(d, &["requests", "by_endpoint", "POST /run", "500"]).is_some()
    });
    assert_eq!(
        metrics_u64(&doc, &["requests", "by_endpoint", "POST /run", "500"]),
        1
    );
    assert_eq!(
        metrics_u64(&doc, &["memo", "entries"]),
        0,
        "a 500 was memoized"
    );

    // With the directory back, the daemon computes and stores every unit: no
    // payload the disk refused was kept warm in memory.
    std::fs::remove_file(&units).expect("unblock");
    std::fs::create_dir(&units).expect("restore the entry directory");
    let retry = client::request(&addr, "POST", "/run", &[], SPEC.as_bytes()).expect("retry");
    assert_eq!(retry.status, 200);
    assert_eq!(
        String::from_utf8_lossy(&retry.body),
        reference_for(SPEC, DEFAULT_SEED)
    );
    assert_eq!(header_u64(&retry, "X-Pim-Cache-Misses"), SPEC_UNITS);

    // So a warm batch over the daemon's cache is all hits.
    let mut registry = Registry::new();
    let names = register_specs(&mut registry, vec![parse_spec(SPEC).expect("spec parses")])
        .expect("spec registers");
    let warm = run_batch(
        &registry,
        &names,
        &BatchOptions {
            jobs: 2,
            cache_dir: Some(cache.clone()),
            ..Default::default()
        },
    )
    .expect("warm batch runs");
    assert_eq!(warm.cache_counts[0].hits, SPEC_UNITS);
    assert_eq!(warm.cache_counts[0].misses, 0);
    assert_eq!(warm.reports[0].to_json(), reference_for(SPEC, DEFAULT_SEED));
    let _ = std::fs::remove_dir_all(&cache);
}
