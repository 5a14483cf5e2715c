//! The `pim-perf` suite: a fixed set of performance measurements emitting a
//! schema-versioned `BENCH_<rev>.json`, the repo's performance trajectory format.
//!
//! Three layers are measured:
//!
//! 1. **Pending-event sets** — drain throughput (events/sec) of the three
//!    [`desim::event::EventQueue`] implementations on a random-time workload and on
//!    the monotone constant-delay workload the parcel models generate. This is the
//!    evidence behind the engine's queue default (see
//!    [`desim::engine::Simulation::new`]).
//! 2. **End-to-end engine** — events/sec through a full M/M/1 queuing network and
//!    through one saturated parcel test-system point, i.e. dispatch + model handler
//!    + statistics, not just the data structure.
//! 3. **Scenario batch** — wall-clock and units/sec for the full registry under the
//!    work-stealing batch runner, plus (in full mode) per-scenario wall times.
//! 4. **Incremental execution** — cold-vs-warm wall time of the full registry
//!    through the content-addressed unit-result cache (`pim_harness::cache`): the
//!    cold pass populates a fresh cache, the warm pass must serve every unit from it.
//! 5. **Sharded execution** — the `run --shard I/N` protocol (`pim_harness::shard`)
//!    in-process: two shard passes over the builtin registry into separate caches,
//!    a `cache merge`, and a warm unsharded pass over the merged cache, each
//!    wall-clocked. On a multi-core host the shard passes would run as concurrent
//!    processes; the serial walls here still expose the protocol's overheads
//!    (partition, double cache I/O, merge).
//! 6. **Sweep service** — an in-process [`pim_harness::serve::SweepServer`] driven
//!    over real sockets: one cold spec submission, then a burst of warm repeats.
//!    Reports the cold wall, sustained warm requests/sec, and mean warm-hit
//!    latency — the daemon's whole overhead stack (HTTP parse, spec compile,
//!    in-memory unit hits, serialization) per request.
//! 7. **Service under saturation** — a client fleet larger than the daemon's
//!    bounded worker pool, every client submitting a *distinct* spec and
//!    honoring `503` + `Retry-After` backpressure with retries. Reports the
//!    fleet wall, completed requests/sec, and how many rejections the
//!    backpressure issued — the cost of overload degrading into fast retries
//!    instead of unbounded threads.
//!
//! Comparing two revisions is a field-by-field diff of their `BENCH_*.json`; CI runs
//! the quick suite on every push and uploads the artifact (non-gating).

use desim::event::{BinaryHeapQueue, CalendarQueue, EventQueue, FifoBandQueue, ScheduledEvent};
use desim::prelude::*;
use pim_harness::prelude::*;
use pim_parcels::prelude::*;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Version of the `BENCH_*.json` schema. Bump on incompatible shape changes so
/// trajectory tooling can refuse to compare apples to oranges. v2 added the
/// `incremental` section (cold/warm cache wall times); the `sharded` section
/// (shard/merge/warm walls) and the `serve` section (daemon request throughput)
/// are additive — [`compare_payloads`] skips metrics absent from either
/// payload — so they did not bump the version.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Options for one suite run.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Revision label recorded in the file name and payload (e.g. a git short SHA).
    pub rev: String,
    /// Quick mode: ~10× smaller microbenches and no per-scenario timing pass.
    /// This is what CI runs as its non-gating smoke bench.
    pub quick: bool,
    /// Worker threads for the batch measurement (`0` = one per core).
    pub jobs: usize,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            rev: "local".to_string(),
            quick: false,
            jobs: 0,
        }
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Events/sec of pushing `n` events and draining them through `queue`.
fn drain_rate<Q: EventQueue<u64>>(mut queue: Q, times: &[u64]) -> f64 {
    let start = Instant::now();
    for (seq, &t) in times.iter().enumerate() {
        queue.push(ScheduledEvent {
            time: SimTime::from_ticks(t),
            priority: 0,
            seq: seq as u64,
            id: EventId(seq as u64),
            payload: seq as u64,
        });
    }
    let mut drained = 0u64;
    while queue.pop().is_some() {
        drained += 1;
    }
    assert_eq!(drained as usize, times.len(), "queue lost events");
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    (2 * times.len()) as f64 / elapsed // one push + one pop per event
}

/// Uniform-random event times over a wide horizon.
fn random_times(n: usize) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    (0..n).map(|_| rng.gen_range(0..100_000_000u64)).collect()
}

/// The parcel-model shape: interleaved short service completions and
/// constant-latency round trips from a monotonically advancing clock.
fn monotone_times(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let now = i / 2 * 100;
            if i % 2 == 0 {
                now + 2_000_000
            } else {
                now + 3_000
            }
        })
        .collect()
}

/// Benchmark the three pending-event-set implementations.
fn bench_event_queues(scale: usize) -> Value {
    let random = random_times(scale);
    let monotone = monotone_times(scale);
    map(vec![
        ("events", Value::U64(scale as u64)),
        (
            "heap_random_events_per_sec",
            Value::F64(drain_rate(BinaryHeapQueue::new(), &random)),
        ),
        (
            "calendar_random_events_per_sec",
            Value::F64(drain_rate(CalendarQueue::new(50_000, 1024), &random)),
        ),
        (
            "fifo_band_random_events_per_sec",
            Value::F64(drain_rate(FifoBandQueue::new(), &random)),
        ),
        (
            "heap_monotone_events_per_sec",
            Value::F64(drain_rate(BinaryHeapQueue::new(), &monotone)),
        ),
        (
            "calendar_monotone_events_per_sec",
            Value::F64(drain_rate(CalendarQueue::new(50_000, 1024), &monotone)),
        ),
        (
            "fifo_band_monotone_events_per_sec",
            Value::F64(drain_rate(FifoBandQueue::new(), &monotone)),
        ),
    ])
}

/// Events/sec through a full M/M/1 queuing network run (engine + qnet layer).
fn bench_mm1(horizon_us: u64) -> Value {
    let mut net = QNetwork::new(7);
    let src = net.add_source("src", Dist::Exponential { mean: 20.0 }, 0, None);
    let cpu = net.add_service("cpu", 1, Dist::Exponential { mean: 10.0 });
    let sink = net.add_sink("sink");
    net.set_route(src, Routing::To(cpu));
    net.set_route(cpu, Routing::To(sink));
    let mut sim = net.into_simulation();
    sim.set_horizon(SimTime::from_us(horizon_us));
    let start = Instant::now();
    sim.run();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    map(vec![
        ("horizon_us", Value::U64(horizon_us)),
        ("events", Value::U64(sim.events_processed())),
        (
            "events_per_sec",
            Value::F64(sim.events_processed() as f64 / elapsed),
        ),
    ])
}

/// Events/sec through one saturated parcel test-system point (engine + model).
fn bench_parcel_point(horizon_cycles: f64) -> Value {
    let config = ParcelConfig {
        nodes: 16,
        parallelism: 16,
        latency_cycles: 1_000.0,
        remote_fraction: 0.4,
        horizon_cycles,
        ..Default::default()
    };
    let model = TestSystem::new(config, 42);
    let mut sim = desim::engine::Simulation::new(model);
    sim.set_horizon(SimTime::from_ns_f64(config.horizon_ns()));
    sim.init(|m, sched| m.start(sched));
    let start = Instant::now();
    sim.run();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    map(vec![
        ("horizon_cycles", Value::F64(horizon_cycles)),
        ("events", Value::U64(sim.events_processed())),
        (
            "events_per_sec",
            Value::F64(sim.events_processed() as f64 / elapsed),
        ),
    ])
}

/// Wall-clock the full scenario batch (and, in full mode, each scenario alone).
fn bench_scenarios(opts: &PerfOptions) -> Value {
    let registry = Registry::builtin();
    let names = registry.names();
    let seeds = SeedPolicy::default();

    let units_total: usize = registry.iter().map(|s| s.plan(&seeds).unit_count()).sum();
    let start = Instant::now();
    let outcome = run_batch(
        &registry,
        &names,
        &BatchOptions {
            jobs: opts.jobs,
            ..Default::default()
        },
    )
    // audit:allow(unwrap-in-library): a benchmark trajectory aborts on the first failed batch by design
    .expect("builtin batch runs");
    let batch_secs = start.elapsed().as_secs_f64();
    assert_eq!(outcome.reports.len(), registry.len());

    let mut entries = vec![
        ("jobs_requested", Value::U64(opts.jobs as u64)),
        ("jobs_resolved", Value::U64(resolve_jobs(opts.jobs) as u64)),
        ("units_total", Value::U64(units_total as u64)),
        ("wall_ms", Value::F64(batch_secs * 1e3)),
        (
            "units_per_sec",
            Value::F64(units_total as f64 / batch_secs.max(1e-9)),
        ),
    ];

    let mut per_scenario = Vec::new();
    if !opts.quick {
        for scenario in registry.iter() {
            let plan = scenario.plan(&seeds);
            let units = plan.unit_count();
            let start = Instant::now();
            let outcome = UnitPool::new(opts.jobs)
                .run_plans_cached(vec![plan], None)
                .ok()
                .and_then(|mut outcomes| outcomes.pop());
            // audit:allow(unwrap-in-library): a benchmark trajectory aborts on the first failed batch by design
            let report = outcome.expect("per-scenario batch runs").report;
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(report.scenario, scenario.name());
            per_scenario.push(map(vec![
                ("name", Value::Str(scenario.name().to_string())),
                ("units", Value::U64(units as u64)),
                ("wall_ms", Value::F64(secs * 1e3)),
                ("units_per_sec", Value::F64(units as f64 / secs.max(1e-9))),
            ]));
        }
    }
    entries.push(("per_scenario", Value::Seq(per_scenario)));
    map(entries)
}

/// Cold-vs-warm wall time of the full builtin registry through the unit-result
/// cache. The cold pass populates a fresh cache directory (created under the
/// system temp dir and removed afterwards); the warm pass re-runs the identical
/// batch and must serve every unit from the cache.
fn bench_incremental(opts: &PerfOptions) -> Value {
    let registry = Registry::builtin();
    let names = registry.names();
    let cache_dir = std::env::temp_dir().join(format!(
        "pim-perf-cache-{}-{}",
        std::process::id(),
        &opts.rev
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run = || {
        let start = Instant::now();
        let outcome = run_batch(
            &registry,
            &names,
            &BatchOptions {
                jobs: opts.jobs,
                cache_dir: Some(cache_dir.clone()),
                ..Default::default()
            },
        )
        // audit:allow(unwrap-in-library): a benchmark trajectory aborts on the first failed batch by design
        .expect("cached batch runs");
        (start.elapsed().as_secs_f64(), outcome)
    };
    let (cold_secs, cold) = run();
    let (warm_secs, warm) = run();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let count = |counts: &[pim_harness::prelude::CacheCounts]| {
        counts.iter().fold((0u64, 0u64), |(h, m), c| {
            (h + c.hits, m + c.misses + c.recomputed)
        })
    };
    let (cold_hits, cold_computed) = count(&cold.cache_counts);
    let (warm_hits, warm_computed) = count(&warm.cache_counts);
    map(vec![
        ("jobs_requested", Value::U64(opts.jobs as u64)),
        ("cold_wall_ms", Value::F64(cold_secs * 1e3)),
        ("warm_wall_ms", Value::F64(warm_secs * 1e3)),
        ("warm_speedup", Value::F64(cold_secs / warm_secs.max(1e-9))),
        ("cold_hits", Value::U64(cold_hits)),
        ("cold_computed", Value::U64(cold_computed)),
        ("warm_hits", Value::U64(warm_hits)),
        ("warm_computed", Value::U64(warm_computed)),
    ])
}

/// The two-shard protocol end to end, wall-clocked stage by stage: shard 1/2 and
/// 2/2 of the builtin registry into separate caches, `cache_merge` into a third,
/// and a warm unsharded pass over the merged cache. All caches live under the
/// system temp dir and are removed afterwards.
fn bench_sharded(opts: &PerfOptions) -> Value {
    let registry = Registry::builtin();
    let names = registry.names();
    let base = std::env::temp_dir().join(format!(
        "pim-perf-shard-{}-{}",
        std::process::id(),
        &opts.rev
    ));
    let _ = std::fs::remove_dir_all(&base);

    let mut shard_walls = Vec::new();
    let mut executed = Vec::new();
    for index in 1..=2u32 {
        let start = Instant::now();
        let outcome = run_batch(
            &registry,
            &names,
            &BatchOptions {
                jobs: opts.jobs,
                cache_dir: Some(base.join(format!("shard-{index}"))),
                shard: Some(
                    // audit:allow(unwrap-in-library): 1/2 and 2/2 are statically valid shards
                    ShardSpec::new(index, 2).expect("valid shard"),
                ),
                ..Default::default()
            },
        )
        // audit:allow(unwrap-in-library): a benchmark trajectory aborts on the first failed batch by design
        .expect("shard batch runs");
        shard_walls.push(start.elapsed().as_secs_f64());
        executed.push(
            outcome
                .shard_scenarios
                .iter()
                .map(|s| s.executed.len() as u64)
                .sum::<u64>(),
        );
    }

    let merged_cache = base.join("merged");
    let start = Instant::now();
    let merge = pim_harness::cache::cache_merge(
        &merged_cache,
        &[base.join("shard-1"), base.join("shard-2")],
    )
    // audit:allow(unwrap-in-library): a benchmark trajectory aborts on the first failed merge by design
    .expect("shard caches merge");
    let merge_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let warm = run_batch(
        &registry,
        &names,
        &BatchOptions {
            jobs: opts.jobs,
            cache_dir: Some(merged_cache),
            ..Default::default()
        },
    )
    // audit:allow(unwrap-in-library): a benchmark trajectory aborts on the first failed batch by design
    .expect("merged-cache batch runs");
    let warm_secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&base);

    let (warm_hits, warm_computed) = warm.cache_counts.iter().fold((0u64, 0u64), |(h, m), c| {
        (h + c.hits, m + c.misses + c.recomputed)
    });
    map(vec![
        ("jobs_requested", Value::U64(opts.jobs as u64)),
        ("shard_count", Value::U64(2)),
        ("shard1_wall_ms", Value::F64(shard_walls[0] * 1e3)),
        ("shard2_wall_ms", Value::F64(shard_walls[1] * 1e3)),
        ("shard1_units_executed", Value::U64(executed[0])),
        ("shard2_units_executed", Value::U64(executed[1])),
        ("merge_wall_ms", Value::F64(merge_secs * 1e3)),
        ("merge_entries", Value::U64(merge.copied)),
        ("merged_warm_wall_ms", Value::F64(warm_secs * 1e3)),
        ("merged_warm_hits", Value::U64(warm_hits)),
        ("merged_warm_computed", Value::U64(warm_computed)),
    ])
}

/// The sweep service end to end: bind an in-process server on an OS-assigned
/// port, submit a small analytic spec cold, then hammer it with warm repeats.
/// Memory-only (no cache directory): the warm path measured here is the
/// daemon's in-memory unit map, i.e. pure service overhead per request.
fn bench_serve(opts: &PerfOptions) -> Value {
    const SPEC: &str = r#"{
        "schema_version": 1,
        "name": "perf_serve_probe",
        "description": "small analytic grid for service benchmarking",
        "model": "analytic",
        "grid": {
            "node_counts": [2, 4, 8, 16, 32],
            "lwp_fractions": [0.2, 0.4, 0.6, 0.8]
        },
        "columns": ["nodes", "pct_lwp", "gain"]
    }"#;
    let warm_requests = if opts.quick { 50u64 } else { 200u64 };

    let server = SweepServer::bind(&ServeOptions {
        jobs: opts.jobs,
        // The warm burst is sequential; one worker keeps the measurement a
        // pure per-request overhead stack.
        workers: 1,
        queue: 1,
        ..ServeOptions::default()
    })
    // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a failed bind by design
    .expect("serve bench binds on a loopback port");
    // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a failed bind by design
    let addr = server.local_addr().expect("bound socket has an address");
    let drain = server.drain_handle();
    let server_thread = std::thread::spawn(move || server.serve_forever());

    let submit = || {
        tiny_http::client::request(&addr, "POST", "/run", &[], SPEC.as_bytes())
            // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a failed request by design
            .expect("serve bench request succeeds")
    };
    let start = Instant::now();
    let cold = submit();
    let cold_secs = start.elapsed().as_secs_f64();
    assert_eq!(cold.status, 200, "cold submission failed");
    let units: u64 = cold
        .header("x-pim-units")
        .and_then(|v| v.parse().ok())
        // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a malformed response by design
        .expect("cold response carries X-Pim-Units");

    let start = Instant::now();
    let mut warm_hits = 0u64;
    for _ in 0..warm_requests {
        let warm = submit();
        assert_eq!(warm.status, 200, "warm submission failed");
        assert_eq!(warm.body, cold.body, "warm artifact diverged");
        warm_hits += warm
            .header("x-pim-cache-hits")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    }
    let warm_secs = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        warm_hits,
        warm_requests * units,
        "warm requests were not served entirely from memory"
    );

    // A benchmark must not leak its daemon: drain gracefully and join the
    // server thread so the pool, workers, and listener are all gone before
    // the next section binds its own port.
    drain.request_drain();
    let summary = server_thread
        .join()
        // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a crashed daemon by design
        .expect("serve bench daemon thread joins")
        // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a failed drain by design
        .expect("serve bench daemon drains");
    assert_eq!(summary.abandoned, 0, "drain abandoned in-flight work");

    map(vec![
        ("jobs_requested", Value::U64(opts.jobs as u64)),
        ("units", Value::U64(units)),
        ("cold_ms", Value::F64(cold_secs * 1e3)),
        ("warm_requests", Value::U64(warm_requests)),
        (
            "warm_requests_per_sec",
            Value::F64(warm_requests as f64 / warm_secs),
        ),
        (
            "warm_hit_latency_ms",
            Value::F64(warm_secs * 1e3 / warm_requests as f64),
        ),
    ])
}

/// The sweep service under saturation: a client fleet larger than the worker
/// pool, each client submitting a *distinct* small analytic spec and honoring
/// `503` + `Retry-After` backpressure by sleeping and retrying until its `200`
/// arrives. Measures how quickly a saturated daemon turns a burst of strangers
/// into completed work, and how many rejections the backpressure issued along
/// the way. The daemon is drained and joined before returning.
fn bench_serve_load(opts: &PerfOptions) -> Value {
    let clients: usize = if opts.quick { 8 } else { 16 };
    let workers: usize = 2;
    let server = SweepServer::bind(&ServeOptions {
        jobs: opts.jobs,
        workers,
        queue: workers,
        ..ServeOptions::default()
    })
    // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a failed bind by design
    .expect("serve load bench binds on a loopback port");
    // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a failed bind by design
    let addr = server.local_addr().expect("bound socket has an address");
    let drain = server.drain_handle();
    let server_thread = std::thread::spawn(move || server.serve_forever());

    // Distinct names mean distinct unit-key spaces: no cross-client warmth,
    // every request is real compute plus the full service stack.
    let specs: Vec<String> = (0..clients)
        .map(|i| {
            format!(
                r#"{{
        "schema_version": 1,
        "name": "perf_load_{i}",
        "description": "distinct analytic grid for the load bench",
        "model": "analytic",
        "grid": {{
            "node_counts": [2, 4, 8, 16],
            "lwp_fractions": [0.25, 0.5, 0.75]
        }},
        "columns": ["nodes", "pct_lwp", "gain"]
    }}"#
            )
        })
        .collect();

    let start = Instant::now();
    let rejections: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut rejections = 0u64;
                    loop {
                        let resp =
                            tiny_http::client::request(addr, "POST", "/run", &[], spec.as_bytes())
                                // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a failed request by design
                                .expect("saturated daemon answers every request");
                        if resp.status == 503 {
                            assert!(
                                resp.header("retry-after").is_some(),
                                "503 without Retry-After"
                            );
                            rejections += 1;
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            continue;
                        }
                        assert_eq!(resp.status, 200, "load client failed");
                        return rejections;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a crashed client by design
            .map(|h| h.join().expect("load client thread joins"))
            .sum()
    });
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);

    drain.request_drain();
    let summary = server_thread
        .join()
        // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a crashed daemon by design
        .expect("serve load daemon thread joins")
        // audit:allow(unwrap-in-library): a benchmark trajectory aborts on a failed drain by design
        .expect("serve load daemon drains");
    assert_eq!(summary.abandoned, 0, "drain abandoned in-flight work");

    map(vec![
        ("jobs_requested", Value::U64(opts.jobs as u64)),
        ("workers", Value::U64(workers as u64)),
        ("clients", Value::U64(clients as u64)),
        ("completed", Value::U64(clients as u64)),
        ("rejected_503", Value::U64(rejections)),
        ("wall_ms", Value::F64(wall_secs * 1e3)),
        ("completed_per_sec", Value::F64(clients as f64 / wall_secs)),
    ])
}

/// Run the whole suite and return the `BENCH_*.json` payload.
pub fn run_suite(opts: &PerfOptions) -> Value {
    let scale = if opts.quick { 20_000 } else { 200_000 };
    map(vec![
        (
            "schema_version",
            Value::U64(u64::from(BENCH_SCHEMA_VERSION)),
        ),
        ("rev", Value::Str(opts.rev.clone())),
        ("quick", Value::Bool(opts.quick)),
        (
            "host",
            map(vec![(
                "available_parallelism",
                Value::U64(desim::par::available_threads() as u64),
            )]),
        ),
        ("event_queues", bench_event_queues(scale)),
        ("mm1_qnet", bench_mm1(if opts.quick { 200 } else { 2_000 })),
        (
            "parcel_point",
            bench_parcel_point(if opts.quick { 20_000.0 } else { 200_000.0 }),
        ),
        ("scenarios", bench_scenarios(opts)),
        ("incremental", bench_incremental(opts)),
        ("sharded", bench_sharded(opts)),
        ("serve", bench_serve(opts)),
        ("serve_load", bench_serve_load(opts)),
    ])
}

// ---------------------------------------------------------------------------
// Baseline comparison (the `pim-perf --compare` gate)
// ---------------------------------------------------------------------------

/// Throughput metrics gated by [`compare_payloads`]: a drop beyond the allowed
/// regression in any of them fails the comparison. All are events/sec-style
/// rates, so they are meaningful across suite scales (quick vs full).
const GATED_METRICS: &[(&str, &str)] = &[
    ("event_queues", "heap_random_events_per_sec"),
    ("event_queues", "calendar_random_events_per_sec"),
    ("event_queues", "fifo_band_random_events_per_sec"),
    ("event_queues", "heap_monotone_events_per_sec"),
    ("event_queues", "calendar_monotone_events_per_sec"),
    ("event_queues", "fifo_band_monotone_events_per_sec"),
    ("mm1_qnet", "events_per_sec"),
    ("parcel_point", "events_per_sec"),
    ("scenarios", "units_per_sec"),
];

/// Informational metrics included in the delta table but never gated (wall
/// times depend on suite scale and machine; speedup on cache hit rates).
const INFO_METRICS: &[(&str, &str)] = &[
    ("scenarios", "wall_ms"),
    ("incremental", "cold_wall_ms"),
    ("incremental", "warm_wall_ms"),
    ("incremental", "warm_speedup"),
    ("sharded", "shard1_wall_ms"),
    ("sharded", "shard2_wall_ms"),
    ("sharded", "merge_wall_ms"),
    ("sharded", "merged_warm_wall_ms"),
    ("serve", "cold_ms"),
    ("serve", "warm_requests_per_sec"),
    ("serve", "warm_hit_latency_ms"),
    ("serve_load", "wall_ms"),
    ("serve_load", "completed_per_sec"),
];

/// One metric's baseline-vs-current delta.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// `section.key` path of the metric in the payload.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change in percent (positive = current is larger).
    pub delta_pct: f64,
    /// Whether a regression in this metric can fail the comparison.
    pub gated: bool,
    /// True when this metric is gated and regressed beyond the allowance.
    pub failed: bool,
}

fn metric(payload: &Value, section: &str, key: &str) -> Option<f64> {
    payload.get(section)?.get(key)?.as_f64()
}

/// Compare `current` against a `baseline` bench payload. Each metric present in
/// both payloads yields a [`MetricDelta`]; a gated metric whose current value
/// falls more than `max_regression_pct` percent below the baseline is marked
/// failed. Payloads of different schema versions refuse to compare.
pub fn compare_payloads(
    baseline: &Value,
    current: &Value,
    max_regression_pct: f64,
) -> Result<Vec<MetricDelta>, String> {
    let schema = |p: &Value, who: &str| {
        p.get("schema_version")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{who} payload has no schema_version"))
    };
    let (b, c) = (schema(baseline, "baseline")?, schema(current, "current")?);
    if b != c {
        return Err(format!(
            "schema mismatch: baseline v{b}, current v{c} — regenerate the baseline"
        ));
    }
    let mut deltas = Vec::new();
    for (gated, metrics) in [(true, GATED_METRICS), (false, INFO_METRICS)] {
        for &(section, key) in metrics {
            let (Some(base), Some(cur)) = (
                metric(baseline, section, key),
                metric(current, section, key),
            ) else {
                continue;
            };
            let delta_pct = if base != 0.0 {
                (cur - base) / base * 100.0
            } else {
                0.0
            };
            deltas.push(MetricDelta {
                name: format!("{section}.{key}"),
                baseline: base,
                current: cur,
                delta_pct,
                gated,
                failed: gated && delta_pct < -max_regression_pct,
            });
        }
    }
    Ok(deltas)
}

/// Render a comparison as an aligned per-metric table (for CI logs). Gated
/// regressions are flagged `FAIL`, everything else `ok` (or `info` for
/// non-gated rows).
pub fn format_comparison(deltas: &[MetricDelta], baseline_rev: &str) -> String {
    let mut out = format!(
        "{:<42} {:>14} {:>14} {:>9}  status\n",
        format!("metric (baseline {baseline_rev})"),
        "baseline",
        "current",
        "delta"
    );
    for d in deltas {
        let status = if d.failed {
            "FAIL"
        } else if d.gated {
            "ok"
        } else {
            "info"
        };
        out.push_str(&format!(
            "{:<42} {:>14.1} {:>14.1} {:>+8.1}%  {status}\n",
            d.name, d.baseline, d.current, d.delta_pct
        ));
    }
    out
}

/// Write `payload` to `<dir>/BENCH_<rev>.json` (pretty JSON + trailing newline) and
/// return the path.
pub fn write_bench_file(
    dir: &std::path::Path,
    rev: &str,
    payload: &Value,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("BENCH_{rev}.json"));
    let mut json = serde_json::to_string_pretty(payload)
        .map_err(|e| format!("serialize bench payload: {e}"))?;
    json.push('\n');
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_microbenches_report_positive_rates() {
        let v = bench_event_queues(2_000);
        for key in [
            "heap_random_events_per_sec",
            "calendar_random_events_per_sec",
            "fifo_band_random_events_per_sec",
            "fifo_band_monotone_events_per_sec",
        ] {
            let rate = v.get(key).and_then(|x| x.as_f64()).unwrap();
            assert!(rate > 0.0, "{key} = {rate}");
        }
    }

    #[test]
    fn engine_benches_count_events() {
        let mm1 = bench_mm1(50);
        assert!(mm1.get("events").and_then(|x| x.as_f64()).unwrap() > 0.0);
        let parcel = bench_parcel_point(5_000.0);
        assert!(parcel.get("events").and_then(|x| x.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn quick_suite_emits_schema_versioned_payload_and_file() {
        let opts = PerfOptions {
            rev: "unit-test".into(),
            quick: true,
            jobs: 2,
        };
        let payload = run_suite(&opts);
        assert_eq!(
            payload.get("schema_version").and_then(|v| v.as_f64()),
            Some(f64::from(BENCH_SCHEMA_VERSION))
        );
        assert!(payload.get("scenarios").is_some());
        let batch = payload.get("scenarios").unwrap();
        assert!(batch.get("units_total").and_then(|v| v.as_f64()).unwrap() > 100.0);
        // The incremental section must show a fully-cold then fully-warm pass.
        let inc = payload.get("incremental").unwrap();
        assert_eq!(inc.get("cold_hits").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(inc.get("warm_computed").and_then(|v| v.as_f64()), Some(0.0));
        let warm_hits = inc.get("warm_hits").and_then(|v| v.as_f64()).unwrap();
        let cold_computed = inc.get("cold_computed").and_then(|v| v.as_f64()).unwrap();
        assert!(warm_hits > 100.0);
        assert_eq!(warm_hits, cold_computed);
        assert!(inc.get("warm_speedup").and_then(|v| v.as_f64()).unwrap() > 1.0);
        // The sharded section must show an exact two-way split and an all-hit
        // merged pass.
        let sharded = payload.get("sharded").unwrap();
        let num = |key: &str| sharded.get(key).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(
            num("shard1_units_executed") + num("shard2_units_executed"),
            num("merge_entries"),
            "shards and merge disagree on the unit count"
        );
        assert_eq!(num("merged_warm_computed"), 0.0);
        assert_eq!(num("merged_warm_hits"), num("merge_entries"));
        assert_eq!(num("merged_warm_hits"), cold_computed);
        // The serve section must show sustained warm throughput over a live socket.
        let serve = payload.get("serve").unwrap();
        let snum = |key: &str| serve.get(key).and_then(|v| v.as_f64()).unwrap();
        assert!(snum("units") > 0.0);
        assert!(snum("warm_requests_per_sec") > 0.0);
        assert!(snum("warm_hit_latency_ms") > 0.0);
        // The load section must complete its whole fleet against the bounded pool.
        let load = payload.get("serve_load").unwrap();
        let lnum = |key: &str| load.get(key).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(lnum("completed"), lnum("clients"));
        assert!(lnum("completed_per_sec") > 0.0);

        let dir = std::env::temp_dir().join(format!("pim-perf-test-{}", std::process::id()));
        let path = write_bench_file(&dir, &opts.rev, &payload).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap() == "BENCH_unit-test.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"schema_version\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn synthetic_payload(schema: u32, parcel_rate: f64, mm1_rate: f64, wall_ms: f64) -> Value {
        let section = |key: &str, rate: f64| Value::Map(vec![(key.into(), Value::F64(rate))]);
        Value::Map(vec![
            ("schema_version".into(), Value::U64(u64::from(schema))),
            ("rev".into(), Value::Str("synthetic".into())),
            ("mm1_qnet".into(), section("events_per_sec", mm1_rate)),
            (
                "parcel_point".into(),
                section("events_per_sec", parcel_rate),
            ),
            (
                "scenarios".into(),
                Value::Map(vec![
                    ("units_per_sec".into(), Value::F64(70.0)),
                    ("wall_ms".into(), Value::F64(wall_ms)),
                ]),
            ),
        ])
    }

    #[test]
    fn compare_flags_only_gated_regressions_beyond_allowance() {
        let baseline = synthetic_payload(BENCH_SCHEMA_VERSION, 1_000_000.0, 2_000_000.0, 8_000.0);
        // parcel −50% (fails), mm1 −10% (within allowance), wall +100% (info only).
        let current = synthetic_payload(BENCH_SCHEMA_VERSION, 500_000.0, 1_800_000.0, 16_000.0);
        let deltas = compare_payloads(&baseline, &current, 20.0).unwrap();
        let find = |name: &str| deltas.iter().find(|d| d.name == name).unwrap();
        let parcel = find("parcel_point.events_per_sec");
        assert!(parcel.failed && parcel.gated);
        assert!((parcel.delta_pct + 50.0).abs() < 1e-9);
        assert!(!find("mm1_qnet.events_per_sec").failed);
        let wall = find("scenarios.wall_ms");
        assert!(!wall.gated && !wall.failed);
        // Metrics absent from either payload are skipped, not errors.
        assert!(!deltas.iter().any(|d| d.name.starts_with("event_queues.")));
        assert!(!deltas.iter().any(|d| d.name.starts_with("incremental.")));
    }

    #[test]
    fn compare_passes_improvements_and_exact_allowance_boundary() {
        let baseline = synthetic_payload(BENCH_SCHEMA_VERSION, 1_000_000.0, 2_000_000.0, 8_000.0);
        // parcel +50% improvement, mm1 at exactly −20%: neither fails at a 20% gate.
        let current = synthetic_payload(BENCH_SCHEMA_VERSION, 1_500_000.0, 1_600_000.0, 4_000.0);
        let deltas = compare_payloads(&baseline, &current, 20.0).unwrap();
        assert!(deltas.iter().all(|d| !d.failed));
        let table = format_comparison(&deltas, "pr5");
        assert!(table.contains("baseline pr5"));
        assert!(table.contains("parcel_point.events_per_sec"));
        assert!(table.contains("+50.0%"));
        assert!(!table.contains("FAIL"));
    }

    #[test]
    fn compare_rejects_schema_mismatch() {
        let baseline = synthetic_payload(BENCH_SCHEMA_VERSION, 1.0, 1.0, 1.0);
        let current = synthetic_payload(BENCH_SCHEMA_VERSION + 1, 1.0, 1.0, 1.0);
        let err = compare_payloads(&baseline, &current, 20.0).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn full_suite_payload_exposes_every_gated_metric() {
        // Guards the gate list against drifting out of sync with the payload shape:
        // every gated metric must exist in a real (quick) suite payload.
        let opts = PerfOptions {
            rev: "gate-shape".into(),
            quick: true,
            jobs: 2,
        };
        let payload = run_suite(&opts);
        for &(section, key) in GATED_METRICS {
            assert!(
                payload
                    .get(section)
                    .and_then(|s| s.get(key))
                    .and_then(|v| v.as_f64())
                    .is_some(),
                "gated metric {section}.{key} missing from suite payload"
            );
        }
        let deltas = compare_payloads(&payload, &payload, 20.0).unwrap();
        assert_eq!(
            deltas.iter().filter(|d| d.gated).count(),
            GATED_METRICS.len()
        );
        assert!(deltas.iter().all(|d| d.delta_pct == 0.0 && !d.failed));
    }
}
