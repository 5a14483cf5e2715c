//! Per-layer probes: each times the calls into one layer on real inputs (the
//! preset specs, a probe subset of the builtin scenarios, their real cache
//! entries), so every traced run reports every per-layer metric whatever its
//! workload. Times are host time, medians or means as named per metric.

use crate::replay::request;
use crate::trace::Tracer;
use crate::{median, plans, registry, secs, Checks, Env, Metrics, JOBS};
use pim_harness::cache::{CacheLookup, UnitKey};
use pim_harness::exec::PlanOutcome;
use pim_harness::prelude::*;
use pim_harness::runner::write_artifacts;
use pim_parcels::prelude::{LatencyHidingSpec, TestSystem};
use serde::{Deserialize, Value};
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const REPS: usize = 15;

/// Builtin scenarios timed for `exec.compute_ms.builtin`: a cheap cross-section
/// (closed forms, the M/M/1 response sweep, replications) so the probe stays
/// short; figure 11/12 are covered by `desim.*` and the cold_sweep replay.
const BUILTIN_PROBE: &[&str] = &["figure6", "ablation_overhead", "replication_ci"];

pub fn run_all(env: &Env, checks: &mut Checks, out: &mut Metrics) -> Result<(), String> {
    cli_startup(env, checks, out)?;
    registry_and_plan(env, out)?;
    let outcomes = exec_and_cache(env, checks, out)?;
    report_and_write(env, outcomes, out)?;
    desim_point(env, checks, out);
    spec_compile(env, out)?;
    serve(env, checks, out)
}

fn ms(start: Instant) -> f64 {
    secs(start) * 1e3
}

/// `cli.startup_ms`: one `pim-tradeoffs list --spec DIR` process.
fn cli_startup(env: &Env, checks: &mut Checks, out: &mut Metrics) -> Result<(), String> {
    let mut walls = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let status = Command::new(&env.cli)
            .arg("list")
            .arg("--spec")
            .arg(&env.specs)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", env.cli.display()))?;
        walls.push(ms(start));
        checks.check(status.success(), || {
            format!("pim-tradeoffs list exited {status}")
        });
    }
    out.push(("cli.startup_ms", median(walls)));
    Ok(())
}

/// `registry.build_ms`, `scenario.plan_ms` (every scenario planned, keys
/// minted) and `scenario.units`.
fn registry_and_plan(env: &Env, out: &mut Metrics) -> Result<(), String> {
    let mut builds = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(registry(env)?);
        builds.push(ms(start));
    }
    let (registry, names) = registry(env)?;
    let seeds = SeedPolicy::new(env.seed);
    let (mut walls, mut units) = (Vec::new(), 0);
    for _ in 0..REPS {
        let start = Instant::now();
        units = plans(&registry, &names, &seeds)?
            .iter()
            .map(ScenarioPlan::unit_count)
            .sum::<usize>();
        walls.push(ms(start));
    }
    out.push(("registry.build_ms", median(builds)));
    out.push(("scenario.plan_ms", median(walls)));
    out.push(("scenario.units", units as f64));
    Ok(())
}

/// The probe scenarios per family: the preset specs by model, and
/// BUILTIN_PROBE.
fn families(env: &Env) -> Result<Vec<(&'static str, Vec<String>)>, String> {
    let specs = load_specs(&env.specs)?;
    let of = |family: &str| -> Vec<String> {
        specs
            .iter()
            .filter(|s| s.family() == family)
            .map(|s| s.name.clone())
            .collect()
    };
    Ok(vec![
        ("exec.compute_ms.analytic", of("analytic")),
        ("exec.compute_ms.parcels", of("parcels")),
        ("exec.compute_ms.measured", of("measured")),
        (
            "exec.compute_ms.builtin",
            BUILTIN_PROBE.iter().map(|s| s.to_string()).collect(),
        ),
    ])
}

fn reports_json(outcomes: &[PlanOutcome]) -> Vec<String> {
    outcomes.iter().map(|o| o.report.to_json()).collect()
}

/// Unit compute per family on a fresh one-permit pool without a cache, the
/// memory-hit path (the same plans again on that pool), the busy share of a
/// two-permit cold run with a disk cache, and the cache layer on the entries
/// that run stored. Returns the cold run's outcomes for the report probes.
fn exec_and_cache(
    env: &Env,
    checks: &mut Checks,
    out: &mut Metrics,
) -> Result<Vec<PlanOutcome>, String> {
    let (registry, _) = registry(env)?;
    let seeds = SeedPolicy::new(env.seed);
    let (mut serial, mut mem, mut units_total) = (0.0, 0.0, 0usize);
    let mut all = Vec::new();
    for (metric, names) in families(env)? {
        let pool = UnitPool::new(1);
        let planned = plans(&registry, &names, &seeds)?;
        let units: usize = planned.iter().map(ScenarioPlan::unit_count).sum();
        let start = Instant::now();
        let computed = pool.run_plans_cached(planned, None)?;
        let cold = secs(start);
        let start = Instant::now();
        let served = pool.run_plans_cached(plans(&registry, &names, &seeds)?, None)?;
        mem += secs(start);
        checks.check(reports_json(&computed) == reports_json(&served), || {
            format!("{metric}: memory-served reports differ from computed ones")
        });
        out.push((metric, cold * 1e3 / units.max(1) as f64));
        serial += cold;
        units_total += units;
        all.extend(names);
    }
    out.push(("exec.mem_hit_us", mem * 1e6 / units_total.max(1) as f64));

    let cache_dir = env.fresh_dir("probe_cache")?;
    let cache = UnitCache::open(&cache_dir)?;
    let start = Instant::now();
    let outcomes =
        UnitPool::new(JOBS).run_plans_cached(plans(&registry, &all, &seeds)?, Some(&cache))?;
    let wall = secs(start);
    out.push(("exec.busy_share", serial / (wall * JOBS as f64)));
    let misses: u64 = outcomes.iter().map(|o| o.cache.misses).sum();
    checks.check(misses as usize == units_total, || {
        format!("probe cache fill: {misses} misses for {units_total} units")
    });

    let entries = read_entries(&cache_dir)?;
    let n = entries.len().max(1) as f64;
    let rounds = 200;
    let start = Instant::now();
    for _ in 0..rounds {
        for (key, _, _) in &entries {
            black_box(black_box(key).digest_u128());
        }
    }
    out.push((
        "cache.key_digest_ns",
        secs(start) * 1e9 / (rounds as f64 * n),
    ));

    let (mut load_s, mut hits, passes) = (0.0, 0usize, 3);
    for _ in 0..passes {
        for (key, _, _) in &entries {
            let start = Instant::now();
            let got = cache.load(key);
            load_s += secs(start);
            hits += usize::from(matches!(got, CacheLookup::Hit(_)));
        }
    }
    out.push(("cache.load_us", load_s * 1e6 / (passes as f64 * n)));
    out.push(("cache.hit_ratio", hits as f64 / (passes as f64 * n)));

    let copy = UnitCache::open(&env.fresh_dir("probe_cache_copy")?)?;
    let mut store_s = 0.0;
    for (key, payload, _) in &entries {
        let start = Instant::now();
        copy.store(key, payload)?;
        store_s += secs(start);
    }
    out.push(("cache.store_us", store_s * 1e6 / n));
    let bytes: usize = entries.iter().map(|e| e.2).sum();
    out.push(("cache.entry_bytes", bytes as f64 / n));
    Ok(outcomes)
}

/// Every entry of a cache directory as (key, payload, file bytes), sorted by
/// file name.
fn read_entries(root: &std::path::Path) -> Result<Vec<(UnitKey, Value, usize)>, String> {
    let dir = root.join("units");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
            let doc =
                serde_json::value_from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            let field = |k: &str| doc.get(k).ok_or_else(|| format!("{}: no {k}", p.display()));
            let key =
                UnitKey::from_value(field("key")?).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((key, field("payload")?.clone(), text.len()))
        })
        .collect()
}

/// `report.render_ms` / `report.bytes` (every probe report rendered) and
/// `runner.write_ms` (`write_artifacts`, manifest included).
fn report_and_write(
    env: &Env,
    outcomes: Vec<PlanOutcome>,
    out: &mut Metrics,
) -> Result<(), String> {
    let (reports, counts): (Vec<_>, Vec<_>) =
        outcomes.into_iter().map(|o| (o.report, o.cache)).unzip();
    let (mut renders, mut bytes) = (Vec::new(), 0);
    for _ in 0..REPS {
        let start = Instant::now();
        bytes = reports.iter().map(|r| r.to_json().len()).sum::<usize>();
        renders.push(ms(start));
    }
    let dir = env.fresh_dir("probe_out")?;
    let seeds = SeedPolicy::new(env.seed);
    let mut writes = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        write_artifacts(&dir, &seeds, &reports, true, &counts)?;
        writes.push(ms(start));
    }
    out.push(("report.render_ms", median(renders)));
    out.push(("report.bytes", bytes as f64));
    out.push(("runner.write_ms", median(writes)));
    Ok(())
}

/// `desim.events` and `desim.events_per_s`: one Figure 11 parcel test-system
/// point (parallelism 8, 40% remote, 1000-cycle latency) through the engine.
fn desim_point(env: &Env, checks: &mut Checks, out: &mut Metrics) {
    let config = LatencyHidingSpec::figure11()
        .configs()
        .into_iter()
        .find(|c| {
            c.parallelism == 8
                && (c.remote_fraction - 0.4).abs() < 1e-9
                && (c.latency_cycles - 1000.0).abs() < 1e-9
        });
    checks.check(config.is_some(), || {
        "figure 11 grid lost its probe point".into()
    });
    let Some(config) = config else { return };
    let (mut rates, mut counts) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut sim = desim::engine::Simulation::new(TestSystem::new(config, env.seed));
        sim.set_horizon(desim::time::SimTime::from_ns_f64(config.horizon_ns()));
        sim.init(|m, sched| m.start(sched));
        let start = Instant::now();
        sim.run();
        let wall = secs(start);
        counts.push(sim.events_processed());
        rates.push(sim.events_processed() as f64 / wall);
    }
    checks.check(counts.windows(2).all(|w| w[0] == w[1]), || {
        format!("figure 11 point is not deterministic: {counts:?}")
    });
    out.push(("desim.events_per_s", median(rates)));
    out.push(("desim.events", counts[0] as f64));
}

/// `spec.compile_us` (parse_spec, which validates, plus into_scenario) and
/// `spec.fingerprint_us`, per preset document.
fn spec_compile(env: &Env, out: &mut Metrics) -> Result<(), String> {
    let docs = &env.docs;
    let reps = REPS * 4;
    let (mut compile, mut fingerprint) = (0.0, 0.0);
    for (_, text) in docs {
        for _ in 0..reps {
            let start = Instant::now();
            let scenario = parse_spec(black_box(text))?.into_scenario();
            compile += secs(start);
            black_box(scenario);
            let spec = parse_spec(text)?;
            let start = Instant::now();
            black_box(spec.fingerprint());
            fingerprint += secs(start);
        }
    }
    let calls = (docs.len() * reps).max(1) as f64;
    out.push(("spec.compile_us", compile * 1e6 / calls));
    out.push(("spec.fingerprint_us", fingerprint * 1e6 / calls));
    Ok(())
}

/// The daemon probes on an in-process `SweepServer` (2 workers, 2 permits,
/// a disk cache): `/healthz` round trips, warm `/run` latency minus the same
/// document in-process, and `/metrics` sampled under the mixed schedule.
fn serve(env: &Env, checks: &mut Checks, out: &mut Metrics) -> Result<(), String> {
    let server = SweepServer::bind(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(env.fresh_dir("probe_serve_cache")?),
        jobs: JOBS,
        seed: env.seed,
        workers: JOBS,
        ..ServeOptions::default()
    })?;
    let addr = server.local_addr()?;
    let drain = server.drain_handle();
    let daemon = std::thread::spawn(move || server.serve_forever());
    let probed = serve_probes(env, &addr, checks, out);
    drain.request_drain();
    let stopped = matches!(daemon.join(), Ok(Ok(_)));
    checks.check(stopped, || "in-process daemon did not drain cleanly".into());
    probed
}

fn post(addr: &str, target: &str, body: &str) -> Result<tiny_http::client::ClientResponse, String> {
    tiny_http::client::request(addr, "POST", target, &[], body.as_bytes())
        .map_err(|e| format!("POST {target}: {e}"))
}

fn get(addr: &str, target: &str) -> Result<tiny_http::client::ClientResponse, String> {
    tiny_http::client::request(addr, "GET", target, &[], b"")
        .map_err(|e| format!("GET {target}: {e}"))
}

fn header_u64(resp: &tiny_http::client::ClientResponse, name: &str) -> Option<u64> {
    resp.header(name).and_then(|v| v.parse().ok())
}

fn serve_probes(
    env: &Env,
    addr: &str,
    checks: &mut Checks,
    out: &mut Metrics,
) -> Result<(), String> {
    let off = Tracer::new(false);
    let mirror = UnitPool::new(JOBS);
    let reps = REPS * 2;
    let mut overheads = Vec::new();
    for (name, doc) in &env.docs {
        let first = post(addr, "/run", doc)?;
        let (body, _, _) = request(&off, None, 0, &mirror, None, doc, env.seed)?;
        checks.check(first.status == 200 && first.body == body.as_bytes(), || {
            format!("{name}: daemon body differs from the in-process render")
        });
        let (mut http, mut inproc) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let start = Instant::now();
            let resp = post(addr, "/run", doc)?;
            http.push(secs(start) * 1e6);
            let units = header_u64(&resp, "X-Pim-Units");
            checks.check(
                resp.status == 200 && header_u64(&resp, "X-Pim-Cache-Hits") == units,
                || format!("{name}: warm request was not all hits"),
            );
            let start = Instant::now();
            black_box(request(&off, None, 0, &mirror, None, doc, env.seed)?);
            inproc.push(secs(start) * 1e6);
        }
        overheads.push(median(http) - median(inproc));
    }
    let mut health = Vec::new();
    for _ in 0..reps * 4 {
        let start = Instant::now();
        let resp = get(addr, "/healthz")?;
        health.push(secs(start) * 1e6);
        checks.check(resp.status == 200, || {
            format!("/healthz answered {}", resp.status)
        });
    }
    out.push(("serve.healthz_us", median(health)));
    out.push((
        "serve.overhead_us",
        overheads.iter().sum::<f64>() / overheads.len().max(1) as f64,
    ));
    mixed_load(env, addr, checks, out)
}

/// Two closed-loop clients replay the seeded schedule (until it runs out or
/// the time is up) while a third thread samples `GET /metrics`.
fn mixed_load(env: &Env, addr: &str, checks: &mut Checks, out: &mut Metrics) -> Result<(), String> {
    let docs = &env.docs;
    let duration = Duration::from_secs_f64((env.seconds / 4.0).clamp(0.5, 2.0));
    let failures = Mutex::new(Vec::new());
    let samples = Mutex::new(Vec::new());
    let deadline = Instant::now() + duration;
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..JOBS {
            scope.spawn(|| {
                while Instant::now() < deadline {
                    let Some(&(doc, seed)) = env.schedule.get(next.fetch_add(1, Ordering::Relaxed))
                    else {
                        break;
                    };
                    let target = seed.map_or("/run".to_string(), |s| format!("/run?seed={s}"));
                    let problem = match post(addr, &target, &docs[doc].1) {
                        Err(e) => Some(e),
                        Ok(resp) => {
                            let units = header_u64(&resp, "X-Pim-Units");
                            let want = if seed.is_some() {
                                "X-Pim-Cache-Misses"
                            } else {
                                "X-Pim-Cache-Hits"
                            };
                            (resp.status != 200 || header_u64(&resp, want) != units).then(|| {
                                format!("{target} {}: status {}", docs[doc].0, resp.status)
                            })
                        }
                    };
                    if let Some(p) = problem {
                        failures.lock().unwrap_or_else(|p| p.into_inner()).push(p);
                    }
                }
            });
        }
        scope.spawn(|| {
            while Instant::now() < deadline {
                if let Ok(resp) = get(addr, "/metrics") {
                    if let Ok(doc) =
                        serde_json::value_from_str(&String::from_utf8_lossy(&resp.body))
                    {
                        samples.lock().unwrap_or_else(|p| p.into_inner()).push(doc);
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
    });
    let sent = next.load(Ordering::Relaxed).min(env.schedule.len());
    checks.record(
        sent,
        failures.into_inner().unwrap_or_else(|p| p.into_inner()),
    );
    let samples = samples.into_inner().unwrap_or_else(|p| p.into_inner());
    checks.check(!samples.is_empty(), || {
        "no /metrics sample was taken".into()
    });
    let field = |doc: &Value, group: &str, name: &str| {
        doc.get(group)
            .and_then(|g| g.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let mean = |f: &dyn Fn(&Value) -> f64| {
        samples.iter().map(f).sum::<f64>() / samples.len().max(1) as f64
    };
    out.push((
        "pool.permits_in_use",
        mean(&|d| field(d, "pool", "permits_in_use")),
    ));
    // The sampling request itself occupies one worker while /metrics renders.
    out.push(("workers.busy", mean(&|d| field(d, "workers", "busy") - 1.0)));
    out.push((
        "workers.queue_depth",
        mean(&|d| field(d, "workers", "queue_depth")),
    ));
    out.push((
        "serve.rejected_503",
        samples
            .last()
            .map_or(0.0, |d| field(d, "workers", "rejected_503")),
    ));
    Ok(())
}
