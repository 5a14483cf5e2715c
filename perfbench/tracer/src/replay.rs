//! Workload replays through the library API, each run once untraced and once
//! traced so the difference is the tracing overhead. Each root span is one
//! sweep (`cold_sweep`, `warm_sweep`) or one request (`serve_mixed`); its
//! children are the layer calls, and root time outside them is unattributed.

use crate::trace::{Layers, Tracer};
use crate::{median, plans, registry, secs, Checks, Env, JOBS};
use pim_harness::cache::CacheCounts;
use pim_harness::prelude::*;
use pim_harness::runner::manifest_json;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Wall per root span (ms) of the untraced and the traced pass.
pub struct Replay {
    pub untraced_ms: f64,
    pub traced_ms: f64,
}

/// One `run --all --spec DIR --jobs 2 --cache CACHE --out OUT`, split into
/// its layers. Returns the summed cache counts and the unit count.
fn sweep(env: &Env, t: &Tracer, req: u64, cache: &Path, out: &Path) -> Result<CacheCounts, String> {
    t.span("sweep", None, req, |root| {
        let (registry, names) = t.span("registry.build", root, req, |_| registry(env))?;
        let seeds = SeedPolicy::new(env.seed);
        let plans = t.span("scenario.plan", root, req, |_| {
            plans(&registry, &names, &seeds)
        })?;
        let outcomes = t.span("exec.run", root, req, |_| {
            let cache = UnitCache::open(cache)?;
            UnitPool::new(JOBS).run_plans_cached(plans, Some(&cache))
        })?;
        let (reports, counts): (Vec<_>, Vec<_>) =
            outcomes.into_iter().map(|o| (o.report, o.cache)).unzip();
        let rendered: Vec<String> = t.span("report.render", root, req, |_| {
            reports.iter().map(|r| r.to_json()).collect()
        });
        t.span("runner.write", root, req, |_| -> Result<(), String> {
            std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
            for (report, json) in reports.iter().zip(&rendered) {
                let path = out.join(format!("{}.json", report.scenario));
                std::fs::write(&path, json)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            let manifest = manifest_json(&seeds, &reports, true, &counts)?;
            let path = out.join("manifest.json");
            std::fs::write(&path, manifest).map_err(|e| format!("write {}: {e}", path.display()))
        })?;
        Ok(counts.iter().fold(CacheCounts::default(), |mut sum, c| {
            sum.hits += c.hits;
            sum.misses += c.misses;
            sum.recomputed += c.recomputed;
            sum
        }))
    })
}

/// Cold sweeps into fresh directories: untraced, then traced. Their artifacts
/// must be byte-identical and every unit a miss.
pub fn cold_sweep(env: &Env, t: &Tracer, checks: &mut Checks) -> Result<Replay, String> {
    let off = Tracer::new(false);
    let mut walls = Vec::new();
    for (req, tracer) in [(0, &off), (1, t)] {
        let cache = env.fresh_dir(&format!("cold_cache{req}"))?;
        let out = env.fresh_dir(&format!("cold_out{req}"))?;
        let start = Instant::now();
        let counts = sweep(env, tracer, req, &cache, &out)?;
        walls.push(secs(start) * 1e3);
        checks.check(counts.hits == 0 && counts.misses > 0, || {
            format!(
                "cold replay {req}: {} hits, {} misses",
                counts.hits, counts.misses
            )
        });
    }
    let same = same_artifacts(&env.work.join("cold_out0"), &env.work.join("cold_out1"));
    checks.check(same, || {
        "traced cold replay wrote different artifacts".into()
    });
    Ok(Replay {
        untraced_ms: walls[0],
        traced_ms: walls[1],
    })
}

/// Warm sweeps over a cache filled first, alternating untraced and traced
/// passes; every pass must be all hits with the fill's artifacts.
pub fn warm_sweep(env: &Env, t: &Tracer, checks: &mut Checks) -> Result<Replay, String> {
    let off = Tracer::new(false);
    let cache = env.fresh_dir("warm_cache")?;
    let fill = env.fresh_dir("warm_fill")?;
    sweep(env, &off, 0, &cache, &fill)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let budget = Instant::now();
    let mut req = 0;
    while req < 10 || (secs(budget) < env.seconds / 2.0 && req < 400) {
        req += 1;
        let tracer = if req % 2 == 0 { t } else { &off };
        let out = env.work.join("warm_out");
        let start = Instant::now();
        let counts = sweep(env, tracer, req, &cache, &out)?;
        let ms = secs(start) * 1e3;
        if req % 2 == 0 {
            traced.push(ms)
        } else {
            untraced.push(ms)
        }
        // The manifests differ on purpose: the fill was all misses.
        let same = same_artifacts(&fill, &out);
        checks.check(counts.misses == 0 && counts.hits > 0 && same, || {
            format!(
                "warm replay {req}: {} hits, {} misses, same artifacts: {same}",
                counts.hits, counts.misses
            )
        });
    }
    Ok(Replay {
        untraced_ms: median(untraced),
        traced_ms: median(traced),
    })
}

/// Every artifact but the manifest byte-identical.
fn same_artifacts(a: &Path, b: &Path) -> bool {
    let read = |d: &Path| -> Option<Vec<(std::ffi::OsString, Vec<u8>)>> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(d).ok()? {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_os_string();
            if name != "manifest.json" {
                files.push((name, std::fs::read(&path).ok()?));
            }
        }
        files.sort();
        Some(files)
    };
    matches!((read(a), read(b)), (Some(x), Some(y)) if x == y)
}

/// One `POST /run` handled in-process the way the daemon handles it: compile
/// the document, plan it under `seed`, run it on the shared pool and render
/// the body. Returns (body, cache counts, units).
pub fn request(
    t: &Tracer,
    parent: Option<usize>,
    req: u64,
    pool: &UnitPool,
    cache: Option<&UnitCache>,
    doc: &str,
    seed: u64,
) -> Result<(String, CacheCounts, usize), String> {
    let scenario = t.span("spec.compile", parent, req, |_| {
        parse_spec(doc).map(ScenarioSpec::into_scenario)
    })?;
    let plan = t.span("scenario.plan", parent, req, |_| {
        scenario.plan(&SeedPolicy::new(seed))
    });
    let units = plan.unit_count();
    let mut outcomes = t.span("exec.run", parent, req, |_| {
        pool.run_plans_cached(vec![plan], cache)
    })?;
    let outcome = outcomes.pop().ok_or("a one-plan run returned no outcome")?;
    let body = t.span("report.render", parent, req, |_| outcome.report.to_json());
    Ok((body, outcome.cache, units))
}

/// The serve request path in-process on a persistent pool with a disk cache,
/// two threads sharing the first half of the seeded schedule (whole blocks);
/// untraced pass, then traced pass, each on a fresh pool and cache so the
/// cold requests stay cold.
pub fn serve_mixed(env: &Env, t: &Tracer, checks: &mut Checks) -> Result<Replay, String> {
    let docs = &env.docs;
    let items = &env.schedule[..env.schedule.len() / 2];
    let off = Tracer::new(false);
    let mut walls = Vec::new();
    for (pass, tracer) in [(0u64, &off), (1, t)] {
        let pool = UnitPool::new(JOBS);
        let cache = UnitCache::open(&env.fresh_dir(&format!("serve_cache{pass}"))?)?;
        let mut warm_bodies = Vec::new();
        for (_, doc) in docs {
            warm_bodies.push(request(&off, None, 0, &pool, Some(&cache), doc, env.seed)?.0);
        }
        let next = AtomicUsize::new(0);
        let failures = Mutex::new(Vec::new());
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..JOBS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(doc, cold_seed)) = items.get(i) else {
                        break;
                    };
                    let req = pass * 1_000_000 + i as u64;
                    let got = tracer.span("request", None, req, |root| {
                        let seed = cold_seed.unwrap_or(env.seed);
                        request(tracer, root, req, &pool, Some(&cache), &docs[doc].1, seed)
                    });
                    let problem = match got {
                        Err(e) => Some(e),
                        Ok((body, c, units)) => {
                            let units = units as u64;
                            let ok = match cold_seed {
                                None => c.hits == units && body == warm_bodies[doc],
                                Some(_) => c.misses == units,
                            };
                            (!ok).then(|| {
                                format!(
                                    "{} seed {cold_seed:?}: hits {} misses {}",
                                    docs[doc].0, c.hits, c.misses
                                )
                            })
                        }
                    };
                    if let Some(p) = problem {
                        failures.lock().unwrap_or_else(|p| p.into_inner()).push(p);
                    }
                });
            }
        });
        walls.push(secs(start) * 1e3 / items.len().max(1) as f64);
        checks.record(
            items.len(),
            failures.into_inner().unwrap_or_else(|p| p.into_inner()),
        );
    }
    Ok(Replay {
        untraced_ms: walls[0],
        traced_ms: walls[1],
    })
}

pub fn print_layers(workload: &str, layers: &Layers, replay: &Replay) {
    let roots = layers.roots.max(1) as f64;
    eprintln!(
        "layers: {workload} — {} root span(s) of {:.4} ms mean; pass wall per root {:.4} ms \
         traced, {:.4} ms untraced, tracing overhead {:.4} ms",
        layers.roots,
        layers.roots_ms / roots,
        replay.traced_ms,
        replay.untraced_ms,
        replay.traced_ms - replay.untraced_ms
    );
    eprintln!(
        "  {:<18} {:>12} {:>8} {:>8}",
        "layer", "ms/root", "share", "calls"
    );
    let total = layers.roots_ms.max(f64::MIN_POSITIVE);
    for (name, ms, calls) in &layers.rows {
        eprintln!(
            "  {name:<18} {:>12.4} {:>7.2}% {calls:>8}",
            ms / roots,
            100.0 * ms / total
        );
    }
    let un = layers.unattributed_ms();
    eprintln!(
        "  {:<18} {:>12.4} {:>7.2}%",
        "unattributed",
        un / roots,
        100.0 * un / total
    );
}
