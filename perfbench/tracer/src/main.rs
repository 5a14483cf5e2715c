//! `perfbench-tracer` — the benchmark's traced run.
//!
//! ```text
//! perfbench-tracer --workload NAME --seed S --seconds N --cli PATH --specs DIR
//!                  --schedule FILE --work DIR --trace-out FILE
//! ```
//!
//! Replays one workload through the public `pim_harness` API with a span
//! around every call into a layer, once untraced and once traced, then runs
//! the per-layer probes (see `probes`). Prints the layers table to stderr and,
//! as its last stdout line, `{"correct", "attempted", "failed", "metrics",
//! "errors"}` with plain metric values. `--seed` is the harness base seed.
//! Every time is host time; no simulated time is reported.

mod probes;
mod replay;
mod trace;

use pim_harness::prelude::*;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Compute permits of every pool the replays build, like `--jobs 2`.
pub const JOBS: usize = 2;

/// Inputs shared by the replays and probes.
pub struct Env {
    pub cli: PathBuf,
    pub specs: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// The preset spec documents as (file stem, text), sorted by path.
    pub docs: Vec<(String, String)>,
    /// The seeded `serve_mixed` schedule run.py wrote: (document index into
    /// `docs`, cold seed) per request, whole blocks, warm requests unseeded.
    pub schedule: Vec<(usize, Option<u64>)>,
}

impl Env {
    /// A fresh (emptied) directory under the work directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Output checks: every check is one attempted operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// `total` operations of which `failures` failed.
    pub fn record(&mut self, total: usize, failures: Vec<String>) {
        self.attempted += total as u64;
        self.failed += failures.len() as u64;
        let room = 20usize.saturating_sub(self.errors.len());
        self.errors.extend(failures.into_iter().take(room));
    }
}

fn load_docs(specs: &Path) -> Result<Vec<(String, String)>, String> {
    spec_files(specs)?
        .into_iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
            let stem = p.file_stem().map(|s| s.to_string_lossy().into_owned());
            Ok((stem.unwrap_or_default(), text))
        })
        .collect()
}

/// Read the schedule file: a JSON array of `[document stem, cold seed or null]`.
fn load_schedule(
    path: &Path,
    docs: &[(String, String)],
) -> Result<Vec<(usize, Option<u64>)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let bad = || format!("{}: expected [[stem, seed or null], ...]", path.display());
    let Value::Seq(items) =
        serde_json::value_from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?
    else {
        return Err(bad());
    };
    items
        .iter()
        .map(|item| {
            let Value::Seq(pair) = item else {
                return Err(bad());
            };
            let (Some(Value::Str(stem)), Some(seed)) = (pair.first(), pair.get(1)) else {
                return Err(bad());
            };
            let doc = docs
                .iter()
                .position(|(s, _)| s == stem)
                .ok_or_else(|| format!("unknown document {stem}"))?;
            let seed = match seed {
                Value::Null => None,
                Value::U64(s) => Some(*s),
                _ => return Err(bad()),
            };
            Ok((doc, seed))
        })
        .collect()
}

/// Metric name → value, in emission order.
pub type Metrics = Vec<(&'static str, f64)>;

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The CLI's registry for `--spec DIR`: builtins plus the preset specs, and
/// every registered name in registry order (what `run --all` runs).
pub fn registry(env: &Env) -> Result<(Registry, Vec<String>), String> {
    let mut registry = Registry::builtin();
    register_spec_files(&mut registry, &env.specs)?;
    let names = registry.names().iter().map(|n| n.to_string()).collect();
    Ok((registry, names))
}

/// Plan `names` under `seeds`.
pub fn plans<'r>(
    registry: &'r Registry,
    names: &[String],
    seeds: &SeedPolicy,
) -> Result<Vec<ScenarioPlan<'r>>, String> {
    names
        .iter()
        .map(|n| {
            registry
                .get(n)
                .map(|s| s.plan(seeds))
                .ok_or_else(|| format!("scenario {n} is not registered"))
        })
        .collect()
}

struct Args {
    workload: String,
    trace_out: PathBuf,
    env: Env,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let at = raw
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        raw.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let seed = get("--seed")?;
    let seconds = get("--seconds")?;
    let specs = PathBuf::from(get("--specs")?);
    let docs = load_docs(&specs)?;
    let schedule = load_schedule(Path::new(&get("--schedule")?), &docs)?;
    Ok(Args {
        workload: get("--workload")?,
        trace_out: get("--trace-out")?.into(),
        env: Env {
            cli: get("--cli")?.into(),
            specs,
            work: get("--work")?.into(),
            seed: seed.parse().map_err(|_| format!("bad --seed {seed}"))?,
            seconds: seconds
                .parse()
                .map_err(|_| format!("bad --seconds {seconds}"))?,
            docs,
            schedule,
        },
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let env = &args.env;
    let mut checks = Checks::default();
    let mut metrics: Metrics = Vec::new();

    let tracer = trace::Tracer::new(true);
    let replay = match args.workload.as_str() {
        "cold_sweep" => replay::cold_sweep(env, &tracer, &mut checks)?,
        "warm_sweep" => replay::warm_sweep(env, &tracer, &mut checks)?,
        "serve_mixed" => replay::serve_mixed(env, &tracer, &mut checks)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let layers = tracer.layers();
    replay::print_layers(&args.workload, &layers, &replay);
    let per_root = layers.roots.max(1) as f64;
    metrics.push(("unattributed_ms", layers.unattributed_ms() / per_root));
    metrics.push(("trace.wall_ms", replay.traced_ms));
    metrics.push(("trace.overhead_ms", replay.traced_ms - replay.untraced_ms));

    probes::run_all(env, &mut checks, &mut metrics)?;

    let meta = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::U64(env.seed)),
    ];
    std::fs::write(&args.trace_out, tracer.chrome_json(meta)?)
        .map_err(|e| format!("write {}: {e}", args.trace_out.display()))?;
    eprintln!("trace: {}", args.trace_out.display());

    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(checks.failed == 0)),
        ("attempted".into(), Value::U64(checks.attempted)),
        ("failed".into(), Value::U64(checks.failed)),
        (
            "metrics".into(),
            Value::Map(
                metrics
                    .iter()
                    .map(|(n, v)| (n.to_string(), Value::F64(*v)))
                    .collect(),
            ),
        ),
        (
            "errors".into(),
            Value::Seq(checks.errors.into_iter().map(Value::Str).collect()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| format!("serialize result: {e}"))?
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-tracer: {message}");
            ExitCode::FAILURE
        }
    }
}
