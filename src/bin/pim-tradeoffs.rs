//! `pim-tradeoffs` — command-line front end to the PIM design-tradeoff models.
//!
//! Five commands: `list` and `run` front the scenario registry in `pim-harness`
//! (builtins plus declarative specs, see `pim_harness::spec`), `serve` runs the same
//! sweep as an HTTP service (`pim_harness::serve`), `cache` maintains and assembles
//! unit-result cache directories (`pim_harness::cache`), and `spec check` validates
//! spec files without running them. Every model is reached through a scenario or a
//! spec, so the spec validator is the one input gate. `pim-tradeoffs --help` prints
//! the grammar (`USAGE` below is its only copy). Argument parsing is intentionally
//! hand-rolled (no CLI dependency): every flag is `--name value` and unknown flags
//! are an error.

use pim_repro::pim_audit::diag::{self, Diagnostic};
use pim_repro::pim_harness::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
pim-tradeoffs — PIM architecture design-tradeoff models (SC 2004 reproduction)

USAGE:
  pim-tradeoffs list    [--spec FILE|DIR]
  pim-tradeoffs run     SCENARIO... [--spec FILE|DIR] [--jobs N] [--out DIR] [--seed S]
  pim-tradeoffs run     --all [--spec FILE|DIR] [--jobs N] [--out DIR] [--seed S]
  pim-tradeoffs run     --spec FILE|DIR [--jobs N] [--out DIR] [--seed S]
  pim-tradeoffs run     ... [--cache DIR] [--no-cache] [--shard I/N]
  pim-tradeoffs serve   [--addr HOST:PORT] [--cache DIR] [--jobs N] [--seed S] [--quiet 0|1]
                        [--workers N] [--timeout-ms MS] [--drain-ms MS]
  pim-tradeoffs cache   stats DIR | gc DIR [--max-mib N] | clear DIR
  pim-tradeoffs cache   merge DEST SRC... | pull DEST SRC
  pim-tradeoffs spec    check FILE|DIR...

`list` names every registered scenario. `run` executes scenarios in parallel worker
threads and either prints their JSON reports (no --out) or writes one artifact per
scenario plus a manifest under DIR; artifacts are byte-identical for a given --seed
whatever --jobs is. `--cache DIR` makes the run incremental: per-unit results are
served from and stored to a content-addressed cache, so a warm re-run recomputes only
what changed (the manifest records per-scenario hits/misses); `--no-cache` forces a
full recompute, and `cache stats|gc|clear` maintains a cache directory. `--shard
I/N` runs only the I-th of N deterministic unit partitions (1-based; requires
--cache or --out): N shard invocations split one sweep across processes or
machines, `cache merge DEST SRC...` copies their cache entries into DEST (`cache
pull DEST SRC` is the one-source form), and a final unsharded run over the merged
cache is all-hits and writes artifacts byte-identical to a single-process run.
`gc --max-mib 0` is a deliberate full-eviction pass: a zero-byte budget puts every
entry over budget.
`serve` turns the sweep into a service: POST a spec document to /run (the same JSON
`run --spec FILE` reads; `?seed=S` overrides the base seed, `?progress=1` streams
ndjson progress) and get back the report, byte-identical to the CLI's output for the
same spec and seed. All requests share one persistent scheduler — warm results are
served from memory and the `--cache` directory, and concurrent submissions that
overlap deduplicate per unit, computing each grid point exactly once (--quiet 1
silences the per-request stderr log; --quiet 0, the default, keeps it). Connections
are handled by a bounded pool of --workers threads over a bounded pending queue: at
saturation new connections get 503 + Retry-After instead of stacking threads, silent
clients are reaped after --timeout-ms, GET /metrics exposes the service counters,
and SIGTERM/SIGINT drains gracefully (stop accepting, finish in-flight work up to
--drain-ms, exit 0 with a summary on stderr; /healthz reports 503 draining
meanwhile).
`--spec` loads user-defined scenario specs (schema v1 JSON; see examples/specs/) into the
registry beside the 13 builtins; `run --spec DIR` with no scenario names runs exactly
the spec-defined scenarios, and `spec check` validates spec files without running
anything. A single design point is a one-point spec: `run --spec FILE` with one value
per grid axis (the `analytic` and `parcels` families; see examples/specs/).";

/// Parsed `--flag value` arguments.
struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `--flag value` pairs plus bare positional arguments (scenario names).
    fn parse_mixed(raw: &[String]) -> Result<(Vec<String>, Args), String> {
        let mut flags = HashMap::new();
        let mut positionals = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positionals.push(arg.clone());
                continue;
            };
            // A repeated flag is always a mistake (a typo'd sweep script, a stale
            // alias): reject it by name instead of silently letting the last
            // occurrence win.
            if name == "help" || name == "all" || name == "no-cache" {
                if flags.insert(name.to_string(), "true".to_string()).is_some() {
                    return Err(format!("flag --{name} given more than once"));
                }
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            if flags.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{name} given more than once"));
            }
        }
        Ok((positionals, Args { flags }))
    }

    /// An integer flag's value, or `default` when the flag is absent.
    fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got '{v}'")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), String> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }
}

/// The builtin registry, augmented with every spec named by `--spec` (a file or a
/// directory of `*.json`). Returns the registry plus the spec-defined names.
fn registry_with_specs(args: &Args) -> Result<(Registry, Vec<String>), String> {
    let mut registry = Registry::builtin();
    let mut spec_names = Vec::new();
    if let Some(path) = args.flags.get("spec") {
        // File-aware registration: a name collision between two spec files names
        // both paths, not just the duplicated scenario name.
        spec_names = register_spec_files(&mut registry, std::path::Path::new(path))?;
    }
    Ok((registry, spec_names))
}

fn cmd_list(positionals: &[String], args: &Args) -> Result<(), String> {
    no_positionals(positionals)?;
    args.reject_unknown(&["spec"])?;
    let (registry, _) = registry_with_specs(args)?;
    for scenario in registry.iter() {
        println!("{:<24} {}", scenario.name(), scenario.description());
    }
    Ok(())
}

fn cmd_run(scenarios: &[String], args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "all", "jobs", "out", "seed", "spec", "cache", "no-cache", "shard",
    ])?;
    let (registry, spec_names) = registry_with_specs(args)?;
    if args.has("all") && !scenarios.is_empty() {
        return Err("pass scenario names or --all, not both".into());
    }
    let names: Vec<String> = if args.has("all") {
        registry.names().iter().map(|s| s.to_string()).collect()
    } else if !scenarios.is_empty() {
        scenarios.to_vec()
    } else {
        // `run --spec DIR` with no names runs exactly the spec-defined scenarios.
        spec_names
    };
    if names.is_empty() {
        return Err("run needs scenario names, --all, or --spec (see `pim-tradeoffs list`)".into());
    }
    // `--no-cache` beats `--cache` so a wrapper script's standing cache flag can be
    // overridden for one forced-recompute run.
    let cache_dir = if args.has("no-cache") {
        None
    } else {
        args.flags.get("cache").map(std::path::PathBuf::from)
    };
    let shard = match args.flags.get("shard") {
        Some(s) => Some(ShardSpec::parse(s)?),
        None => None,
    };
    let opts = BatchOptions {
        jobs: args.get("jobs", 0)?,
        seeds: SeedPolicy::new(args.get("seed", DEFAULT_SEED)?),
        out_dir: args.flags.get("out").map(std::path::PathBuf::from),
        cache_dir,
        shard,
    };
    let outcome = run_batch(&registry, &names, &opts)?;
    if outcome.cache_enabled {
        let (mut hits, mut misses, mut recomputed) = (0, 0, 0);
        for c in &outcome.cache_counts {
            hits += c.hits;
            misses += c.misses;
            recomputed += c.recomputed;
        }
        eprintln!("cache: {hits} hit(s), {misses} miss(es), {recomputed} recomputed");
    }
    if let Some(shard) = outcome.shard {
        // A sharded run has no reports to print — its results live in the cache
        // (and the partial artifacts when --out is set); summarize the partition.
        for s in &outcome.shard_scenarios {
            println!(
                "{:<20} shard {shard}: executed {} of {} unit(s)",
                s.scenario,
                s.executed.len(),
                s.units_total
            );
        }
        for path in &outcome.written {
            eprintln!("wrote {}", path.display());
        }
        return Ok(());
    }
    if opts.out_dir.is_some() {
        for path in &outcome.written {
            eprintln!("wrote {}", path.display());
        }
        for report in &outcome.reports {
            let metrics: Vec<String> = report
                .metrics
                .iter()
                .map(|m| format!("{}={:.6}", m.name, m.value))
                .collect();
            println!(
                "{:<20} {} table(s){}{}",
                report.scenario,
                report.tables.len(),
                if metrics.is_empty() { "" } else { "; " },
                metrics.join(", ")
            );
        }
    } else if let [report] = outcome.reports.as_slice() {
        print!("{}", report.to_json());
    } else {
        let mut json = serde_json::to_string_pretty(&outcome.reports)
            .map_err(|e| format!("could not serialize reports: {e}"))?;
        json.push('\n');
        print!("{json}");
    }
    Ok(())
}

/// `cache stats|gc|clear DIR` / `cache merge DEST SRC...` / `cache pull DEST SRC`:
/// inspect, maintain and assemble unit-result cache directories.
fn cmd_cache(positionals: &[String], args: &Args) -> Result<(), String> {
    args.reject_unknown(&["max-mib"])?;
    let Some((sub, rest)) = positionals.split_first() else {
        return Err(
            "cache needs a subcommand: `cache stats|gc|clear DIR`, `cache merge DEST SRC...` \
             or `cache pull DEST SRC`"
                .into(),
        );
    };
    if args.has("max-mib") && sub != "gc" {
        return Err(format!(
            "--max-mib applies only to `cache gc`, not `cache {sub}`"
        ));
    }
    // The assembly verbs take multiple directories; handle them before the
    // single-directory maintenance verbs below.
    match sub.as_str() {
        "merge" => {
            let Some((dest, sources)) = rest.split_first() else {
                return Err("cache merge needs a destination and at least one source: \
                            `cache merge DEST SRC...`"
                    .into());
            };
            if sources.is_empty() {
                return Err("cache merge needs at least one source directory".into());
            }
            let sources: Vec<std::path::PathBuf> =
                sources.iter().map(std::path::PathBuf::from).collect();
            return print_merge(cache_merge(std::path::Path::new(dest), &sources)?);
        }
        "pull" => {
            let [dest, src] = rest else {
                return Err(
                    "cache pull needs exactly a destination and one source: `cache pull DEST SRC`"
                        .into(),
                );
            };
            let sources = vec![std::path::PathBuf::from(src)];
            return print_merge(cache_merge(std::path::Path::new(dest), &sources)?);
        }
        _ => {}
    }
    let [dir] = rest else {
        return Err(format!("cache {sub} needs exactly one cache directory"));
    };
    let dir = std::path::Path::new(dir);
    match sub.as_str() {
        "stats" => {
            let stats = pim_repro::pim_harness::cache::cache_stats(dir)?;
            println!("entries : {}", stats.entries);
            println!("bytes   : {}", stats.bytes);
            for (scenario, n) in &stats.per_scenario {
                println!("  {scenario:<32} {n}");
            }
            Ok(())
        }
        "gc" => {
            // `--max-mib 0` is a deliberate full-eviction pass (budget of zero
            // bytes: every entry is over budget), and huge values must not wrap
            // into a tiny budget that silently evicts everything.
            let budget = match args.flags.get("max-mib") {
                Some(_) => {
                    let mib: u64 = args.get("max-mib", 0)?;
                    Some(
                        mib.checked_mul(1024 * 1024)
                            .ok_or_else(|| format!("--max-mib {mib} overflows the byte budget"))?,
                    )
                }
                None => None,
            };
            let out = pim_repro::pim_harness::cache::cache_gc(dir, budget)?;
            println!(
                "scanned {} entr{}; removed {} invalid, {} over budget; {} bytes kept",
                out.scanned,
                if out.scanned == 1 { "y" } else { "ies" },
                out.removed_invalid,
                out.removed_for_size,
                out.bytes_after
            );
            Ok(())
        }
        "clear" => {
            let removed = pim_repro::pim_harness::cache::cache_clear(dir)?;
            println!(
                "removed {removed} entr{}",
                if removed == 1 { "y" } else { "ies" }
            );
            Ok(())
        }
        other => Err(format!(
            "unknown cache subcommand '{other}' (expected stats, gc, clear, merge or pull)"
        )),
    }
}

/// `serve`: run the sweep service — spec submissions over HTTP, executed on one
/// persistent unit pool with warm in-memory results, the on-disk unit cache and
/// single-flight deduplication shared across every client (see
/// `pim_harness::serve`). Prints the bound address (the way to learn the port
/// after `--addr host:0`) and then serves until killed.
fn cmd_serve(positionals: &[String], args: &Args) -> Result<(), String> {
    no_positionals(positionals)?;
    args.reject_unknown(&[
        "addr",
        "cache",
        "jobs",
        "seed",
        "quiet",
        "workers",
        "timeout-ms",
        "drain-ms",
    ])?;
    let opts = ServeOptions {
        addr: args
            .flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8787".to_string()),
        cache_dir: args.flags.get("cache").map(std::path::PathBuf::from),
        jobs: args.get("jobs", 0)?,
        seed: args.get("seed", DEFAULT_SEED)?,
        log: match args.flags.get("quiet").map(String::as_str) {
            None | Some("0") => true,
            Some("1") => false,
            Some(v) => return Err(format!("--quiet expects 0 or 1, got '{v}'")),
        },
        workers: args.get("workers", 0)?,
        timeout_ms: args.get("timeout-ms", 30_000)?,
        drain_ms: args.get("drain-ms", 5_000)?,
        // The CLI owns the process, so SIGTERM/SIGINT become a graceful
        // drain (stop accepting, finish in-flight work, exit 0).
        handle_signals: true,
        ..ServeOptions::default()
    };
    let server = SweepServer::bind(&opts)?;
    println!("serving on {}", server.local_addr()?);
    // Port discovery must not race the first client: flush before accepting.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let summary = server.serve_forever()?;
    eprintln!("serve: {summary}");
    Ok(())
}

/// Print a [`MergeOutcome`] summary line (shared by `cache merge` and `cache pull`).
fn print_merge(out: MergeOutcome) -> Result<(), String> {
    println!(
        "merged {} source(s): {} entr{} copied, {} already present, {} invalid skipped; \
         {} entr{} in destination",
        out.sources,
        out.copied,
        if out.copied == 1 { "y" } else { "ies" },
        out.skipped_existing,
        out.skipped_invalid,
        out.entries_after,
        if out.entries_after == 1 { "y" } else { "ies" },
    );
    Ok(())
}

/// `spec check PATH...`: parse, validate and dry-compile every spec, reporting one
/// line per spec and failing if any spec is invalid or collides with a registered
/// name (builtin or another checked spec).
fn cmd_spec(positionals: &[String], args: &Args) -> Result<(), String> {
    args.reject_unknown(&[])?;
    let Some((sub, paths)) = positionals.split_first() else {
        return Err("spec needs a subcommand: `spec check FILE|DIR...`".into());
    };
    if sub != "check" {
        return Err(format!(
            "unknown spec subcommand '{sub}' (expected 'check')"
        ));
    }
    if paths.is_empty() {
        return Err("spec check needs at least one file or directory".into());
    }
    let mut registry = Registry::builtin();
    // Failures accumulate as diagnostics and print through the shared pipeline
    // (pim_audit::diag), so `spec check` and `pim-audit` report in one format.
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut checked = 0usize;
    for path in paths {
        // Enumerate files first so one bad spec in a directory still lets every
        // other spec in it get its own ok/error line (and collision check).
        let files = match spec_files(std::path::Path::new(path)) {
            Ok(files) => files,
            Err(e) => {
                checked += 1;
                findings.push(Diagnostic::file_level("spec-check", path, e));
                continue;
            }
        };
        for file in files {
            checked += 1;
            let shown = file.display().to_string();
            let spec = match load_spec_file(&file) {
                Ok(spec) => spec,
                Err(e) => {
                    // load_spec_file prefixes its own path; the span already says it.
                    let msg = e
                        .strip_prefix(&format!("{shown}: "))
                        .map(str::to_string)
                        .unwrap_or(e);
                    findings.push(Diagnostic::file_level("spec-check", &shown, msg));
                    continue;
                }
            };
            let line = format!(
                "{:<24} {}: {} points x {} replications = {} units, {} columns",
                spec.name,
                spec.family(),
                spec.grid_points(),
                spec.replications,
                spec.units(),
                spec.output_columns().len()
            );
            match register_specs(&mut registry, vec![spec]) {
                Ok(_) => println!("ok   {line}"),
                Err(e) => findings.push(Diagnostic::file_level("spec-check", &shown, e)),
            }
        }
    }
    eprint!("{}", diag::render_human(&findings));
    let checked = format!("{checked} spec{}", if checked == 1 { "" } else { "s" });
    if findings.is_empty() {
        eprintln!("{}", diag::summary_line(&checked, 0, 0));
        Ok(())
    } else {
        Err(diag::summary_line(&checked, findings.len(), 0))
    }
}

/// Reject bare arguments for the commands that take none.
fn no_positionals(positionals: &[String]) -> Result<(), String> {
    match positionals.first() {
        Some(arg) => Err(format!(
            "unexpected argument '{arg}' (flags are --name value)"
        )),
        None => Ok(()),
    }
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let handler: fn(&[String], &Args) -> Result<(), String> = match command.as_str() {
        "list" => cmd_list,
        "run" => cmd_run,
        "spec" => cmd_spec,
        "serve" => cmd_serve,
        "cache" => cmd_cache,
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return Ok(());
        }
        other => return Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    let (positionals, args) = Args::parse_mixed(rest)?;
    if args.has("help") {
        println!("{USAGE}");
        return Ok(());
    }
    handler(&positionals, &args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
