//! CLI-level conformance for `pim-tradeoffs serve`, through the real binary and
//! real sockets: a served preset spec is byte-identical to `run --spec` output
//! (cold and warm), and SIGKILLing the daemon mid-request leaves the shared
//! cache unpoisoned — a subsequent CLI run over the same directory completes
//! with zero recomputations and byte-identical artifacts. A running daemon serves
//! units a CLI run stored in its cache after it started. A daemon that runs out
//! of file descriptors keeps serving once its deadlines free some, one asked for
//! more workers than the host can start exits with an error instead of a panic,
//! and hostile bodies (deep nesting, huge strings, `measured` geometries and
//! count axes too large to allocate) get a prompt 400.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test; the deadlines that bound a spawned binary are wall time, outside any unit"
)]

use std::io::BufRead;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};
use tiny_http::client;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pim-tradeoffs"))
}

/// Run the CLI expecting success; return (stdout, stderr).
fn expect_ok(args: &[&str]) -> (String, String) {
    let out: Output = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "`pim-tradeoffs {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-cli-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn p(path: &Path) -> String {
    path.to_string_lossy().to_string()
}

/// A preset spec shipped with the repo (10 × 11 grid = 110 analytic units).
fn preset_spec() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs/node_scaling.json")
}

/// The `serve` arguments of a test daemon: an OS-assigned port, no request log.
fn serve_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--quiet", "1"];
    args.extend_from_slice(extra);
    args
}

/// The daemon under test; killed (and reaped) on drop so a failing assertion
/// never leaks a listener.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    /// Start `pim-tradeoffs serve` on an OS-assigned port and parse the bound
    /// address from its first stdout line.
    fn start(extra: &[&str]) -> Daemon {
        Daemon::start_with(extra, Stdio::null())
    }

    /// [`Daemon::start`] with stderr captured, for tests that assert on the
    /// drain summary.
    fn start_piped(extra: &[&str]) -> Daemon {
        Daemon::start_with(extra, Stdio::piped())
    }

    fn start_with(extra: &[&str], stderr: Stdio) -> Daemon {
        let mut cmd = bin();
        cmd.args(serve_args(extra)).stderr(stderr);
        Daemon::spawn(cmd)
    }

    /// Run `cmd`, which starts a daemon, and parse the bound address from its
    /// first stdout line.
    fn spawn(mut cmd: Command) -> Daemon {
        let mut child = cmd.stdout(Stdio::piped()).spawn().expect("daemon starts");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon announces its address");
        let addr = line
            .trim()
            .strip_prefix("serving on ")
            .unwrap_or_else(|| panic!("unexpected announcement '{line}'"))
            .to_string();
        Daemon {
            child: Some(child),
            addr,
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon alive").id()
    }

    fn is_running(&mut self) -> bool {
        let child = self.child.as_mut().expect("daemon alive");
        child.try_wait().expect("daemon status").is_none()
    }

    fn kill(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Wait for the daemon to exit on its own, collecting captured streams.
    fn wait_with_output(mut self) -> Output {
        self.child
            .take()
            .expect("daemon alive")
            .wait_with_output()
            .expect("daemon exits")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

#[test]
fn served_preset_is_byte_identical_to_cli_run_cold_and_warm() {
    let base = temp_base("identity");
    let cache = base.join("cache");
    let spec = preset_spec();
    let body = std::fs::read(&spec).expect("preset spec exists");

    let daemon = Daemon::start(&["--cache", &p(&cache)]);
    let cold = client::request(&daemon.addr, "POST", "/run", &[], &body).expect("cold submit");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-pim-cache-hits"), Some("0"));

    // The CLI reference for the same spec and (default) seed. `--no-cache`
    // keeps the comparison independent of the daemon's cache directory.
    let (cli_stdout, _) = expect_ok(&["run", "--spec", &p(&spec), "--no-cache"]);
    assert_eq!(
        String::from_utf8_lossy(&cold.body),
        cli_stdout,
        "served artifact differs from `run --spec` output"
    );

    // Warm re-submit: all units hit, body byte-identical.
    let warm = client::request(&daemon.addr, "POST", "/run", &[], &body).expect("warm submit");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-pim-cache-misses"), Some("0"));
    assert_eq!(warm.header("x-pim-cache-recomputed"), Some("0"));
    assert_eq!(warm.body, cold.body);

    // A third submission is answered from the response memo: the same bytes
    // and all-hit accounting.
    let repeat = client::request(&daemon.addr, "POST", "/run", &[], &body).expect("repeat");
    assert_eq!(repeat.status, 200);
    assert_eq!(repeat.header("x-pim-cache-hits"), Some("110"));
    assert_eq!(repeat.header("x-pim-units"), Some("110"));
    assert_eq!(String::from_utf8_lossy(&repeat.body), cli_stdout);

    // The daemon's cache is a normal unit cache: a CLI run over it is all-hits.
    let (_, cli_warm_err) = expect_ok(&["run", "--spec", &p(&spec), "--cache", &p(&cache)]);
    assert!(
        cli_warm_err.contains("110 hit(s), 0 miss(es), 0 recomputed"),
        "CLI run over the daemon's cache was not all-hits: {cli_warm_err}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_running_daemon_serves_units_a_cli_run_stored_after_it_started() {
    let base = temp_base("shared");
    let cache = base.join("cache");
    let spec = preset_spec();
    let body = std::fs::read(&spec).expect("preset spec exists");

    // The daemon opens (and indexes) the cache first; the CLI fills it later.
    let daemon = Daemon::start(&["--cache", &p(&cache)]);
    let (cli_stdout, cli_err) = expect_ok(&["run", "--spec", &p(&spec), "--cache", &p(&cache)]);
    assert!(cli_err.contains("0 hit(s), 110 miss(es)"), "{cli_err}");

    let served = client::request(&daemon.addr, "POST", "/run", &[], &body).expect("submit");
    assert_eq!(served.status, 200);
    assert_eq!(served.header("x-pim-cache-hits"), Some("110"));
    assert_eq!(served.header("x-pim-cache-misses"), Some("0"));
    assert_eq!(served.header("x-pim-cache-recomputed"), Some("0"));
    assert_eq!(String::from_utf8_lossy(&served.body), cli_stdout);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sigterm_drains_gracefully_with_exit_zero_and_summary() {
    let base = temp_base("drain");
    let cache = base.join("cache");
    let spec = preset_spec();
    let body = std::fs::read(&spec).expect("preset spec exists");

    let daemon = Daemon::start_piped(&["--cache", &p(&cache), "--workers", "2"]);
    // One real request before the drain, so the summary has work to report.
    let resp = client::request(&daemon.addr, "POST", "/run", &[], &body).expect("submit");
    assert_eq!(resp.status, 200);

    // A real SIGTERM, as an init system or orchestrator would send it.
    let status = Command::new("kill")
        .args(["-TERM", &daemon.pid().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");

    let out = daemon.wait_with_output();
    assert!(
        out.status.success(),
        "graceful drain must exit 0, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("drained:") && stderr.contains("request(s) served"),
        "no drain summary on stderr: {stderr}"
    );

    // The drained daemon's cache is a normal unit cache: a CLI run over it is
    // all-hits with nothing recomputed.
    let (_, warm_err) = expect_ok(&["run", "--spec", &p(&spec), "--cache", &p(&cache)]);
    assert!(
        warm_err.contains("110 hit(s), 0 miss(es), 0 recomputed"),
        "CLI run over the drained daemon's cache was not all-hits: {warm_err}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sigkill_mid_request_leaves_the_cache_unpoisoned() {
    let base = temp_base("kill");
    let cache = base.join("cache");
    // Heavy enough (256 measured units, ~seconds in a debug build) that the
    // SIGKILL below lands mid-computation, with stores in flight.
    let spec = base.join("heavy.json");
    std::fs::write(
        &spec,
        r#"{
            "schema_version": 1,
            "name": "serve_kill_probe",
            "description": "heavy measured sweep for kill-mid-request testing",
            "model": "measured",
            "config": {"ops": 400000},
            "grid": {
                "patterns": [
                    {"UniformRandom": {"footprint": 4194304, "line": 64}},
                    {"Zipf": {"footprint": 4194304, "line": 64, "exponent": 1.2}}
                ],
                "memory_fractions": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
            },
            "replications": 16,
            "columns": ["pattern", "host_miss_rate", "row_hit_rate",
                        "mean_dram_latency_ns", "achieved_gbit_per_s"]
        }"#,
    )
    .unwrap();
    let body = std::fs::read(&spec).unwrap();

    let mut daemon = Daemon::start(&["--cache", &p(&cache), "--jobs", "2"]);
    let addr = daemon.addr.clone();
    let submit = std::thread::spawn(move || {
        // The daemon dies mid-response: any outcome (error or truncated body)
        // is acceptable here — the assertions live on the cache state below.
        let _ = client::request(&addr, "POST", "/run", &[], &body);
    });
    std::thread::sleep(std::time::Duration::from_millis(1500));
    daemon.kill();
    submit.join().unwrap();

    // The cache must be unpoisoned: a CLI run over the same directory succeeds,
    // recomputes nothing (no corrupt entries — interrupted stores are invisible
    // thanks to tmp-file + atomic-rename publication), and produces an artifact
    // byte-identical to a cache-free reference run.
    let (warm_stdout, warm_err) = expect_ok(&["run", "--spec", &p(&spec), "--cache", &p(&cache)]);
    assert!(
        warm_err.contains("0 recomputed"),
        "interrupted daemon left corrupt cache entries: {warm_err}"
    );
    let (reference_stdout, _) = expect_ok(&["run", "--spec", &p(&spec), "--no-cache"]);
    assert_eq!(
        warm_stdout, reference_stdout,
        "artifact over the interrupted cache differs from the cache-free reference"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn daemon_survives_descriptor_exhaustion() {
    // 32 descriptors, and more idle connections than that: accept() fails with
    // EMFILE until the 200 ms read deadline reaps idle sockets. The daemon must
    // ride that out and answer again, not exit on the first failed accept.
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "ulimit -n 32 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_pim-tradeoffs"))
        .args(serve_args(&["--workers", "2", "--timeout-ms", "200"]))
        .stderr(Stdio::null());
    let mut daemon = Daemon::spawn(cmd);
    // A daemon that dies of the first EMFILE refuses the later connections.
    let idle: Vec<TcpStream> = (0..64)
        .map_while(|_| TcpStream::connect(&daemon.addr).ok())
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            daemon.is_running(),
            "daemon exited while its descriptors were exhausted"
        );
        // Queued behind the idle connections, a probe may also get a 503
        // (queue full) or a 408; only a 200 proves the daemon is serving.
        let answered = client::request(&daemon.addr, "GET", "/healthz", &[], b"")
            .is_ok_and(|r| r.status == 200);
        if answered {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no /healthz 200 within 60 s of exhausting the daemon's descriptors"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(daemon.is_running());
    drop(idle);
}

#[test]
fn more_workers_than_the_host_can_start_is_an_error_not_a_panic() {
    // A 3 GB address space holds about 1,400 default 2 MiB thread stacks, so
    // the host refuses a thread long before 5000 workers have started.
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "ulimit -v 3000000 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_pim-tradeoffs"))
        .args(serve_args(&["--workers", "5000"]))
        .env_remove("RUST_MIN_STACK")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("daemon starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("daemon status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("5000 workers started under a 3 GB address-space limit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("daemon output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains("of 5000 workers")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn hostile_json_bodies_get_a_400_and_the_daemon_keeps_serving() {
    // 64 KiB of `[` once overflowed a worker's stack and aborted the whole
    // daemon; a 1 MiB unterminated string cost tens of seconds of parse time.
    let daemon = Daemon::start(&["--workers", "2"]);
    let deep = "[".repeat(64 << 10);
    let long = format!("{{\"name\":\"{}", "x".repeat(1 << 20));
    for (what, body) in [("deep nesting", &deep), ("long string", &long)] {
        let started = Instant::now();
        let resp = client::request(&daemon.addr, "POST", "/run", &[], body.as_bytes())
            .unwrap_or_else(|e| panic!("{what}: no response: {e}"));
        assert_eq!(resp.status, 400, "{what}");
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains("not valid JSON"), "{what}: {text}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{what}: rejected only after {:?}",
            started.elapsed()
        );
        let health = client::request(&daemon.addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(health.status, 200, "{what}: daemon unhealthy afterwards");
    }
}

#[test]
fn measured_geometries_too_large_to_allocate_get_a_400_and_the_daemon_keeps_serving() {
    // Each passed validation and then aborted the daemon on a failed
    // allocation (137 GB of Zipf table, ~96 GiB and 16 TiB of cache tags).
    let daemon = Daemon::start(&["--workers", "2"]);
    let spec = |config: &str, pattern: &str| {
        format!(
            r#"{{"schema_version": 1, "name": "oversized", "description": "d",
                "model": "measured", "config": {{{config}}},
                "grid": {{"patterns": [{pattern}], "memory_fractions": [0.3]}}}}"#
        )
    };
    let sequential = r#"{"Sequential": {"stride": 64}}"#;
    for (field, body) in [
        (
            "footprint",
            spec(
                "",
                r#"{"Zipf": {"footprint": 17179869184, "line": 1, "exponent": 1.0}}"#,
            ),
        ),
        (
            "cache_bytes",
            spec(r#""cache_bytes": 1099511627776"#, sequential),
        ),
        (
            "cache_ways",
            spec(r#""cache_ways": 1099511627776"#, sequential),
        ),
    ] {
        let resp = client::request(&daemon.addr, "POST", "/run", &[], body.as_bytes())
            .unwrap_or_else(|e| panic!("{field}: no response: {e}"));
        assert_eq!(resp.status, 400, "{field}");
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains(field), "{field}: {text}");
    }
    let health = client::request(&daemon.addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!(health.status, 200, "daemon unhealthy afterwards");
}

#[test]
fn count_axes_too_large_to_allocate_get_a_400_and_the_daemon_keeps_serving() {
    // Each passed validation and then aborted the daemon on a failed
    // allocation (16 TB of parcel reply queues, 32 TB of parcel node outcomes,
    // 8 TB of simulated analytic thread shares). The address-space limit makes
    // such a request fail whatever the host's overcommit policy.
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_pim-tradeoffs"))
        .args(serve_args(&["--workers", "2"]))
        .stderr(Stdio::null());
    let daemon = Daemon::spawn(cmd);
    let parcels = |nodes: &str, parallelism: &str| {
        format!(
            r#"{{"schema_version": 1, "name": "oversized", "description": "d",
                "model": "parcels",
                "grid": {{"node_counts": [{nodes}], "parallelisms": [{parallelism}],
                          "latencies": [1000.0], "remote_fractions": [0.2]}}}}"#
        )
    };
    let analytic = r#"{"schema_version": 1, "name": "oversized", "description": "d",
        "model": "analytic", "config": {"mode": {"simulated": {}}},
        "grid": {"node_counts": [1000000000000], "lwp_fractions": [0.5]}}"#;
    for (axis, body) in [
        ("parallelisms", parcels("1", "1000000000000")),
        ("node_counts", parcels("1000000000000", "1")),
        ("node_counts", analytic.to_string()),
    ] {
        let resp = client::request(&daemon.addr, "POST", "/run", &[], body.as_bytes())
            .unwrap_or_else(|e| panic!("{axis}: no response: {e}"));
        assert_eq!(resp.status, 400, "{axis}");
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains(axis), "{axis}: {text}");
    }
    let health = client::request(&daemon.addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!(health.status, 200, "daemon unhealthy afterwards");
}
