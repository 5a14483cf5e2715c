#!/usr/bin/env python3
"""The repo benchmark: one workload per call, outputs checked, every metric
printed by name and unit.

    python3 perfbench/run.py --workload cold_sweep --seed 0 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json on the release
`pim-tradeoffs` binary. --trace 1 runs the separate traced replay (the
`perfbench-tracer` package in perfbench/tracer) and reports the per-layer
metrics. The last stdout line is the JSON result. A human summary, failed
checks and the path of the result record (which also holds the host
fingerprint) go to stderr. Paths resolve from the checkout root, which must
hold the repo sources.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import digest_dir, fingerprint, load_json, valid_metric_name  # noqa: E402
from workloads import (DEFAULT_SEED, PINNED_COLD_DIGEST, SPECS, WORKLOADS, Ctx,  # noqa: E402
                       write_schedule)

NEEDED = ("Cargo.toml", "Cargo.lock", "src/bin/pim-tradeoffs.rs", "crates/pim-harness", "examples/specs")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target_dir, log_path, tracer):
    """Build the CLI, and the tracer when asked, from source into target_dir.
    The untraced run never builds the tracer, so a library API change that
    breaks the tracer cannot stop the end-to-end measurement."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [["cargo", "build", "--release", "--offline", "--bin", "pim-tradeoffs"]]
    if tracer:
        steps.append(["cargo", "build", "--release", "--offline", "--manifest-path",
                      "perfbench/tracer/Cargo.toml"])
    with open(log_path, "wb") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=log).returncode != 0:
                with open(log_path, "rb") as f:
                    sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
                fail("build failed: " + " ".join(cmd), 1)
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "pim-tradeoffs"), os.path.join(release, "perfbench-tracer")


# Schedule blocks handed to the tracer: the replay runs the first half, the
# daemon probe's mixed load runs from the start until its time is up.
TRACE_BLOCKS = 48


def run_traced(tracer, cli, workload, ctx, trace_path):
    """The traced replay: per-layer metrics from the tracer's last stdout line."""
    schedule = ctx.path("schedule.json")
    write_schedule(schedule, ctx.seed, TRACE_BLOCKS)
    cmd = [tracer, "--workload", workload, "--seed", str(ctx.cli_seed),
           "--seconds", str(ctx.seconds), "--cli", cli, "--specs", SPECS,
           "--schedule", schedule, "--work", ctx.work, "--trace-out", trace_path]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=170)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"tracer exited {out.returncode}", 1)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a pim-repro checkout (missing " + ", ".join(missing) + ")")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r} (expected one of {', '.join(WORKLOADS)})")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    os.chdir(ROOT)
    state = os.path.join(ROOT, ".bench_work")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    cli, tracer = build(target_dir, os.path.join(state, "build.log"), args.trace)

    work = os.path.join(state, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Ctx(cli, work, args.seed, args.seconds)
    started = time.time()
    try:
        if args.trace:
            trace_path = os.path.join(state, f"trace-{args.workload}-{args.seed}.json")
            got = run_traced(tracer, cli, args.workload, ctx, trace_path)
            values, attempted, failed = got["metrics"], got["attempted"], got["failed"]
            errors, extra = got.get("errors", []), {"trace_file": trace_path}
            replayed = {"cold_sweep": "cold_out1", "warm_sweep": "warm_fill"}.get(args.workload)
            if replayed and ctx.cli_seed == DEFAULT_SEED:
                # The replay's artifacts must match what the CLI writes.
                attempted += 1
                if digest_dir(os.path.join(work, replayed)) != PINNED_COLD_DIGEST:
                    failed += 1
                    errors.append("traced replay artifacts differ from the pinned digest")
        else:
            res = WORKLOADS[args.workload](ctx)
            values, attempted, failed = res.metrics, res.attempted, res.failed
            errors, extra = res.errors, res.extra
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if sorted(values) != sorted(units) or not all(valid_metric_name(n) for n in values):
        fail(f"emitted metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}", 1)
    if not all(math.isfinite(v) for v in values.values()):
        fail(f"a metric is not a finite number: {values}", 1)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, started_unix=started, fingerprint=fingerprint(ROOT),
                  errors=errors, extra=extra)
    path = os.path.join(state, "results", f"{args.workload}-{args.seed}-t{args.trace}-{int(started)}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    for n in units:
        print(f"{n:28s} {values[n]:14.4f} {units[n]}", file=sys.stderr)
    for k, v in extra.items():
        print(f"{k}: {json.dumps(v)}", file=sys.stderr)
    print(f"result: {path}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
