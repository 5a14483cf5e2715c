#!/usr/bin/env python3
"""Compare two sets of benchmark results from one host.

    python3 perfbench/compare.py BASE.json... -- CAND.json...

Each file is a result record that run.py writes under .bench_work/results/.
Refuses (exit 2) when the records come from different hosts, toolchains or
build profiles (see common.HOST_KEYS), or mix workloads, trace modes or run
lengths. Otherwise prints, per metric, both medians, their ratio and the
base's quartile spread, and flags a median worse than BENCHMARK.json's bound.
"""

import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import comparable, load_json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base = [load_json(p) for p in argv[:cut]]
    cand = [load_json(p) for p in argv[cut + 1:]]
    if not base or not cand:
        print("need at least one result on each side", file=sys.stderr)
        return 2
    first = base[0]
    for r in base + cand:
        reason = comparable(first["fingerprint"], r["fingerprint"])
        if reason:
            print(f"refused: {reason}", file=sys.stderr)
            return 2
        for key in ("workload", "trace", "seconds"):
            if r[key] != first[key]:
                print(f"refused: results mix {key} values", file=sys.stderr)
                return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    print(f"{'metric':28s} {'base':>14s} {'cand':>14s} {'ratio':>8s} {'base IQR':>9s}")
    for name in first["metrics"]:
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in cand]
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        meta = declared.get(name, {})
        flag = ""
        bound = meta.get("bound")
        if bound is not None:
            lower_is_better = meta["better"] == "lower"
            if (lower_is_better and ratio > 1 + bound) or (not lower_is_better and ratio < 1 - bound):
                flag = "  WORSE than bound"
                worse += 1
        print(f"{name:28s} {ma:14.4f} {mb:14.4f} {ratio:8.3f} {spread(a):9.3f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
