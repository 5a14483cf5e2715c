"""Shared helpers: the percentile rule, metric-name grammar, digests and the
host fingerprint recorded with every result."""

import hashlib
import json
import math
import os
import platform
import re
import subprocess
from fractions import Fraction

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def valid_metric_name(name):
    return bool(METRIC_NAME.match(name))


def percentile(values, q):
    """Nearest-rank q-th percentile of `values`, or None when fewer than
    MIN_BEYOND samples lie strictly above the chosen rank."""
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(Fraction(str(q)) * n / 100))
    if n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def summarize(values, percentiles=(50, 90, 99, 99.9)):
    """Median plus every listed percentile the rule allows, with the count."""
    out = {"n": len(values)}
    for q in percentiles:
        value = median(values) if q == 50 else percentile(values, q)
        if q != 50 and value is None:
            continue
        if q == 50 and percentile(values, 50) is None:
            out["p50_below_rule"] = True
        out[f"p{q:g}"] = value
    return out


def digest_dir(path, exclude=("manifest.json",)):
    """sha256 over the sorted (file name, bytes) pairs of a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name in exclude:
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root):
    """Digest of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            paths.extend(os.path.join(dirpath, n) for n in sorted(filenames))
        for p in paths:
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


# The fields that must match for two results to be comparable: the same host
# class, toolchain and build profile. The revision is recorded, not compared.
HOST_KEYS = ("cores", "cpu_model", "rustc", "profile")


def fingerprint(root, profile="release"):
    rev = _first_line(["git", "-C", root, "rev-parse", "HEAD"])
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": _first_line(["rustc", "-V"]) or "unknown",
        "profile": profile,
        "git_rev": rev,
        "source_digest": source_digest(root),
    }


def comparable(a, b):
    """None when two fingerprints describe the same host, else the reason."""
    diffs = [k for k in HOST_KEYS if a.get(k) != b.get(k)]
    if diffs:
        return "fingerprints differ in " + ", ".join(
            f"{k} ({a.get(k)!r} vs {b.get(k)!r})" for k in diffs
        )
    return None


def load_json(path):
    with open(path) as f:
        return json.load(f)
