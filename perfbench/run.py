#!/usr/bin/env python3
"""Repo benchmark: time per step of an RBC slab and of the paper's
cylindrical cell, on felis's serial backend.

    python3 perfbench/run.py --workload rbc_large_serial --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the felis libraries and
the measurement program (perfbench/felis_perfbench.cpp) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. `--trace 0` reports
the end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer metrics
of a separate traced run. Human-readable lines go first; the last line of
standard output is the result object. A wrong output exits with 1, a
missing source tree or a failed build with 2.

See perfbench/README.md for what each workload and metric measures.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rbc_large_serial", "rbc_cyl_serial")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure once, then (re)build felis_perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"felis sources not found under {ROOT}/src; run from a checkout "
             "of the repository")
    configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [] if os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")) else [configure]
    steps.append(["cmake", "--build", out_dir, "--target", "felis_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "felis_perfbench")


def clean_env():
    """No backend, tuning-cache, fault or OpenMP setting may leak in from the
    caller's environment: the workload's params alone configure the run."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("FELIS_", "OMP_", "GOMP_"))}


def source_digest():
    """Digest of the sources the benchmark program is built from (src/ and
    perfbench/, without their Markdown). Exact counts are compared only
    between runs of the same code: a change may legitimately move
    iterations, reductions or flops."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".md"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()[:16]


def check_exact(exact, path, errors):
    """Exact counts must repeat across every run of one workload and seed
    on one version of the code."""
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    for key, value in exact.items():
        if key in seen and seen[key] != value:
            errors.append(f"exact count {key} = {value}, an earlier run of this "
                          f"workload and seed had {seen[key]}")
        seen.setdefault(key, value)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"{spec_path} not found")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    work = os.path.join(out_dir, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    out_json = os.path.join(work, f"result-{os.getpid()}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", "traced" if args.trace else "timed",
           "--work-dir", work, "--out", out_json]
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=sys.stderr,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"felis_perfbench did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0 or not os.path.isfile(out_json):
        fail(f"felis_perfbench exited with {proc.returncode}", 1)
    with open(out_json) as f:
        raw = json.load(f)
    os.remove(out_json)

    errors = list(raw["errors"])
    check_exact(raw["exact"],
                os.path.join(out_dir, "perfbench-exact",
                             f"{args.workload}-{args.seed}-{source_digest()}.json"),
                errors)
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            errors.append(f"metric {m['name']} missing or not finite")
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'} run")
    # Every figure felis_perfbench measured; the result object keeps only the
    # metrics BENCHMARK.json names for this mode.
    for name, m in raw["metrics"].items():
        value = float("nan") if m["value"] is None else m["value"]
        print(f"  {name:34s} {value:14.6g} {m['unit']:10s} n={m['samples']}")
    print(f"  {'fail_ratio':34s} {failed / max(attempted, 1):14.6g} {'ratio':10s} "
          f"n={attempted}")
    for e in errors:
        print(f"  WRONG OUTPUT: {e}")
    result = {
        "correct": not errors,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if not errors else 1)


if __name__ == "__main__":
    main()
