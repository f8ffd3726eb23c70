#!/usr/bin/env python3
"""End-to-end benchmark of the k-Shape library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit_m128 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first call builds the library from ../src and the benchmark binary
(perfbench/kbench.cc) with CMake, in Release, under $CARGO_TARGET_DIR or
.bench_build. It then runs one workload for about --seconds and prints a
configuration line, the output checks and every metric with its unit and
sample count. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics
(the traced run also writes a Chrome trace file next to the build).

--selftest runs the traced run of every workload twice at one thread and
twice at every core, and fails unless every count-type per-layer metric is
identical across the four runs and no output check failed.

Seeds: 1 is the default; 7 is held out (use it only to confirm a claim made
on other seeds).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fit_m128", "shard_m512", "serve_m128")
# Fixed thread count of every measured run (KSHAPE_THREADS is overridden).
THREADS = 2
DEFAULT_SEED = 1
# A run must end within 180 s; the build of the first run may take longer.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configures and builds kbench; returns its path, or None on failure."""
    build_dir = build_root() / "perfbench"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    result = subprocess.run(configure, capture_output=True, text=True)
    if result.returncode != 0 and (build_dir / "CMakeCache.txt").exists():
        # A cache left by a checkout at another path: start over once.
        shutil.rmtree(build_dir)
        result = subprocess.run(configure, capture_output=True, text=True)
    if result.returncode == 0:
        jobs = str(min(4, os.cpu_count() or 1))
        result = subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "kbench",
             "-j", jobs], capture_output=True, text=True)
    if result.returncode != 0:
        log(result.stdout[-4000:] + result.stderr[-4000:])
        log("perfbench: build failed")
        return None
    return build_dir / "kbench"


def source_digest():
    """sha256 over the library sources, so runs of different code differ."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_describe():
    """`git describe` of this checkout; a checkout that is not itself a git
    work tree (even one nested inside another) reports "unavailable"."""
    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return "unavailable"
    return git("describe", "--always", "--dirty") or "unavailable"


def cmake_build_type(binary):
    cache = binary.parent / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def run_kbench(binary, workload, seed, seconds, trace, threads, deadline):
    """Runs one workload; returns its report or None."""
    out_dir = build_root() / "out"
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--threads", str(threads), "--out", str(out_dir)]
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in time" % workload)
        return None
    if result.returncode != 0:
        log(result.stderr.strip())
        log("perfbench: kbench exited with code %d" % result.returncode)
        return None
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def format_value(metric):
    value = metric["value"]
    if value is None:
        return "n/a"
    return "%.6g" % value


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(binary, args, kbench):
    config = dict(kbench["config"])
    config.update(git_describe=git_describe(), source_digest=source_digest(),
                  build_type=cmake_build_type(binary))
    print("config " + json.dumps(config, sort_keys=True))
    for name, tally in kbench["checks"].items():
        print("check  %-32s passed %d  failed %d  near-ties %d%s" % (
            name, tally["passed"], tally["failed"], tally["near_ties"],
            "  first failure: " + tally["first_failure"]
            if "first_failure" in tally else ""))
    for note in kbench["notes"]:
        print("note   " + note)
    metrics = kbench["metrics"]
    for name, metric in metrics.items():
        note = "  (%s)" % metric["note"] if "note" in metric else ""
        print("metric %-38s %14s %-6s n=%d%s" % (
            name, format_value(metric), metric["unit"], metric["samples"],
            note))

    declared = declared_metrics(args.trace)
    missing = [m["name"] for m in declared
               if metrics.get(m["name"], {}).get("value") is None]
    if missing:
        log("perfbench: no value for " + ", ".join(missing))
        return 1
    result = {
        "correct": kbench["failed"] == 0,
        "attempted": kbench["attempted"],
        "failed": kbench["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def selftest(binary, seconds, deadline):
    """Count-type per-layer metrics must repeat across runs and threads."""
    threads = sorted({1, os.cpu_count() or 1})
    all_ok = True
    for workload in WORKLOADS:
        ok = True
        counts = {}
        for t in threads:
            for rep in (1, 2):
                kbench = run_kbench(binary, workload, DEFAULT_SEED, seconds,
                                    1, t, deadline)
                if kbench is None:
                    return 1
                if kbench["failed"]:
                    log("selftest: %s threads=%d run %d: %d checks failed"
                        % (workload, t, rep, kbench["failed"]))
                    ok = False
                counts[(t, rep)] = {
                    name: m["value"] for name, m in kbench["metrics"].items()
                    if m["unit"] == "count"}
        first_key = (threads[0], 1)
        for key, values in counts.items():
            for name, value in values.items():
                expected = counts[first_key][name]
                if value != expected:
                    log("selftest: %s %s = %s at threads=%d run %d, %s at "
                        "threads=%d run 1" % (workload, name, value, key[0],
                                              key[1], expected, threads[0]))
                    ok = False
        print("selftest %s: %d count metrics, threads %s, two runs each: %s"
              % (workload, len(counts[first_key]), threads,
                 "identical" if ok else "DIFFERENT"))
        all_ok = all_ok and ok
    print("selftest " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary, min(args.seconds, 4.0),
                        time.monotonic() + 3600)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    kbench = run_kbench(binary, args.workload, args.seed, args.seconds,
                        args.trace, THREADS, deadline)
    if kbench is None:
        return 1
    return report(binary, args, kbench)


if __name__ == "__main__":
    sys.exit(main())
