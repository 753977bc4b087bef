#!/usr/bin/env python3
"""vlacnn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_cold|serve_loop|plan_warm \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the library from
src/) into .bench_build on first use, runs the driver, checks its outputs
and prints every metric by name and unit. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics of BENCHMARK.json when --trace 0 and the per-layer metrics when
--trace 1. Exits non-zero, without a result line, when the build or the run
cannot complete, and non-zero with correct=false when a check failed.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing outside .bench_build
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_cold", "serve_loop", "plan_warm")
MAX_THREADS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the build directory when it is set; only a
    # path relative to the checkout is honoured, so the build stays inside it.
    name = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(name) or ".." in Path(name).parts:
        name = ".bench_build"
    return ROOT / name


def local_env(out):
    """The environment for child processes, with TMPDIR inside the build
    directory so the compiler's temporary files stay in the checkout."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(out):
    """Configure (once) and build the driver; returns its path or None."""
    jobs = str(min(MAX_THREADS, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          env=local_env(out)).returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    exe = out / "perfbench"
    return exe if exe.exists() else None


def git_describe():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                        "--dirty", "--tags"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


UNITS = (("mreq_per_s", "Mreq/s"), ("per_cpu_s", "1/s"), ("_frac", "fraction"),
         ("ns_per_req", "ns"),
         ("utilization", "fraction"), ("attainment", "fraction"),
         ("_mb", "MB"), ("_ms", "ms"), ("_us", "us"), ("_ns", "ns"),
         ("_s", "s"))


def unit_of(name):
    """Unit of a printed metric, from the unit token in its dotted name."""
    for token in reversed(name.split(".")):
        token = re.sub(r"_p\d+$", "", token)  # query_ms_p95 is in ms
        for suffix, unit in UNITS:
            if token.endswith(suffix):
                return unit
    return "count"


def end_to_end(raw):
    s, v = raw["samples"], raw["values"]
    return {
        "setup_s": stats.median(s["setup_s"]),
        "peak_rss_mb": v["peak_rss_mb"],
        "round_wall_s": stats.median(s["round_wall_s"]),
        "round_cpu_s": stats.median(s["round_cpu_s"]),
    }


def per_layer(raw, self_ms):
    out = {name: stats.median(vals) for name, vals in raw["samples"].items()}
    out.update(raw["values"])
    out.update({f"self_ms.{layer}": ms for layer, ms in self_ms.items()})
    return out


def query_tail(q, report):
    """plan_warm's p50 and p95 query latency, the p95 only when at least ten
    queries lie beyond it. False when there are too few queries for that."""
    report["plan.query_ms_p50"] = stats.nearest_rank(q, 0.50)
    if not stats.tail_supported(len(q), 0.95):
        log(f"perfbench: {len(q)} queries leave fewer than "
            f"{stats.TAIL_SAMPLES_BEYOND} beyond p95")
        return False
    report["plan.query_ms_p95"] = stats.nearest_rank(q, 0.95)
    log(f"  plan.query_ms_p95 over {len(q)} queries, "
        f"{stats.samples_beyond(len(q), 0.95)} beyond it")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    bench = stats.load_benchmark(ROOT)
    cache = ROOT / "results" / "sweep_cache.csv"
    if not cache.is_file():
        log(f"perfbench: committed cache {cache} not found")
        return 2
    out = build_dir()
    exe = build(out)
    if exe is None:
        return 3

    run_dir = out / "runs"
    run_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache", str(cache), "--out", str(run_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=local_env(out), timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 4
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: driver exited {proc.returncode} without a result")
        return proc.returncode or 5
    raw = json.loads(lines[-1])

    prov = dict(raw["provenance"])
    prov.update(git_describe=git_describe(), cache_sha256=sha256(cache),
                workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))

    failed, attempted = raw["failed"], raw["attempted"]
    if args.trace == 0:
        report = end_to_end(raw)
        queries = raw["samples"].get("plan.query_ms")
        if queries is not None:
            attempted += 1
            failed += 0 if query_tail(queries, report) else 1
        for name, vals in sorted(raw["samples"].items()):
            report.setdefault(name, stats.median(vals))
        for name, value in raw["values"].items():
            report.setdefault(name, value)
    else:
        spans = [json.loads(line)
                 for line in Path(prov["spans"]).read_text().splitlines()]
        self_ms = {k: us / 1e3 for k, us in stats.self_times(spans).items()}
        report = per_layer(raw, self_ms)
        untraced = raw["values"].get("trace.untraced_wall_s", 0)
        if untraced > 0:
            overhead = raw["values"]["trace.traced_wall_s"] / untraced - 1
            print(f"tracing overhead on {args.workload}: {overhead:+.2%} "
                  f"({len(spans)} spans)")
        for layer, ms in sorted(self_ms.items()):
            print(f"self time {layer:10s} {ms:12.3f} ms")

    print(f"fail_rate {failed / attempted:.6g} ({failed} failed of "
          f"{attempted} attempted)")
    for msg in raw["failures"]:
        print(f"FAILED: {msg}")
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    for name in sorted(report):
        print(f"{name} {report[name]:.6g} {units.get(name) or unit_of(name)}")

    wanted = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    metrics = {}
    for m in wanted:
        if m["name"] not in report:
            log(f"perfbench: metric {m['name']} was not measured")
            return 6
        metrics[m["name"]] = {"value": report[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
