"""Statistics for the vlacnn benchmark: percentiles, run-to-run spread,
regression verdicts and per-layer self time from the traced run's spans.

Command line, over files written by repeat.py (one JSON object per line with
"workload", "seed" and "result"):

    python3 perfbench/stats.py spread RUNS.jsonl
    python3 perfbench/stats.py compare PARENT.jsonl CHANGE.jsonl

Both read the metric bounds and directions from BENCHMARK.json.
"""

import json
import math
import statistics
import sys
from pathlib import Path

TAIL_SAMPLES_BEYOND = 10


def nearest_rank_index(n, q):
    """0-based index of the nearest-rank q-quantile of n sorted samples:
    the ceil(q * n)-th smallest, q in (0, 1]."""
    if n <= 0:
        raise ValueError("nearest rank of an empty sample")
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q} outside (0, 1]")
    # Round q * n before the ceiling so 0.95 * 200 = 190.00000000000003
    # still selects rank 190.
    return max(1, math.ceil(round(q * n, 9))) - 1


def nearest_rank(values, q):
    """Nearest-rank q-quantile: always one of the samples, never
    interpolated."""
    ordered = sorted(values)
    return ordered[nearest_rank_index(len(ordered), q)]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-quantile's
    rank."""
    return n - (nearest_rank_index(n, q) + 1)


def tail_supported(n, q, beyond=TAIL_SAMPLES_BEYOND):
    """True when the q-quantile of n samples has at least `beyond` samples
    past it, the condition for reporting it as a tail percentile."""
    return n > 0 and samples_beyond(n, q) >= beyond


def min_samples_for_tail(q, beyond=TAIL_SAMPLES_BEYOND):
    """Smallest sample count whose q-quantile has `beyond` samples past it."""
    n = 1
    while not tail_supported(n, q, beyond):
        n += 1
    return n


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles as statistics.quantiles(values, n=4) gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(parent, change, better):
    """Share by which `change` is worse than `parent` (negative: better)."""
    if parent == 0:
        raise ValueError("cannot compare against a zero baseline")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def regressed(parent_values, change_values, bound, better):
    """True when the change's median is worse than the parent's median by
    more than `bound`, a share of the parent's median."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    worse = worse_by(median(parent_values), median(change_values), better)
    return worse > bound


def self_times(spans):
    """Self time per layer, in the spans' time unit. A span's self time is
    its duration minus the part of its interval that its children cover
    (children may run concurrently on other threads, so their union counts,
    not their sum)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_us"], s["end_us"]
        covered = 0.0
        reach = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            lo, hi = max(c["start_us"], reach), min(c["end_us"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["layer"]] = out.get(s["layer"], 0.0) + (end - start) - covered
    return out


def load_benchmark(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def metric_values(results, name):
    return [r["metrics"][name]["value"]
            for r in results if name in r["metrics"]]


def spread_table(bench, runs):
    """(workload, metric, n, median, spread, bound, ok) rows; `ok` means the
    spread is within a third of the bound (setup_s is not held to it)."""
    rows = []
    for workload, results in runs.items():
        for m in bench["end_to_end"]:
            vals = metric_values(results, m["name"])
            if len(vals) < 2:
                continue
            spread = quartile_spread(vals)
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            rows.append((workload, m["name"], len(vals), median(vals), spread,
                         m["bound"], ok))
    return rows


def compare_table(bench, parent, change):
    """(workload, metric, parent median, change median, worse_by, bound,
    regressed) rows."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for m in bench["end_to_end"]:
            a = metric_values(parent[workload], m["name"])
            b = metric_values(change[workload], m["name"])
            if not a or not b:
                continue
            rows.append((workload, m["name"], median(a), median(b),
                         worse_by(median(a), median(b), m["better"]),
                         m["bound"], regressed(a, b, m["bound"], m["better"])))
    return rows


def main(argv):
    root = Path(__file__).resolve().parent.parent
    bench = load_benchmark(root)
    if len(argv) == 3 and argv[1] == "spread":
        ok = True
        for w, name, n, med, spread, bound, good in spread_table(
                bench, load_runs(argv[2])):
            verdict = "ok" if good else "WIDE"
            print(f"{w:11s} {name:14s} n={n:2d} median={med:.6g} "
                  f"spread={spread:.4f} bound={bound} {verdict}")
            ok &= good
        return 0 if ok else 1
    if len(argv) == 4 and argv[1] == "compare":
        ok = True
        for w, name, a, b, worse, bound, bad in compare_table(
                bench, load_runs(argv[2]), load_runs(argv[3])):
            print(f"{w:11s} {name:14s} parent={a:.6g} change={b:.6g} "
                  f"worse_by={worse:+.4f} bound={bound} "
                  f"{'REGRESSED' if bad else 'ok'}")
            ok &= not bad
        return 0 if ok else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
