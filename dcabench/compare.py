#!/usr/bin/env python3
"""Compares two run_benchmark.py --repeats files, row by row.

    python3 dcabench/compare.py BASE.json NEW.json

Each row is one (workload, metric). Runs pair up in file order, so make the
two files together with run_benchmark.py --base-build, which alternates
which side runs first. The rule (choosing-metrics guide, section 8):

  * an end-to-end metric that is the same in every base run (a simulated
    metric at one seed) must stay exact: any other value reads "regression"
    if the new median is worse and "changed" if not, with no bound and no
    pair count;
  * at least 10 pairs, else the row is "too few pairs";
  * "gain": the new side wins at least 9 of every 10 pairs (ties count for
    neither) and the medians differ by more than the base's IQR;
  * "regression": the new median is worse than the base median by more
    than the metric's bound in BENCHMARK.json (5 % for peak RSS, see
    ONE_SEED_BOUND);
  * "unresolved": the base's IQR/median exceeds the bound, unless every
    new run is better than every base run;
  * otherwise "within bound". Identical values read "identical".

Per-layer metrics have no bound; their rows say only gain, identical or
"changed". Exits 1 when any row is a regression.
"""
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
# BENCHMARK.json's bounds cover the spread between seeds. Both files here
# hold runs of one seed, where peak RSS moves by well under 1 %.
ONE_SEED_BOUND = {"peak_rss_bytes_per_cell": 0.05}


def rows(path):
    out = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(base, new, better, bound):
    if base == new:
        return "identical"
    sign = 1.0 if better == "higher" else -1.0
    if len(set(base)) == 1:
        worse = sign * (statistics.median(new) - base[0]) < 0
        return "regression" if worse and bound is not None else "changed"
    pairs = list(zip(base, new))
    if len(pairs) < MIN_PAIRS:
        return f"too few pairs ({len(pairs)})"
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    mb, mn = statistics.median(base), statistics.median(new)
    gap = sign * (mn - mb)
    if wins >= WIN_SHARE * len(pairs) and gap > iqr(base):
        return f"gain ({wins}/{len(pairs)} wins)"
    if bound is None:
        return "changed"
    if -gap > bound * abs(mb):
        return "regression"
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if mb != 0 and iqr(base) / abs(mb) > bound and not all_better:
        return "unresolved"
    return "within bound"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = rows(sys.argv[1]), rows(sys.argv[2])
    regressions = 0
    print(f"{'workload':<14} {'metric':<34} {'base median':>14} {'base IQR':>11} "
          f"{'new median':>14} {'new IQR':>11}  verdict")
    for key in base:
        if key not in new or key[1] not in metrics:
            continue
        m = metrics[key[1]]
        b, n = base[key], new[key]
        v = verdict(b, n, m["better"], ONE_SEED_BOUND.get(key[1], m.get("bound")))
        regressions += v == "regression"
        print(f"{key[0]:<14} {key[1]:<34} {statistics.median(b):>14.6g} "
              f"{iqr(b) if len(b) > 1 else 0:>11.4g} {statistics.median(n):>14.6g} "
              f"{iqr(n) if len(n) > 1 else 0:>11.4g}  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
