#!/usr/bin/env python3
"""Compares the newest BENCH_engine.json entry with the one before it.

    python3 bench/compare_trajectory.py [BENCH_engine.json]

Prints one line per scaling-curve point (keyed by shards and threads), per
crash-recovery run (keyed by shards) and for metro memory (bytes per cell
and world set-up time). A throughput more than 20% below the baseline, or
a memory or set-up figure more than 20% above it, also prints a GitHub
`::warning` annotation. Shared CI runners are noisy, so a warning does not
change the exit status.

Exits 1 if the newest entry lacks `scaling_curve`, `crash_recovery` or
`metro_memory`, or a key read from them, so a renamed key fails instead of
dropping out of the comparison unnoticed. The baseline entry may lack any
of them (older entries predate some sections); what it lacks is reported
and not compared.
"""
import json
import sys

WORSE_BY = 0.20


def fail(msg):
    print(f"compare_trajectory: {msg}", file=sys.stderr)
    sys.exit(1)


def values(entry, strict):
    """{label: (value, higher_is_better)} for every compared number.

    A missing section or metro key fails when `strict`, else is reported.
    A missing key inside a point or run raises KeyError.
    """
    def lacks(what):
        if strict:
            fail(f"newest entry ({entry.get('git_rev')}) lacks {what}")
        print(f"baseline lacks {what}; not compared")

    out = {}
    if "scaling_curve" in entry:
        for p in entry["scaling_curve"]["points"]:
            label = f"scaling shards={p['shards']} threads={p['threads']}"
            out[label] = (p["events_per_sec"], True)
    else:
        lacks("scaling_curve")
    if "crash_recovery" in entry:
        for r in entry["crash_recovery"]["runs"]:
            out[f"crash_recovery shards={r['shards']}"] = (r["events_per_sec"], True)
    else:
        lacks("crash_recovery")
    metro = entry.get("metro_memory")
    if metro is None:
        lacks("metro_memory")
    else:
        for key in ("bytes_per_cell", "setup_s"):
            if key in metro:
                out[f"metro_memory {key}"] = (metro[key], False)
            else:
                lacks(f"metro_memory.{key}")
    return out


def fmt(v):
    return f"{v:,.0f}" if abs(v) >= 100 else f"{v:.4f}"


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_engine.json"
    try:
        with open(path) as f:
            entries = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(entries, list) or not entries:
        fail(f"{path} is not a non-empty JSON array")

    new = entries[-1]
    try:
        now = values(new, strict=True)
    except (KeyError, TypeError) as e:
        fail(f"newest entry ({new.get('git_rev')}) lacks key {e}")
    print(f"newest: {new.get('git_rev')} @ {new.get('timestamp_utc')}")
    if len(entries) < 2:
        print("no prior trajectory entry; nothing to compare")
        return
    old = entries[-2]
    print(f"baseline: {old.get('git_rev')} @ {old.get('timestamp_utc')}")
    try:
        before = values(old, strict=False)
    except (KeyError, TypeError) as e:
        print(f"baseline lacks key {e}; not compared")
        return

    for label, (value, higher_is_better) in now.items():
        if label not in before:
            print(f"{label}: {fmt(value)} (no baseline)")
            continue
        base = before[label][0]
        ratio = value / base if base else float("inf")
        line = f"{label}: {fmt(value)} vs {fmt(base)} ({ratio:.2f}x)"
        print(line)
        worse = (ratio < 1 - WORSE_BY) if higher_is_better else (ratio > 1 + WORSE_BY)
        if worse:
            print(f"::warning title=engine_bench regression::{line} "
                  f"— >20% worse than the last trajectory entry")


if __name__ == "__main__":
    main()
