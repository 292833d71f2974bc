#!/usr/bin/env python3
"""Builds dcabench from this checkout and runs it.

One run (a fresh process; the last line of stdout is the result object):

    python3 dcabench/run_benchmark.py --workload dense_clean --seed 7 \
        --seconds 15 --trace 0

  --trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
  per_layer metrics (and writes the span JSON under the build directory).

Repeats, round-robin over the workloads, one fresh process per run:

    python3 dcabench/run_benchmark.py --repeats 5 --out head.json
    python3 dcabench/run_benchmark.py --repeats 10 --out new.json \
        --base-build /path/to/parent/.bench_build/dcabench --base-out base.json

  prints median, Q1, Q3 and n for every metric. With --base-build each
  repeat also runs the parent's dcabench (built in the parent's checkout),
  alternating which side goes first, so the two files hold the pairs
  dcabench/compare.py needs.

Smoke test (ctest label `bench`): every workload at a short horizon with
every check on, and every BENCHMARK.json metric printed:

    python3 dcabench/run_benchmark.py --smoke

The build lives in $CARGO_TARGET_DIR/dcabench (default .bench_build/dcabench)
and uses the repository's default build type, RelWithDebInfo.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run_benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def default_build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "dcabench"


def build(build_dir):
    """Configures (once) and builds dcabench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(build_dir), "--target", "dcabench",
                      "--parallel", jobs])
        for cmd in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return build_dir / "dcabench"


class Result:
    def __init__(self, code, stdout):
        self.code = code
        self.stdout = stdout
        self.manifest = None
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        for line in stdout.splitlines():
            if line.startswith("# manifest "):
                self.manifest = json.loads(line[len("# manifest "):])
            elif line.startswith("# attempted "):
                self.attempted = int(line.split()[2])
            elif line.startswith("# failed "):
                self.failed = int(line.split()[2])
            elif line.strip() and not line.startswith("#"):
                name, value, unit = line.split()
                self.metrics[name] = {"value": float(value), "unit": unit}

    @property
    def correct(self):
        return self.code == 0 and self.failed == 0


def run_dcabench(binary, workload, seed, seconds, layers=False, smoke=False,
                 spans=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if layers:
        cmd.append("--layers")
    if smoke:
        cmd.append("--smoke")
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--spans={spans}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):
        # 2: bad arguments or an unoptimized/sanitized build; else a crash.
        sys.stderr.write(proc.stdout)
        fail(f"dcabench exited with {proc.returncode}", proc.returncode or 1)
    return Result(proc.returncode, proc.stdout)


def select(result, wanted):
    """The metrics BENCHMARK.json lists, checked by name and unit."""
    out = {}
    for m in wanted:
        got = result.metrics.get(m["name"])
        if got is None:
            fail(f"dcabench printed no {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = got
    return out


def one_run(args, spec):
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(sorted(names))})", 2)
    binary = build(args.build)
    layers = args.trace == 1
    spans = (args.build / "spans" / f"{args.workload}-seed{args.seed}.json"
             if layers else None)
    result = run_dcabench(binary, args.workload, args.seed, args.seconds,
                          layers=layers, spans=spans)
    metrics = select(result, spec["per_layer" if layers else "end_to_end"])
    sys.stdout.write(result.stdout)
    print(json.dumps({"correct": result.correct, "attempted": max(1, result.attempted),
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = {}
    for run in runs:
        for name, m in run["metrics"].items():
            rows.setdefault((run["workload"], name), []).append(m["value"])
    print(f"{'workload':<14} {'metric':<34} {'median':>16} {'Q1':>16} {'Q3':>16} {'n':>3}")
    for (workload, name), values in rows.items():
        q1, q3 = quartiles(values)
        print(f"{workload:<14} {name:<34} {statistics.median(values):>16.6g} "
              f"{q1:>16.6g} {q3:>16.6g} {len(values):>3}  {units.get(name, '')}")


def repeats(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sides = [("new", build(args.build), args.out)]
    if args.base_build:
        if not args.base_out:
            fail("--base-build needs --base-out", 2)
        # Built from the parent's own checkout; this one would build our src/.
        base = Path(args.base_build) / "dcabench"
        if not base.is_file():
            fail(f"no {base}: build it in the parent checkout first", 2)
        sides.append(("base", base, args.base_out))
    layers = args.trace == 1
    wanted = spec["per_layer" if layers else "end_to_end"]
    runs = {name: [] for name, _, _ in sides}
    for r in range(args.repeats):
        for workload in workloads:
            order = sides if r % 2 == 0 else list(reversed(sides))
            for name, binary, _ in order:
                result = run_dcabench(binary, workload, args.seed, seconds,
                                      layers=layers)
                if not result.correct:
                    sys.stderr.write(result.stdout)
                    fail(f"{name} {workload} repeat {r}: a check failed")
                runs[name].append({"workload": workload, "repeat": r, "seed": args.seed,
                                   "manifest": result.manifest,
                                   "metrics": select(result, wanted)})
                print(f"# {name} {workload} repeat {r + 1}/{args.repeats} done",
                      file=sys.stderr)
    for name, _, out in sides:
        Path(out).write_text(json.dumps({"seconds": seconds, "runs": runs[name]},
                                        indent=1) + "\n")
        print(f"== {name}: {out}")
        summarize(runs[name], spec)
    return 0


def smoke(args, spec):
    binary = build(args.build)
    wanted = spec["end_to_end"] + spec["per_layer"]
    bad = 0
    for w in spec["workloads"]:
        result = run_dcabench(binary, w["name"], args.seed, 0, smoke=True)
        missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
        ok = result.correct and not missing
        bad += not ok
        print(f"{w['name']:<14} {'ok' if ok else 'FAILED'}"
              + (f" (missing: {', '.join(missing)})" if missing else ""))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int)
    ap.add_argument("--out")
    ap.add_argument("--build", help="build directory (default: .bench_build/dcabench)")
    ap.add_argument("--base-build", help="an existing build of the parent commit")
    ap.add_argument("--base-out")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    args.build = Path(args.build) if args.build else default_build_dir()
    spec = load_spec()
    if args.smoke:
        return smoke(args, spec)
    if args.repeats is not None:
        if not args.out:
            fail("--repeats needs --out", 2)
        return repeats(args, spec)
    if not args.workload:
        fail("give --workload, --repeats or --smoke (see --help)", 2)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return one_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
