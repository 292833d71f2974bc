#!/usr/bin/env python3
"""Checks that EXPERIMENTS.md names only checks and binaries that exist.

    python3 tests/experiments_doc.py EXPERIMENTS.md CTEST BUILD_DIR BENCH_DIR

Fails (exit 1) when the document
  * names a test (`Suite.Name`, `Suite.*`) that `ctest -N` in BUILD_DIR
    does not list (parameterized instances such as
    `Loads/ErlangBOracle.FcaDropRateCiCoversErlangB/rho60` match
    `ErlangBOracle.*`),
  * names a `bench/<name>` that has no source in BENCH_DIR, or
  * has a `## ` section (after the first) that names no test, unless its
    heading ends with "(timing)": timing is measured by dcabench, not
    asserted.
"""
import fnmatch
import os
import re
import subprocess
import sys

TEST = re.compile(r"^[A-Z]\w*\.(?:[A-Z]\w*\*?|\*)$")
BENCH = re.compile(r"^bench/([\w.]+)$")


def listed_tests(ctest, build_dir):
    out = subprocess.run([ctest, "-N"], cwd=build_dir, check=True,
                         capture_output=True, text=True).stdout
    return re.findall(r"Test\s+#\d+: (\S+)", out)


def names_a_listed_test(pattern, tests):
    forms = (pattern, "*/" + pattern, pattern + "/*", "*/" + pattern + "/*")
    return any(fnmatch.fnmatchcase(t, f) for t in tests for f in forms)


def main(doc_path, ctest, build_dir, bench_dir):
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read()
    tests = listed_tests(ctest, build_dir)
    if not tests:
        print("experiments_doc: ctest -N lists no tests", file=sys.stderr)
        return 1
    bench = set(os.listdir(bench_dir))
    problems = []
    sections = re.split(r"^## ", doc, flags=re.M)
    for section in sections[2:]:
        heading = section.splitlines()[0]
        spans = re.findall(r"`([^`\n]+)`", section)
        named = [s for s in spans if TEST.match(s)]
        for s in named:
            if not names_a_listed_test(s, tests):
                problems.append(f"'{heading}': no ctest test matches {s}")
        for s in spans:
            m = BENCH.match(s)
            if m and not {m.group(1), m.group(1) + ".cpp"} & bench:
                problems.append(f"'{heading}': {s} does not exist")
        if not named and not heading.rstrip().endswith("(timing)"):
            problems.append(f"'{heading}': names no test")
    for p in problems:
        print(f"experiments_doc: {p}", file=sys.stderr)
    print(f"experiments_doc: {len(sections) - 2} sections, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 5:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(*sys.argv[1:]))
