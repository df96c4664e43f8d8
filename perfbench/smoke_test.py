#!/usr/bin/env python3
"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it checks, on minimal-size runs:
  * an untraced and a traced run are correct and emit exactly the
    end_to_end / per_layer metrics BENCHMARK.json names, each with its unit;
  * the same seed gives the same inputs digest, another seed another one;
  * a run whose correctness reference was deliberately corrupted reports
    correct=false with failed > 0.
Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

SECONDS = "0.5"
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def run(args):
    out = subprocess.run(args, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (args, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    digest = next(l.split("inputs_digest=")[1] for l in lines if "inputs_digest=" in l)
    return json.loads(lines[-1]), digest


def run_bench(workload, seed, trace, *extra):
    return run([os.path.join(BUILD_DIR, "dlm_perfbench"), "--workload", workload,
                "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
                "--serve-bin", os.path.join(BUILD_DIR, "tools", "dl_serve"), *extra])


def check_metrics(result, expected, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise AssertionError("%s: missing %s, unexpected %s, wrong unit %s"
                             % (what, missing, extra, wrong))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError("%s: not correct: %s" % (what, result))


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    # One run through the real entry point builds everything.
    first = bench["workloads"][0]["name"]
    out = subprocess.run(["python3", "perfbench/run.py", "--workload", first, "--seed", "1",
                          "--seconds", SECONDS, "--trace", "0"],
                         capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr[-4000:])
    check_metrics(json.loads(out.stdout.strip().splitlines()[-1]), bench["end_to_end"],
                  first + " via run.py")

    for workload in (w["name"] for w in bench["workloads"]):
        result, digest = run_bench(workload, 7, 0)
        check_metrics(result, bench["end_to_end"], workload + " untraced")
        result, again = run_bench(workload, 7, 1)
        check_metrics(result, bench["per_layer"], workload + " traced")
        if again != digest:
            raise AssertionError("%s: seed 7 gave digests %s and %s" % (workload, digest, again))
        _, other = run_bench(workload, 8, 0)
        if other == digest:
            raise AssertionError("%s: seeds 7 and 8 gave the same inputs" % workload)
        result, _ = run_bench(workload, 7, 0, "--corrupt-reference")
        if result["correct"] or result["failed"] == 0:
            raise AssertionError("%s: corrupted reference passed the gate" % workload)
        print("ok %s" % workload, flush=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print("FAIL: %s" % error, file=sys.stderr)
        sys.exit(1)
