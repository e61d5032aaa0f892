#!/usr/bin/env python3
"""Whole-pipeline benchmark for noisewin.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the analyzer and the benchmark executable from source (perfbench/
CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench (default .bench_build),
generates the workload's inputs from the seed, measures for the given
number of seconds, checks the outputs, and prints as its last stdout line
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer metrics
with --trace 1 (where the spans are also written under <build>/traces).

Workloads: signoff-logic, accuracy-bus, eco-serve (see perfbench/README.md).

--selftest runs every workload at tiny sizes and checks that each metric
of BENCHMARK.json is printed with its unit, that the exact counts repeat
between two runs on one seed, that the signoff self times add up to the
traced pass, and that a corrupted output is counted as a failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("signoff-logic", "accuracy-bus", "eco-serve")
EXACT_COUNTS = ("noise.violations", "noise.aggressor_pairs", "noise.victims_estimated",
                "sta.passes")
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def local_env():
    """The environment for child processes, with temporary files kept in the build tree."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then (re)build the benchmark executable; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "noise", "analyzer.hpp")):
        raise RuntimeError("the analyzer sources (src/) are not next to perfbench/")
    out = build_dir()
    env = local_env()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Run one measurement; returns (stdout lines, parsed result record)."""
    work = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           # relative, so the daemon's unix socket path stays short
           "--work", os.path.relpath(work, ROOT)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd + list(extra), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, env=local_env())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("perfbench exited with code %d" % proc.returncode)
    return lines, json.loads(lines[-1])


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    for workload in WORKLOADS:
        counts = []
        for trace, kind in ((False, "end_to_end"), (True, "per_layer"), (True, "per_layer")):
            _, rec = run_bench(binary, workload, 7, 1, trace, ["--tiny"])
            expect(rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 1,
                   "%s trace=%d: outputs correct" % (workload, trace))
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            expect(got == wanted, "%s trace=%d: every %s metric printed with its unit"
                   % (workload, trace, kind))
            if trace:
                m = {k: v["value"] for k, v in rec["metrics"].items()}
                counts.append([m[k] for k in EXACT_COUNTS])
                if workload == "signoff-logic":
                    parts = sum(v for k, v in m.items() if k.startswith("self."))
                    expect(abs(parts - m["trace.pass_ms"]) <= 1e-6 * m["trace.pass_ms"],
                           "%s: self times plus unattributed add up to the traced pass"
                           % workload)
        expect(counts[0] == counts[1], "%s: exact counts repeat on one seed %s"
               % (workload, counts))
        _, rec = run_bench(binary, workload, 7, 1, False, ["--tiny", "--corrupt"])
        expect(not rec["correct"] and rec["failed"] >= 1,
               "%s: a corrupted output counts as a failure" % workload)
    print("selftest: %s" % ("PASSED" if not problems else "%d FAILED" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        lines, _ = run_bench(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
