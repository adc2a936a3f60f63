#!/usr/bin/env python3
"""Benchmark entry point for eccm0.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/ (and the library
sources it compiles) into .bench_build/perfbench, then runs one workload
and prints a host-identity line followed by the result line
{"correct", "attempted", "failed", "metrics"}. The set-up time is the
median over several fresh processes, since the work it measures
(kernel assembly, server start, campaign construction) happens once per
process; each scales its time by a host speed probe, as the throughput
is scaled. Exits nonzero, without a result line, if the build fails, and
with `correct: false` if any output fails its check.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["vm_replay", "serve_mixed", "campaign_protected"]
# Fresh processes that only set up; setup_s is their median.
SETUP_REPEATS = 21
# Seed never used while the benchmark was tuned.
HELD_OUT_SEED = 918273645


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_binary(args, timeout):
    """Run perfbench; return (exit code, stdout lines). The child never
    outlives this call, also when it times out or we are terminated."""
    with subprocess.Popen([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("perfbench timed out: " + " ".join(args))
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    return proc.returncode, out.strip().splitlines()


def setup_times(workload, seed):
    """Median set-up time over fresh processes, scaled by each one's
    speed probe, and the unscaled median."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        code, lines = run_binary(["--workload", workload, "--seed", str(seed),
                                  "--seconds", "1", "--setup-only"], 60)
        if code != 0 or not lines:
            raise RuntimeError("set-up run failed for " + workload)
        times = json.loads(lines[-1])
        scaled.append(times["setup_s"])
        raw.append(times["raw_setup_s"])
    return statistics.median(scaled), statistics.median(raw)


def run_workload(workload, seed, seconds, trace, corrupt=False):
    """One measured run; returns (exit code, info line, result dict)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-%d.json" % (workload, seed))]
    if corrupt:
        args.append("--corrupt-expected")
    setup = None if trace else setup_times(workload, seed)
    code, lines = run_binary(args, timeout=seconds + 120)
    if len(lines) < 2:
        raise RuntimeError("perfbench printed no result for " + workload)
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    if setup is not None:
        result["metrics"]["setup_s"]["value"], info["raw_setup_s"] = setup
    return code, json.dumps(info), result


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def self_test():
    """Every workload at minimal length on a held-out seed, traced and
    untraced, must pass and print exactly the declared metrics; the
    simulated metrics must repeat exactly on a second run (on another
    seed, except for the campaign, whose seed picks the faults); with a
    corrupted expected value it must fail and exit nonzero."""
    end_to_end, per_layer = declared_metrics()
    problems = []
    for w in WORKLOADS:
        sim = []
        for trace, seed in ((False, HELD_OUT_SEED), (True, HELD_OUT_SEED),
                            (False, HELD_OUT_SEED + 1)):
            if w == "campaign_protected":
                seed = HELD_OUT_SEED
            code, _, res = run_workload(w, seed, 1, trace)
            want = per_layer if trace else end_to_end
            if code != 0 or not res["correct"] or res["failed"]:
                problems.append("%s trace=%d failed: %s" % (w, trace, res))
            if sorted(res["metrics"]) != sorted(want):
                problems.append("%s trace=%d metric names differ from "
                                "BENCHMARK.json" % (w, trace))
            if not trace:
                sim.append([res["metrics"][m]["value"]
                            for m in ("sim_cycles_per_op", "sim_uj_per_op")])
        if sim[0] != sim[1]:
            problems.append("%s simulated cost differs between runs: %s"
                            % (w, sim))
        code, _, res = run_workload(w, HELD_OUT_SEED, 1, False, corrupt=True)
        if code == 0 or res["correct"] or res["failed"] == 0:
            problems.append("%s accepted a corrupted expected value" % w)
        log("self-test: %s ok" % w if not problems else
            "self-test: %s: %s" % (w, problems[-1]))
    for p in problems:
        log("self-test FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if a.self_test:
        return self_test()
    try:
        code, info, result = run_workload(a.workload, a.seed, a.seconds,
                                          a.trace == 1)
    except (RuntimeError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(info)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    # Terminate like an interrupt, so a running child is killed first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
