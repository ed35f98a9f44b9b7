#!/usr/bin/env python3
"""Chaos-replay benchmark driver.

Builds the mmconf library and the replay harness from source, runs one
workload for a fixed wall-clock budget and prints the result as one JSON
object on the last line of stdout. Run it from the repository root:

  python3 chaosbench/run.py --workload lecture --seed 1 --seconds 10 --trace 0

--trace 0 runs the plain harness and reports the end-to-end metrics.
--trace 1 runs the harness build whose calls into each library layer pass
through timing spans (linker --wrap, see layer_spans.cc) and reports the
per-layer self time instead.

A run starts PROCESSES harness processes one after another, each for an
equal share of --seconds, and reports each metric's median over them:
where the heap, stack and libraries land moves a replay's speed by a few
percent from one process to the next, so a figure taken over several
randomized address-space layouts is one that two builds can be compared
on. Every process replays the workload's golden traces; their outputs
must match the digest in expected_digests.json, in either build.

Build products go to .bench_build/chaosbench under the repository root.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "chaosbench")
EXPECTED_DIGESTS = os.path.join(HERE, "expected_digests.json")
WORKLOADS = ("lecture", "consult", "browse", "mixed")
PROCESSES = 5
BUILD_TIMEOUT_S = 840
# Slack per process on top of its share of --seconds, for the golden
# replays and the set-up samples; a whole run must end within 180 s.
RUN_SLACK_S = 20


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; on timeout kills the whole group
    (make spawns compilers) and waits for it. Child stdout goes to our
    stderr unless captured, so only the result line reaches stdout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"mmconf sources not found under {ROOT}/src")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD_DIR, "-j", jobs],
        max(1, deadline - time.monotonic()))


def harness(binary, args, timeout):
    out = run([os.path.join(BUILD_DIR, binary)] + args, timeout, capture=True)
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{binary} printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    with open(EXPECTED_DIGESTS) as f:
        expected = json.load(f)[args.workload]
    binary = "chaos_replay_traced" if args.trace else "chaos_replay"
    share = args.seconds / PROCESSES
    results = [
        harness(binary, ["--workload", args.workload, "--seed",
                         str(args.seed), "--seconds", str(share)],
                share + RUN_SLACK_S)
        for _ in range(PROCESSES)
    ]

    correct = all(result["correct"] for result in results)
    digests = {result["golden_digest"] for result in results}
    if digests != {expected}:
        log(f"golden {args.workload} traces gave digest(s) "
            f"{', '.join(sorted(digests))}, expected {expected}: their "
            f"outputs changed. If that is intended, update "
            f"{os.path.relpath(EXPECTED_DIGESTS, ROOT)} and say why.")
        correct = False
    metrics = {
        name: {
            "value": statistics.median(
                result["metrics"][name]["value"] for result in results),
            "unit": metric["unit"],
        }
        for name, metric in results[0]["metrics"].items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        log(f"chaosbench: {error}")
        sys.exit(1)
