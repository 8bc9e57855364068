#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload plan_zipf_1m --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout of the repository.  It builds
perfbench/bench.exe with dune, runs the workload, and prints the
benchmark's report followed, as the last line of standard output, by one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json; with
--trace 1 they are its per_layer metrics.  For stream_phase_1m the traced
run also measures the streaming engine's top_heap_words, each policy and
prefix length in a process of its own.

Everything it writes stays inside the checkout: the build in _build/ and
the trace files under .bench_build/perfbench/.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("plan_zipf_1m", "stream_phase_1m", "lp_sync_d4")
DEFAULT_SEED = 1
# Never used while the benchmark or a change is being written; later
# claims are confirmed on it (see NOTES.md).
HELD_OUT_SEED = 7919
POLICIES = ("aggressive", "delay", "demand", "obl", "markov")
HEAP_PREFIXES = ((100_000, "n1e5"), (1_000_000, "n1e6"))

BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 165


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build bench.exe from the checkout's sources."""
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing from %s: not a checkout of the repository" % (need, ROOT))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(ROOT, ".bench_build", "cache"))
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run_bench(args, timeout):
    """Run bench.exe; return its standard output lines."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        fail("bench.exe %s timed out" % " ".join(args))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("bench.exe %s exited with %d" % (" ".join(args), proc.returncode))
    return lines


def run_workload(workload, seed, seconds, trace, deadline):
    """Run one workload; return (report lines, result dict with every metric measured)."""
    out_dir = os.path.join(WORK, "%s-s%d" % (workload, seed))
    os.makedirs(out_dir, exist_ok=True)
    lines = run_bench(["run", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--out-dir", out_dir],
                      deadline - time.monotonic())
    tagged = [l for l in lines if l.startswith("RESULT ")]
    if not tagged:
        fail("bench.exe printed no RESULT line")
    result = json.loads(tagged[-1][len("RESULT "):])
    report = [l for l in lines if not l.startswith("RESULT ")]
    artifacts = result.pop("artifacts", {})
    if trace:
        add_heap_probes(workload, artifacts.get("input"), result, report, deadline)
    if "input" in artifacts and os.path.exists(artifacts["input"]):
        os.remove(artifacts["input"])
    return report, result


def add_heap_probes(workload, path, result, report, deadline):
    """stream.<p>.top_heap_words_<prefix>: one process per policy and prefix.

    Other workloads do not run the streaming engine and report 0."""
    for p in POLICIES:
        for n, tag in HEAP_PREFIXES:
            name = "stream.%s.top_heap_words_%s" % (p, tag)
            value = 0
            if workload == "stream_phase_1m":
                result["attempted"] += 1
                out = run_bench(["heap", "--file", path, "--policy", p, "--n", str(n)],
                                deadline - time.monotonic())
                fields = out[-1].split()
                if len(fields) != 4 or int(fields[1]) != n:
                    result["failed"] += 1
                    result["correct"] = False
                    report.append("FAILED heap probe %s: %s" % (name, out[-1:]))
                else:
                    value = int(fields[3])
                    report.append("  %-44s %18d  words" % (name, value))
            result["metrics"][name] = {"value": value, "unit": "words"}


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    # The first run in a checkout spends long building; the run itself
    # keeps within the per-run limit.
    deadline = time.monotonic() + RUN_DEADLINE_S
    report, result = run_workload(a.workload, a.seed, a.seconds, a.trace, deadline)
    wanted = contract_metrics(a.trace)
    got = result["metrics"]
    missing = [m["name"] for m in wanted
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    if missing:
        fail("metrics not measured, or measured in another unit: " + ", ".join(missing))
    for line in report:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
    }))


if __name__ == "__main__":
    main()
