#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload at a tiny size,
untraced and traced, and checks that each run passes its correctness
gate and reports every metric named in BENCHMARK.json. A traced run
must also record the spans and layer counters its workload must have,
and its layer self times must add up to the traced thread time.

    python3 perfbench/smoke.py

Run it from the repository root. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Spans each traced workload must record.
SPANS = {
    "estimate": {
        "workloads.synth", "cc.compile", "core.calibrate", "workloads.machine_for",
        "sim.count", "core.estimate", "testbed.run", "bench.evaluation.job", "bench.report",
    },
    "campaign": {
        "workloads.synth", "cc.compile", "workloads.machine_for", "bench.campaign.golden",
        "sim.plan", "sim.restore", "sim.seek", "sim.fault", "sim.post",
        "bench.campaign.classify",
    },
    "campaign_remote": {
        "workloads.synth", "cc.compile", "bench.serve.submit", "bench.supervisor.run",
    },
}

# Per-layer metrics each traced workload must report as non-zero.
NONZERO = {
    "estimate": {
        "workloads.synth_s", "workloads.machine_for_calls", "cc.compile_s", "core.calibrate_s",
        "sim.count_s", "sim.count_instr", "sim.count_mips", "sim.count_stepped_frac",
        "testbed.run_s", "testbed.instr", "testbed.mips", "bench.evaluation.busy_s",
        "trace.wall_s", "trace.thread_s", "trace.overhead_ratio",
    },
    "campaign": {
        "workloads.synth_s", "cc.compile_s", "bench.campaign.golden_s",
        "bench.campaign.useful_frac", "bench.campaign.masked", "sim.restore_s",
        "sim.restore_bytes", "sim.seek_s", "sim.seek_instr", "sim.post_s", "sim.post_instr",
        "sim.post_mips", "sim.fault_s", "sim.traced", "bench.supervisor.run_s",
        "trace.wall_s", "trace.thread_s", "trace.overhead_ratio",
    },
    "campaign_remote": {
        "workloads.synth_s", "cc.compile_s", "bench.serve.submit_s",
        "bench.serve.submit_median_s", "bench.serve.overhead_ratio",
        "bench.servejournal.bytes_per_inj", "bench.cache.hits",
        "bench.cache.misses", "bench.supervisor.run_s", "trace.wall_s", "trace.overhead_ratio",
    },
}

# `_s` per-layer metrics that are no span self time. Every other one is,
# and with trace.wait_s and trace.unaccounted_s they add up to
# trace.thread_s.
NOT_SELF_TIME = {"bench.evaluation.busy_s", "bench.evaluation.idle_s",
                 "bench.serve.submit_median_s"}


def check_identity(workload, metrics):
    v = {k: m["value"] for k, m in metrics.items()}
    own = sum(x for k, x in v.items()
              if k.endswith("_s") and not k.startswith("trace.") and k not in NOT_SELF_TIME)
    total = own + v["trace.wait_s"] + v["trace.unaccounted_s"]
    assert abs(total - v["trace.thread_s"]) <= 1e-6 * max(1.0, v["trace.thread_s"]), \
        f"{workload}: self times add up to {total}, trace.thread_s is {v['trace.thread_s']}"


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = p.stdout.decode().splitlines()
    assert p.returncode == 0 and lines, f"{workload} trace={trace}: exit code {p.returncode}"
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    for w in (x["name"] for x in bench["workloads"]):
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w, trace)
            assert r["correct"] is True, f"{w} trace={trace}: correctness gate failed"
            assert r["attempted"] >= 1 and r["failed"] == 0, f"{w} trace={trace}: {r}"
            for m in bench[table]:
                got = r["metrics"].get(m["name"])
                assert got is not None, f"{w} trace={trace}: metric {m['name']} missing"
                assert got["unit"] == m["unit"], f"{w}: {m['name']} unit {got['unit']}"
                assert isinstance(got["value"], (int, float)), f"{w}: {m['name']} = {got}"
                if trace == 0:
                    assert got["value"] > 0, f"{w}: end-to-end {m['name']} is {got['value']}"
            if trace == 1:
                for name in NONZERO[w]:
                    assert r["metrics"][name]["value"] > 0, f"{w}: {name} is 0"
                check_identity(w, r["metrics"])
                with open(os.path.join(target, "perfbench", f"trace-{w}-7.jsonl")) as f:
                    names = {json.loads(line)["name"] for line in f}
                missing = SPANS[w] - names
                assert not missing, f"{w}: spans missing: {sorted(missing)}"
            print(f"ok  {w} trace={trace}", flush=True)


if __name__ == "__main__":
    main()
