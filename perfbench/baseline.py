"""Measure the benchmark over several seeds and write perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload, runs `perfbench/run.py --trace 0` once for each of
SEEDS and records each end-to-end metric's median, quartiles and IQR over
median, then one `--trace 1` run on TRACE_SEED for the per-layer numbers.
Runs are sequential, so they never compete for cores. Takes about
(seeds + 1) x workloads x (run_seconds + 10) seconds.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} operations failed")
    return env, result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
            "runs": len(values), "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "seeds": SEEDS, "trace_seed": TRACE_SEED,
           "end_to_end": {}, "per_layer": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            env, result = run(workload, seed, seconds, 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: v[-1] for k, v in values.items()}, flush=True)
        out["end_to_end"][workload] = {k: summarize(v) for k, v in values.items()}
        _, traced = run(workload, TRACE_SEED, seconds, 1)
        out["per_layer"][workload] = {k: m["value"] for k, m in traced["metrics"].items()}
        out["environment"] = {k: env[k] for k in ("nproc", "python", "numpy", "levywalk", "commit")}
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
