"""levywalk benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/METRICS.md):
  ensemble-t1  `levywalk simulate --threads 1` on the benchmark's ensemble config,
               then one untimed pass at --threads 2 that must write the same bytes
  estimators   `levywalk verify tails` then `verify critical`
  counting     the laplace suite's counting-limit computation at reduced counts

The program is imported from `src/` of the checkout that holds this file,
with BLAS/OpenMP pools pinned to one thread so that the only worker threads
are the workload's own. A run repeats passes over the same inputs for
--seconds and checks every pass's outputs. With --trace 0 it reports the
end-to-end metrics (median pass wall time, set-up time, peak RSS); with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of perfbench/tracing.py plus the tracing overhead. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Scratch files go under `.perfbench/` in the checkout; the spans of the last
traced pass are kept there as `trace-<workload>-seed<N>.json`.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# pinned before numpy is imported, here and in every set-up process
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

MIN_PASSES = 3
SETUP_REPEATS = 5
TIME_UNITS = ("s", "us")

# A fresh interpreter imports levywalk, parses a config and finishes one
# tiny `simulate` through the CLI: what every invocation pays before work.
SETUP_CODE = """
import sys
import levywalk.cli
sys.exit(levywalk.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(workdir, config_text):
    """Wall times of SETUP_REPEATS fresh set-up processes."""
    cfg = os.path.join(workdir, "tiny.txt")
    with open(cfg, "w") as fh:
        fh.write(config_text)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
    times = []
    for k in range(SETUP_REPEATS):
        out = os.path.join(workdir, f"setup{k}")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, cfg, out], env=env,
                              cwd=workdir, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError("set-up process failed")
        shutil.rmtree(out)
    return times


def timed_pass(workload, outdir, tracer):
    """Run one pass, traced when a tracer is given; returns (wall seconds, status)."""
    if tracer is None:
        t0 = time.perf_counter()
        status = workload.run(outdir)
        return time.perf_counter() - t0, status
    with tracer, tracer.span("pass"):
        t0 = time.perf_counter()
        status = workload.run(outdir)
        wall = time.perf_counter() - t0
    return wall, status


def run_passes(workload, workdir, seconds, tracer_factory=None):
    """Repeat passes for `seconds`, and at least MIN_PASSES of each kind.

    Without a tracer factory every pass is untraced; with one, passes
    alternate untraced and traced. A pass that raises, or whose outputs
    cannot be read, counts as one failed operation. Returns the wall times
    by kind, the operation totals, the tracers of the traced passes and the
    last check's info.
    """
    kinds = ("untraced", "traced") if tracer_factory else ("untraced",)
    walls = {kind: [] for kind in kinds}
    tracers = []
    attempted = failed = 0
    info = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or k < MIN_PASSES * len(kinds):
        kind = kinds[k % len(kinds)]
        tracer = tracer_factory() if kind == "traced" else None
        outdir = os.path.join(workdir, f"pass{k}")
        k += 1
        try:
            wall, status = timed_pass(workload, outdir, tracer)
            n_ops, n_failed, info = workload.check(outdir, status)
        except Exception:  # a failing pass is a measured outcome, not a crash
            traceback.print_exc()
            attempted += 1
            failed += 1
            continue
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        attempted += n_ops
        failed += n_failed
        walls[kind].append(wall)
        if tracer is not None:
            tracers.append(tracer)
    return walls, attempted, failed, tracers, info


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(walls, tracers):
    """Per-layer metrics of the traced passes.

    Counts come from the first traced pass (they repeat exactly); every
    time-valued metric is the median over the traced passes.
    """
    import tracing
    per_pass = [tracing.layer_values(t) for t in tracers]
    values = dict(per_pass[0])
    for name, unit, _ in tracing.PER_LAYER:
        if unit in TIME_UNITS:
            values[name] = statistics.median(p[name] for p in per_pass)
    values["trace.overhead_ratio"] = (statistics.median(walls["traced"])
                                      / statistics.median(walls["untraced"]))
    return {name: metric(values[name], unit) for name, unit, _ in tracing.PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levywalk", "__init__.py")):
        sys.stderr.write(f"perfbench: no levywalk sources under {SRC}\n")
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, SRC)
    import numpy as np
    import levywalk
    if not os.path.abspath(levywalk.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: levywalk imported from {levywalk.__file__}, not {SRC}\n")
        return 2
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}\n")
        return 2
    nproc = os.cpu_count() or 1
    workload = workloads.make(args.workload, nproc)
    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.prepare(workdir, args.seed)
        setup = [] if args.trace else measure_setup(workdir, workloads.tiny_config(args.seed))
        walls, attempted, failed, tracers, info = run_passes(
            workload, workdir, args.seconds, tracing.Tracer if args.trace else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if hasattr(workload, "finish"):
            try:
                n_ops, n_failed, _ = workload.finish(workdir)
            except Exception:  # counted like a failing pass
                traceback.print_exc()
                n_ops = n_failed = 1
            attempted += n_ops
            failed += n_failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = {
        "workload": args.workload, "seed": args.seed,
        "threads": getattr(workload, "threads", 1),
        "identity_threads": getattr(workload, "pool_threads", None), "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "levywalk": getattr(levywalk, "__version__", None), "commit": git_commit(),
        "pinned_env": PINNED_THREADS,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print("check " + json.dumps(info, sort_keys=True))
    if not all(walls.values()):
        # every pass of some kind failed: no timing to report, only the failures
        sys.stderr.write("perfbench: no pass completed\n")
        metrics = {}
    elif args.trace:
        metrics = per_layer_metrics(walls, tracers)
        with open(os.path.join(scratch, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"env": env, "spans": tracers[-1].dump()}, fh)
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
    else:
        untraced = walls["untraced"]
        q1, med, q3 = quartiles(untraced)
        s1, smed, s3 = quartiles(setup)
        metrics = {
            "wall_s": metric(med, "s"),
            "setup_s": metric(smed, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        print(f"wall_s median={med!r} q1={q1!r} q3={q3!r} runs={len(untraced)} s")
        print("wall_s passes " + " ".join(f"{w:.4f}" for w in untraced), file=sys.stderr)
        print(f"setup_s median={smed!r} q1={s1!r} q3={s3!r} runs={len(setup)} s")
        print(f"peak_rss_mb value={peak_rss_mb!r} runs=1 MB")
    print(f"error_rate {failed}/{attempted} = {failed / attempted!r} ratio")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
