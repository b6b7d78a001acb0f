"""Span tracing of levywalk's public functions, installed from outside the package.

`Tracer.install()` wraps each function named in LAYER_FUNCTIONS and rebinds
the wrapper wherever a levywalk module holds the original: module globals
(names imported with `from .x import y`) and module-level dicts such as
`scaling.VARIANTS` and `harness._SUITE_FUNCS`. `uninstall()` puts every
original back. Spans (name, start, end, parent) are kept in memory, one
stack per thread; a span opened on a worker thread with an empty stack takes
the innermost open span of the installing thread as its parent, which is
the call that started the worker pool. Counters are recorded in the same
wrappers, so ratios are measured where the work happens.
"""

import collections
import contextlib
import functools
import itertools
import os
import sys
import threading
import time

import numpy as np

# (module, function, span name). Functions sharing a span name are one layer
# operation: the position_* evaluators all call renewal_count, for example.
LAYER_FUNCTIONS = (
    ("randgen", "stream_rng", "randgen.stream_rng"),
    ("randgen", "draw_pareto", "randgen.draw_pareto"),
    ("randgen", "sample_direction", "randgen.sample_direction"),
    ("randgen", "positive_stable", "randgen.positive_stable"),
    ("randgen", "build_subordinator_path", "randgen.subordinator_path"),
    ("randgen", "extend_subordinator_path", "randgen.subordinator_path"),
    ("randgen", "inverse_subordinator", "randgen.inverse_subordinator"),
    ("walk", "sample_trajectory", "walk.sample_trajectory"),
    ("walk", "renewal_count", "walk.query"),
    ("walk", "position_wait_first", "walk.query"),
    ("walk", "position_jump_first", "walk.query"),
    ("walk", "position_continuous", "walk.query"),
    ("walk", "write_trajectory_csv", "walk.write_trajectory_csv"),
    ("scaling", "rescaled_ensemble", "scaling.rescaled_ensemble"),
    ("stats", "hill_estimator", "stats.hill_estimator"),
    ("stats", "log_correction_fit", "stats.log_correction_fit"),
    ("harness", "parse_config", "harness.parse_config"),
    ("harness", "write_ensemble", "harness.write_ensemble"),
    ("harness", "suite_tails", "harness.suite"),
    ("harness", "suite_critical", "harness.suite"),
    ("harness", "run_suite", "harness.run_suite"),
    ("harness", "run_simulate", "harness.run_simulate"),
    ("cli", "main", "cli.main"),
)

_MODULES = ("randgen", "walk", "scaling", "stats", "harness", "cli")


# Each counter sees (counters, finished span, positional args, result). The
# functions it reads are called positionally everywhere in levywalk.

def _count_calls(counters, span, args, result):
    counters[span.name + ".calls"] += 1


def _count_draws(counters, span, args, result):
    counters[span.name + ".draws"] += int(np.size(result))


def _count_rows(counters, span, args, result):
    rows = 1 if np.ndim(result) == 1 else len(result)
    counters[span.name + ".rows"] += rows
    if span.parent is not None and span.parent.name.startswith("walk."):
        # a trajectory draws one direction per step it grows by
        counters["walk.steps_drawn"] += rows


def _count_path(counters, span, args, result):
    drawn = len(result.increments)
    if isinstance(args[0], type(result)):  # extend_subordinator_path(path, ...)
        drawn -= len(args[0].increments)
        counters[span.name + ".extensions"] += 1
    counters[span.name + ".increments_drawn"] += drawn


def _count_passage(counters, span, args, result):
    # first passage at grid time k * delta_tau reads increments 1..k
    path = args[0]
    counters["randgen.subordinator_path.increments_used"] += int(
        np.max(np.rint(np.asarray(result) / path.delta_tau)))


def _count_query(counters, span, args, result):
    # the walk reads steps 1..N(t)+1: the last one straddles t. The position_*
    # evaluators call renewal_count, so only the outermost query counts.
    if span.parent is not None and span.parent.name == span.name:
        return
    traj, t = args[0], args[1]
    n = np.searchsorted(traj.renewal_times, np.max(np.asarray(t, dtype=float)), side="right")
    counters[span.name + ".steps_used"] += int(n) + 1
    counters[span.name + ".steps_available"] += len(traj.T)


def _count_ensemble(counters, span, args, result):
    counters[span.name + ".samples"] += result.n_samples
    counters[f"{span.name}.samples.n{result.n}"] += result.n_samples
    counters[f"{span.name}.inclusive_s.n{result.n}"] += span.end - span.start


def _count_ensemble_bytes(counters, span, args, result):
    dirpath, stem = args[0], args[1]
    for ext in (".csv", ".json"):
        counters[span.name + ".bytes"] += os.path.getsize(os.path.join(dirpath, stem + ext))


def _count_stream_bytes(counters, span, args, result):
    # run_simulate opens a fresh file per trajectory, so the offset is the size
    counters[span.name + ".bytes"] += args[1].tell()


COUNTERS = {
    "randgen.stream_rng": _count_calls,
    "randgen.draw_pareto": _count_draws,
    "randgen.sample_direction": _count_rows,
    "randgen.positive_stable": _count_draws,
    "randgen.subordinator_path": _count_path,
    "randgen.inverse_subordinator": _count_passage,
    "walk.sample_trajectory": _count_calls,
    "walk.query": _count_query,
    "scaling.rescaled_ensemble": _count_ensemble,
    "walk.write_trajectory_csv": _count_stream_bytes,
    "harness.write_ensemble": _count_ensemble_bytes,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "index")

    def __init__(self, name, start, parent, thread, index):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.index = index


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.counters = collections.Counter()


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._owner = None
        self._patched = []
        self._indices = itertools.count()

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _open(self, name):
        st = self._state()
        if st.stack:
            parent = st.stack[-1]
        elif self._owner is not None and self._owner is not st and self._owner.stack:
            parent = self._owner.stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter(), parent, threading.get_ident(),
                    next(self._indices))
        st.stack.append(span)
        st.spans.append(span)
        return st, span

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        st, span = self._open(name)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            st.stack.pop()

    def wrap(self, name, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            st, span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                st.stack.pop()
            if counter is not None:
                counter(st.counters, span, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every LAYER_FUNCTIONS entry in every levywalk module that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._owner = self._state()
        mods = [sys.modules["levywalk"]] + [sys.modules["levywalk." + m] for m in _MODULES]
        for mod_name, func_name, span_name in LAYER_FUNCTIONS:
            orig = getattr(sys.modules["levywalk." + mod_name], func_name)
            traced = self.wrap(span_name, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((vars(mod), attr, orig))
                        setattr(mod, attr, traced)
                    elif isinstance(val, dict):
                        for key, item in list(val.items()):
                            if item is orig:
                                self._patched.append((val, key, orig))
                                val[key] = traced

    def uninstall(self):
        for target, key, orig in reversed(self._patched):
            target[key] = orig
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def spans(self):
        with self._lock:
            states = list(self._states)
        return sorted((s for st in states for s in st.spans), key=lambda s: s.index)

    def counters(self):
        total = collections.Counter()
        with self._lock:
            states = list(self._states)
        for st in states:
            total.update(st.counters)
        return total

    def self_times(self):
        """Map span name -> summed self time (duration minus the union of its children)."""
        spans = [s for s in self.spans() if s.end is not None]
        children = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent.index, []).append(s)
        out = {}
        for s in spans:
            covered = _union_length(s.start, s.end, children.get(s.index, ()))
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def dump(self):
        """Spans as plain records, for writing out after the pass."""
        return [
            {"name": s.name, "start": s.start, "end": s.end, "thread": s.thread,
             "index": s.index, "parent": None if s.parent is None else s.parent.index}
            for s in self.spans()
        ]


def _union_length(lo, hi, intervals):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s in sorted(intervals, key=lambda s: s.start):
        a, b = max(s.start, lo), min(s.end, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# Per-layer metrics of one traced pass: (name, unit, better).
PER_LAYER = (
    ("walk.sample_trajectory.calls", "count", "lower"),
    ("walk.sample_trajectory.self_s", "s", "lower"),
    ("walk.query.self_s", "s", "lower"),
    ("walk.steps_drawn", "count", "lower"),
    ("walk.step_use_ratio", "ratio", "higher"),
    ("scaling.rescaled_ensemble.self_s", "s", "lower"),
    ("scaling.rescaled_ensemble.samples", "count", "higher"),
    ("scaling.us_per_sample.n100", "us", "lower"),
    ("scaling.us_per_sample.n1000", "us", "lower"),
    ("scaling.us_per_sample.n10000", "us", "lower"),
    ("randgen.stream_rng.calls", "count", "lower"),
    ("randgen.stream_rng.self_s", "s", "lower"),
    ("randgen.draw_pareto.draws", "count", "lower"),
    ("randgen.draw_pareto.self_s", "s", "lower"),
    ("randgen.sample_direction.rows", "count", "lower"),
    ("randgen.sample_direction.self_s", "s", "lower"),
    ("randgen.positive_stable.draws", "count", "lower"),
    ("randgen.positive_stable.self_s", "s", "lower"),
    ("randgen.subordinator_path.increments_drawn", "count", "lower"),
    ("randgen.subordinator_path.extensions", "count", "lower"),
    ("randgen.subordinator_path.used_ratio", "ratio", "higher"),
    ("randgen.inverse_subordinator.self_s", "s", "lower"),
    ("stats.hill_estimator.self_s", "s", "lower"),
    ("stats.log_correction_fit.self_s", "s", "lower"),
    ("harness.suite.self_s", "s", "lower"),
    ("harness.write_ensemble.bytes", "B", "lower"),
    ("harness.write_ensemble.self_s", "s", "lower"),
    ("walk.write_trajectory_csv.bytes", "B", "lower"),
    ("walk.write_trajectory_csv.self_s", "s", "lower"),
    ("harness.parse_config.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer):
    """Per-layer numbers of one traced pass, keyed by PER_LAYER name.

    Counts are exact; `*.self_s` come from the spans. trace.overhead_ratio
    needs an untraced pass as well and is filled in by the caller.
    """
    c = tracer.counters()
    self_s = tracer.self_times()
    out = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            out[name] = c[name]
    out["walk.step_use_ratio"] = _ratio(c["walk.query.steps_used"], c["walk.query.steps_available"])
    out["randgen.subordinator_path.used_ratio"] = _ratio(
        c["randgen.subordinator_path.increments_used"],
        c["randgen.subordinator_path.increments_drawn"])
    for n in (100, 1000, 10000):
        out[f"scaling.us_per_sample.n{n}"] = 1e6 * _ratio(
            c[f"scaling.rescaled_ensemble.inclusive_s.n{n}"],
            c[f"scaling.rescaled_ensemble.samples.n{n}"])
    out.pop("trace.overhead_ratio")
    return out
