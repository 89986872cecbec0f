"""In-memory spans around the public boundaries of each swarmpnn layer.

:func:`install` wraps the functions and methods a training run crosses; the
wrappers live here, in the benchmark, and the package is not edited. Each
span is ``[name, parent, outer_start, start, end, outer_end, attrs]`` with
``perf_counter_ns`` times. ``start``/``end`` bracket the wrapped call;
``outer_*`` also cover the wrapper's own bookkeeping, so a parent's self
time (its duration minus its children's outer durations) excludes the
tracer's cost. Spans stay in memory until :meth:`Tracer.flush` appends them
as one JSON line (one training run or one CLI cell per line).
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import tracemalloc
import warnings

import numpy as np

NAME, PARENT, OUTER_START, START, END, OUTER_END, ATTRS = range(7)

now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def enter(self, name, **attrs):
        t = now()
        rec = [name, self.stack[-1] if self.stack else -1, t, t, t, t,
               attrs or None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def exit(self, rec, **attrs):
        if attrs:
            rec[ATTRS] = {**(rec[ATTRS] or {}), **attrs}
        self.stack.pop()
        rec[OUTER_END] = now()

    def call(self, name, fn, *args, **kwargs):
        rec = self.enter(name)
        rec[START] = now()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = now()
            self.exit(rec)

    @contextlib.contextmanager
    def span(self, name):
        rec = self.enter(name)
        rec[START] = now()
        try:
            yield rec
        finally:
            rec[END] = now()
            self.exit(rec)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def observer(self, event, data):
        """``hybrid_minimize`` observer: the fit phase becomes a span."""
        if event == "fit_start":
            rec = self.enter("hybrid.fit", method=data["method"])
            rec[START] = rec[OUTER_START]
        elif event == "fit_end":
            rec = self.spans[self.stack[-1]]
            rec[END] = now()
            self.exit(rec)

    def flush(self, path):
        if self.stack:
            raise RuntimeError("flush with open spans")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []


def _owned_array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values()
               if isinstance(v, np.ndarray) and v.base is None)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported package in spans."""
    from swarmpnn import cli, hybrid, optimizers, pnn

    loo_objective = hybrid.loo_objective

    def traced_loo_objective(train, kind="per_feature"):
        objective = tracer.call("hybrid.loo_objective", loo_objective,
                                train, kind)

        def traced_objective(vector):
            rec = tracer.enter("hybrid.objective")
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rec[START] = now()
                    try:
                        return objective(vector)
                    finally:
                        rec[END] = now()
            finally:
                tracer.exit(rec, degenerate=any(
                    issubclass(w.category, RuntimeWarning) for w in caught))

        return traced_objective

    hybrid.loo_objective = traced_loo_objective
    hybrid.probe_phase = tracer.wrap("hybrid.probe_phase", hybrid.probe_phase)

    evaluator = pnn.DensityEvaluator
    init, error_rate = evaluator.__init__, evaluator.error_rate

    def traced_init(self, pattern_set, queries, exclude_self=False):
        rec = tracer.enter("pnn.evaluator_build")
        tracemalloc.start()
        rec[START] = now()
        try:
            init(self, pattern_set, queries, exclude_self)
        finally:
            rec[END] = now()
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            tracer.exit(rec, exclude_self=bool(exclude_self),
                        retained_bytes=retained,
                        array_bytes=_owned_array_bytes(self))

    def traced_error_rate(self, smoothing, labels):
        rec = tracer.enter("pnn.error_rate")
        rec[START] = now()
        try:
            return error_rate(self, smoothing, labels)
        finally:
            rec[END] = now()
            ds = self.pattern_set
            tracer.exit(rec, qpn=self.n_queries * ds.n_samples * ds.n_features)

    evaluator.__init__ = traced_init
    evaluator.error_rate = traced_error_rate

    for name, cls in optimizers.OPTIMIZERS.items():
        cls.run = tracer.wrap(f"optimizers.{name}.run", cls.run)

    train_hybrid = cli.train_hybrid

    def cli_train_hybrid(train, test, cfg, observer=None):
        return train_hybrid(train, test, cfg, observer=tracer.observer)

    cli.train_hybrid = cli_train_hybrid
    cli.train_single = tracer.wrap("hybrid.train_single", cli.train_single)
    cli.load_csv = tracer.wrap("datasets.load_csv", cli.load_csv)
    cli.stratified_split = tracer.wrap("datasets.stratified_split",
                                       cli.stratified_split)
    cli.compute_metrics = tracer.wrap("metrics.compute_metrics",
                                      cli.compute_metrics)


def read_chunks(paths):
    chunks = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            chunks.extend(json.loads(line) for line in fh if line.strip())
    return chunks


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(chunks, methods) -> dict:
    """Per-layer figures from traced chunks (times in us, s or ns)."""
    out = {}
    by_name = {}
    objective_method = []  # (objective span, calling method)
    run_self = {m: 0 for m in methods}
    wrapper = []
    tracer_ns = root_ns = 0
    for spans in chunks:
        child_outer = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_outer[rec[PARENT]] += rec[OUTER_END] - rec[OUTER_START]
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            tracer_ns += rec[OUTER_END] - rec[OUTER_START] - dur
            if rec[PARENT] < 0:
                root_ns += rec[OUTER_END] - rec[OUTER_START]
            by_name.setdefault(name, []).append((rec, dur, spans))
            self_ns = dur - child_outer[i]
            if name.startswith("optimizers.") and name.endswith(".run"):
                run_self[name.split(".")[1]] += self_ns
            elif name == "hybrid.objective":
                wrapper.append(self_ns)
                parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
                objective_method.append((rec, dur, parent.split(".")[1]
                                         if parent.startswith("optimizers.")
                                         else "none"))

    engine = [(rec, dur) for rec, dur, spans in by_name.get("pnn.error_rate", [])
              if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "hybrid.objective"]
    engine_us = [d / 1e3 for _, d in engine]
    out["pnn.error_rate_us.p50"] = _pct(engine_us, 50)
    out["pnn.error_rate_us.p99"] = _pct(engine_us, 99)
    qpn = sum(rec[ATTRS]["qpn"] for rec, _ in engine)
    out["pnn.ns_per_pair_feature"] = (sum(d for _, d in engine) / qpn
                                      if qpn else 0.0)
    builds = [(rec[ATTRS], dur) for rec, dur, _ in
              by_name.get("pnn.evaluator_build", [])
              if rec[ATTRS]["exclude_self"]]
    out["pnn.bytes_per_call"] = max((a["array_bytes"] for a, _ in builds),
                                    default=0)
    out["pnn.evaluator_build_s"] = _median([d / 1e9 for _, d in builds])
    out["pnn.evaluator_bytes"] = max((a["retained_bytes"] for a, _ in builds),
                                     default=0)
    out["pnn.objective_calls"] = len(objective_method)
    out["pnn.degenerate_calls"] = sum(
        bool(rec[ATTRS]["degenerate"]) for rec, _, _ in objective_method)
    out["hybrid.wrapper_us"] = (statistics.fmean(wrapper) / 1e3
                                if wrapper else 0.0)
    for m in methods:
        mine = [(rec, d) for rec, d, caller in objective_method if caller == m]
        out[f"optimizers.{m}.calls"] = len(mine)
        out[f"optimizers.{m}.self_us_per_call"] = (
            run_self[m] / len(mine) / 1e3 if mine else 0.0)
        out[f"hybrid.objective_us.{m}"] = (
            statistics.fmean(d for _, d in mine) / 1e3 if mine else 0.0)
        out[f"pnn.degenerate_calls.{m}"] = sum(
            bool(rec[ATTRS]["degenerate"]) for rec, _ in mine)
    out["hybrid.probe_s"] = _median(
        [d / 1e9 for _, d, _ in by_name.get("hybrid.probe_phase", [])])
    out["hybrid.fit_s"] = _median(
        [d / 1e9 for _, d, _ in by_name.get("hybrid.fit", [])])
    for metric, name in (("datasets.load_s", "datasets.load_csv"),
                         ("datasets.split_s", "datasets.stratified_split"),
                         ("metrics.compute_s", "metrics.compute_metrics")):
        out[metric] = _median([d / 1e9 for _, d, _ in by_name.get(name, [])])
    # share of the traced time spent in the tracer's own bookkeeping
    out["trace.overhead_frac"] = tracer_ns / root_ns if root_ns else 0.0
    return out
