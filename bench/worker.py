"""Child processes of the benchmark; ``run.py`` starts them.

``setup SPEC``
    Time one cold set-up: imports, CSV load, split and evaluator builds.
``train SPEC SECONDS MIN_OPS PANEL OUT [TRACE_FILE]``
    Run training operations until SECONDS have passed and at least MIN_OPS
    have run; the first PANEL take their seeds from the spec's panel seed,
    the rest from its seed. Write per-operation records and this process's
    peak RSS to OUT. With TRACE_FILE the tracer is installed and spans go
    there.
``cli CELL_DIR TRACE -- ARGS...``
    Run ``swarmpnn`` ARGS with each grid cell timed (and traced when TRACE
    is 1); pool workers append their records to files in CELL_DIR.

SPEC is the JSON file ``run.py`` writes next to the generated inputs.
"""

import time

CPU_START = time.process_time()  # before numpy and swarmpnn are imported

import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


TEST_FRACTION = 0.2


def op_seed(seed, k):
    """Seed of the k-th training run: its split and its optimizers."""
    return seed * 1000 + k


def split(ds, seed, call):
    from swarmpnn import datasets

    return call("datasets.stratified_split", datasets.stratified_split, ds,
                datasets.SplitSpec(TEST_FRACTION, seed=seed))


def cmd_setup(spec_path):
    from swarmpnn import datasets, hybrid, pnn

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for path in spec["csv"].values():
        train, test = split(datasets.load_csv(path), spec["seed"], plain_call)
        hybrid.loo_objective(train, spec["kind"])
        pnn.DensityEvaluator(train, test.features)
    print(json.dumps({"setup_s": time.process_time() - CPU_START}))


class PhaseClock:
    """Observer timing each training phase, in CPU seconds, from the events
    around it.

    A phase is one method's probe or one fit. The first probe of a run has
    no event marking its start, so it is not timed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.rates = []
        self.mark = None

    def __call__(self, event, data):
        t = time.process_time()
        if event in ("probe_end", "fit_end") and self.mark is not None:
            self.rates.append(data["evals"] / (t - self.mark))
        if event in ("probe_end", "fit_start"):
            self.mark = t
        if self.tracer is not None:
            self.tracer.observer(event, data)
        if event == "fit_end":
            self.mark = time.process_time()


def check_training(evaluations, trace, cfg, n_t, objective_calls=None,
                   single=False):
    """Problems with one training run's FE accounting, and the FE charged
    beyond the phase caps.

    ``trace`` holds the run's iteration records as dicts; a single-method
    run has none and one cap, ``cfg.total_cap``.
    """
    problems = []
    batch = cfg.population_size * n_t
    if single:
        phases = [(evaluations, cfg.total_cap(n_t))]
    else:
        phases = []
        for record in trace:
            phases += [(used, cfg.probe_cap(n_t))
                       for used in record["probe_evals"].values()]
            phases.append((record["fit_evals"], cfg.fit_cap(n_t)))
    overshoot = 0
    for used, cap in phases:
        overshoot += max(0, used - cap)
        if used > cap + batch:
            problems.append(f"phase charged {used} FE, cap {cap} + {batch}")
    charged = sum(used for used, _ in phases)
    if evaluations != charged:
        problems.append(f"evaluations {evaluations} != {charged} charged "
                        "by the phase budgets")
    if evaluations % n_t:
        problems.append(f"evaluations {evaluations} not a multiple of "
                        f"n_t={n_t}")
    if objective_calls is not None and objective_calls * n_t != evaluations:
        problems.append(f"{objective_calls} objective calls x {n_t} != "
                        f"evaluations {evaluations}")
    return problems, overshoot


def plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def cmd_train(spec_path, seconds, min_ops, panel, out_path, trace_path=None):
    from swarmpnn import datasets, hybrid, metrics, pnn
    from tracer import Tracer, install

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if trace_path else None
    if tracer:
        install(tracer)
    call = tracer.call if tracer else plain_call
    (path,) = spec["csv"].values()
    ds = call("datasets.load_csv", datasets.load_csv, path)
    deadline = time.perf_counter() + seconds
    ops, rates = [], []
    while len(ops) < min_ops or time.perf_counter() < deadline:
        k = len(ops)
        seed = op_seed(spec["panel_seed"] if k < panel else spec["seed"], k)
        cfg = hybrid.HybridConfig(seed=seed, smoothing_kind=spec["kind"],
                                  **spec["hybrid"])
        clock = PhaseClock(tracer)
        op = {"seed": seed}
        try:
            with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                train, test = split(ds, seed, call)
                n_t = train.n_samples
                t0 = time.perf_counter()
                result = hybrid.train_hybrid(train, test, cfg, observer=clock)
                op["train_s"] = time.perf_counter() - t0
                predictions = pnn.DensityEvaluator(
                    train, test.features).predict(result.smoothing)
                run_metrics = call("metrics.compute_metrics",
                                   metrics.compute_metrics, predictions,
                                   test.labels, train.n_classes, seed=seed)
            calls = None
            if tracer:
                calls = sum(s[0] == "hybrid.objective" for s in tracer.spans)
            trace = [r.to_jsonable() for r in result.trace]
            problems, overshoot = check_training(result.evaluations, trace,
                                                 cfg, n_t, calls)
            if abs(1.0 - run_metrics.accuracy - result.test_error) > 1e-12:
                problems.append(f"accuracy {run_metrics.accuracy} disagrees "
                                f"with test_error {result.test_error}")
            op.update(evaluations=result.evaluations,
                      test_error=result.test_error,
                      stop_reason=result.stop_reason, overshoot=overshoot,
                      tie_breaks=sum(r["tie_break"] for r in trace),
                      problems=problems)
        except Exception as exc:  # one failed operation must not end the run
            op["problems"] = [f"{type(exc).__name__}: {exc}"]
        if tracer:
            tracer.flush(trace_path)
        ops.append(op)
        rates.extend(clock.rates)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "phase_fe_per_s": rates,
                   "peak_rss_mb": _peak_rss_mb()}, fh)


def cmd_cli(cell_dir, trace, argv):
    from swarmpnn import cli
    from tracer import Tracer, install

    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    run_cell = cli.run_cell

    @functools.wraps(run_cell)
    def timed_run_cell(spec):
        record = {"dataset": spec.dataset, "method": spec.method,
                  "run_index": spec.run_index,
                  "start_ns": time.perf_counter_ns(),
                  "start_cpu_ns": time.process_time_ns()}
        try:
            with tracer.span("cli.run_cell") if tracer else contextlib.nullcontext():
                cell = run_cell(spec)
            record.update(evaluations=cell["evaluations"],
                          stop_reason=cell["stop_reason"],
                          trace=cell["trace"])
            return cell
        except Exception as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            record["end_cpu_ns"] = time.process_time_ns()
            record["end_ns"] = time.perf_counter_ns()
            pid = os.getpid()
            if tracer:
                record["objective_calls"] = sum(
                    s[0] == "hybrid.objective" for s in tracer.spans)
                tracer.flush(os.path.join(cell_dir, f"spans-{pid}.jsonl"))
            with open(os.path.join(cell_dir, f"cells-{pid}.jsonl"), "a",
                      encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")

    cli.run_cell = timed_run_cell
    try:
        return cli.main(argv)
    finally:
        with open(os.path.join(cell_dir, "rss.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"peak_rss_mb": max(
                _peak_rss_mb(), _peak_rss_mb(resource.RUSAGE_CHILDREN))}, fh)


def main(argv):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    mode = argv[0]
    if mode == "setup":
        cmd_setup(argv[1])
        return 0
    if mode == "train":
        cmd_train(argv[1], float(argv[2]), int(argv[3]), int(argv[4]),
                  argv[5], argv[6] if len(argv) > 6 else None)
        return 0
    if mode == "cli":
        sep = argv.index("--")
        return cmd_cli(argv[1], argv[2] == "1", argv[sep + 1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
