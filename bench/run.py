"""swarmpnn benchmark: training throughput, LOO exactness and per-layer
traces on two offline workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload wide-raw-hybrid --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
``end_to_end`` entries of ``BENCHMARK.json``, with ``--trace 1`` the
``per_layer`` entries. Lines before it give the same figures for people,
plus provenance. ``--smoke`` shrinks every budget for a quick local check.
See ``bench/README.md`` for what each workload and metric is for.
"""

import os

# one BLAS/OpenMP thread per process, before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 170.0
SETUP_ROUNDS = (5, 5, 5)  # cold set-ups before, between and after the rest
METHODS = ("pso", "fpa", "bat", "bfo", "sa")
# Seed of the synthetic data and of the scored panel. It does not depend on
# --seed, so `test_accuracy` reads the same on every run of the same code.
FIXED_SEED = 0

# Budgets are (iterations, probing multiplier, fit multiplier); population 20.
# `test_accuracy` is scored on a fixed panel: the first `panel` training runs
# in-process, or one grid invocation, with seeds from FIXED_SEED; every run
# completes the panel. Later runs take their seeds from --seed.
# The oracle checks `candidates` vectors on each of `oracle_splits` train
# splits (each run index on the grid), drawn from --seed.
WORKLOADS = {
    "wide-raw-hybrid": {
        "data": ["wide-raw"], "kind": "per_feature", "panel": 2,
        "oracle_splits": 4, "candidates": 8,
        "hybrid": {"iterations": 1, "probing_multiplier": 2,
                   "fit_multiplier": 20},
        "smoke": {"iterations": 1, "probing_multiplier": 1,
                  "fit_multiplier": 1},
    },
    "grid-pcf": {
        "data": ["iris", "glass-shape", "thyroid-shape"],
        "kind": "per_class_feature", "candidates": 100, "runs": 2,
        "hybrid": {"iterations": 1, "probing_multiplier": 2,
                   "fit_multiplier": 10},
        "smoke": {"iterations": 1, "probing_multiplier": 1,
                  "fit_multiplier": 1},
    },
}
CLI_METHODS = ("hybrid", "bat", "bfo", "pso", "fpa", "sa")
CLI_LAYERS = ("cli.cell_s.p50", "cli.cell_s.p90", "cli.startup_s",
              "cli.pool_busy_frac")


class Run:
    """Bookkeeping of one benchmark invocation."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.info = {}
        self.jobs = max(1, min(2, os.cpu_count() or 1))

    @property
    def seconds(self):
        """Length of the untraced section and of the traced one; a traced
        run splits ``--seconds`` between them, so it costs no more time."""
        return self.args.seconds / 2 if self.args.trace else self.args.seconds

    @property
    def panel(self):
        return 1 if self.args.smoke else self.workload["panel"]

    def fail(self, message):
        """A failure outside any counted operation counts as one more."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)

    def child(self, argv, what):
        """Run ``worker.py`` ARGV in its own process group; (code, stdout)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.fail(f"{what}: timed out")
            return None, ""
        finally:
            # pool workers share the group; none may outlive the run
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            self.fail(f"{what}: exit code {proc.returncode}")
        return proc.returncode, out

    def path(self, *parts):
        return os.path.join(self.work, *parts)


def prepare_inputs(run):
    from inputs import write_iris, write_synthetic

    csv, provenance = {}, {}
    for name in run.workload["data"]:
        if name == "iris":
            meta = write_iris(run.work)
        else:
            meta = write_synthetic(name, FIXED_SEED, run.work)
        csv[name] = meta.pop("path")
        provenance[name] = meta
    run.info["inputs"] = provenance
    hybrid = dict(run.workload["smoke" if run.args.smoke else "hybrid"])
    spec = {"seed": run.args.seed, "kind": run.workload["kind"], "csv": csv,
            "hybrid": hybrid, "panel_seed": FIXED_SEED}
    spec_path = run.path("spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return spec, spec_path


def fe_rate(rates):
    """Headline throughput: the 10th percentile of per-phase (or per-cell)
    FE per CPU second. On a shared host the speed switches between a fast
    and a contended state for seconds at a time; the median flips with the
    share of time in each, while the low decile tracks the contended state
    that every run sees."""
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


def measure_setup(run, spec_path, samples, count):
    """Time ``count`` cold set-ups in CPU seconds. The rounds are spread
    over the run because the machine's speed changes over seconds."""
    for _ in range(1 if run.args.smoke else count):
        code, out = run.child(["setup", spec_path],
                              f"setup {len(samples)}")
        if code == 0:
            samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# In-process workloads: train_hybrid in a child process
# ---------------------------------------------------------------------------

def train_phase(run, spec_path, traced):
    label = "traced" if traced else "timed"
    out = run.path(f"{label}.json")
    # the untraced section always completes the panel
    min_ops = 1 if traced else run.panel
    argv = ["train", spec_path, str(run.seconds), str(min_ops),
            str(run.panel), out]
    if traced:
        argv.append(run.path("spans.jsonl"))
    code, _ = run.child(argv, f"{label} training")
    if code != 0:
        return None
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    run.attempted += len(result["ops"])
    for op in result["ops"]:
        run.failed += bool(op["problems"])
        run.problems += [f"{label} op seed {op['seed']}: {p}"
                         for p in op["problems"]]
    return result


def in_process(run, _spec, spec_path):
    timed = train_phase(run, spec_path, traced=False)
    if timed is None:
        return {}, {}
    e2e = {"fe_per_s": fe_rate(timed["phase_fe_per_s"]),
           "peak_rss_mb": timed["peak_rss_mb"]}
    errors = [op["test_error"] for op in timed["ops"][:run.panel]
              if "test_error" in op]
    if len(errors) == run.panel:
        e2e["test_accuracy"] = 1.0 - statistics.fmean(errors)
    run.info["phase_fe_per_s"] = timed["phase_fe_per_s"]
    run.info["ops"] = [{k: op.get(k) for k in ("seed", "train_s",
                                               "evaluations", "test_error",
                                               "stop_reason")}
                       for op in timed["ops"]]
    if not run.args.trace:
        return e2e, {}

    from tracer import layer_metrics, read_chunks

    traced = train_phase(run, spec_path, traced=True)
    if traced is None:
        return e2e, {}
    layers = layer_metrics(read_chunks([run.path("spans.jsonl")]), METHODS)
    ops = [op for op in traced["ops"] if "evaluations" in op]
    layers.update(training_counts(ops))
    layers.update(dict.fromkeys(CLI_LAYERS, 0.0))  # the cli layer did not run
    return e2e, layers


def training_counts(ops):
    return {"hybrid.evaluations": sum(op["evaluations"] for op in ops),
            "hybrid.fe_overshoot": sum(op["overshoot"] for op in ops),
            "hybrid.tie_breaks": sum(op["tie_breaks"] for op in ops)}


# ---------------------------------------------------------------------------
# CLI workload: `swarmpnn benchmark --jobs 2` over a process pool
# ---------------------------------------------------------------------------

def cli_config(run, spec, seed, datasets, methods, runs, hybrid):
    config = {"datasets": datasets, "methods": methods, "runs": runs,
              "seed": seed,
              "paths": {name: spec["csv"][name] for name in datasets},
              "hybrid": hybrid}
    path = run.path(f"config-{len(os.listdir(run.work))}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path


def tree_bytes(top):
    files = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, top)] = fh.read()
    return files


def cli_invocation(run, config_path, what, jobs, traced):
    """Run one ``swarmpnn benchmark``; returns its records or None."""
    index = len([d for d in os.listdir(run.work) if d.startswith("cells")])
    cell_dir, out_dir = run.path(f"cells{index}"), run.path(f"out{index}")
    os.mkdir(cell_dir)
    spawn_ns = time.perf_counter_ns()
    code, _ = run.child(["cli", cell_dir, "1" if traced else "0", "--",
                         "benchmark", "--config", config_path, "--out",
                         out_dir, "--jobs", str(jobs)], what)
    wall_s = (time.perf_counter_ns() - spawn_ns) / 1e9
    if os.path.exists(os.path.join(out_dir, "failures.json")):
        run.fail(f"{what}: wrote failures.json")
    names = os.listdir(cell_dir)
    cells = []
    for name in sorted(n for n in names if n.startswith("cells-")):
        with open(os.path.join(cell_dir, name), encoding="utf-8") as fh:
            cells.extend(json.loads(line) for line in fh)
    run.attempted += len(cells)
    for cell in cells:
        if "error" in cell:
            run.failed += 1
            run.problems.append(f"{what} {cell_key(cell)}: {cell['error']}")
    if code != 0 or not cells:
        if not cells:
            run.fail(f"{what}: no cell records")
        return None
    with open(os.path.join(cell_dir, "rss.json"), encoding="utf-8") as fh:
        rss = json.load(fh)["peak_rss_mb"]
    return {"cells": cells, "spawn_ns": spawn_ns, "wall_s": wall_s,
            "peak_rss_mb": rss, "out": out_dir,
            "spans": [os.path.join(cell_dir, n) for n in sorted(names)
                      if n.startswith("spans-")]}


def cell_key(cell):
    return f"{cell['dataset']}/{cell['method']}/run{cell['run_index']}"


def cli_layers(invocation, jobs):
    cells = invocation["cells"]
    durations = [(c["end_ns"] - c["start_ns"]) / 1e9 for c in cells]
    return {
        "cli.cell_s.p50": float(statistics.median(durations)),
        "cli.cell_s.p90": float(sorted(durations)[
            min(len(durations) - 1, int(0.9 * len(durations)))]),
        "cli.startup_s": (min(c["start_ns"] for c in cells)
                          - invocation["spawn_ns"]) / 1e9,
        "cli.pool_busy_frac": sum(durations) / (jobs * invocation["wall_s"]),
    }


def check_cells(run, spec, invocation, what, traced):
    """Per-cell FE checks; returns the FE/s of each healthy cell."""
    from swarmpnn.hybrid import HybridConfig
    from worker import check_training

    n_t = {(name, r): train.n_samples
           for name, r, train in train_splits(run, spec)}
    cfg = HybridConfig(smoothing_kind=spec["kind"], **spec["hybrid"])
    rates, overshoot, ties = [], 0, 0
    for cell in invocation["cells"]:
        if "error" in cell:
            continue
        key = f"{what} {cell_key(cell)}"
        problems, over = check_training(
            cell["evaluations"], cell["trace"], cfg,
            n_t[cell["dataset"], cell["run_index"]],
            cell.get("objective_calls") if traced else None,
            single=cell["method"] != "hybrid")
        run.failed += bool(problems)
        run.problems += [f"{key}: {p}" for p in problems]
        overshoot += over
        ties += sum(r["tie_break"] for r in cell["trace"])
        rates.append(cell["evaluations"]
                     / ((cell["end_cpu_ns"] - cell["start_cpu_ns"]) / 1e9))
    counts = {"hybrid.evaluations": sum(c.get("evaluations", 0)
                                        for c in invocation["cells"]),
              "hybrid.fe_overshoot": overshoot, "hybrid.tie_breaks": ties}
    return rates, counts


def grid(run, spec, _spec_path):
    """One panel invocation (config seed FIXED_SEED), then invocations with
    --seed as config seed until the time is up; at least two of those, so
    that their ``--out`` trees can be compared."""
    def config(seed):
        return cli_config(run, spec, seed, list(spec["csv"]),
                          list(CLI_METHODS), run.workload["runs"],
                          {**spec["hybrid"], "smoothing_kind": spec["kind"]})

    seeded = config(spec["seed"])
    start = time.monotonic()
    invocations, rates = [], []
    while len(invocations) < 3 or time.monotonic() - start < run.seconds:
        what = f"grid {len(invocations)}"
        invocation = cli_invocation(
            run, seeded if invocations else config(spec["panel_seed"]), what,
            run.jobs, traced=False)
        if invocation is None:
            break
        rates += check_cells(run, spec, invocation, what, traced=False)[0]
        invocations.append(invocation)
    if len(invocations) < 3:
        return {}, {}
    run.info["invocations"] = [
        {"wall_s": i["wall_s"], "cells": [
            {k: c.get(k) for k in ("dataset", "method", "run_index",
                                   "evaluations", "stop_reason")}
            | {"seconds": (c["end_ns"] - c["start_ns"]) / 1e9,
               "cpu_s": (c["end_cpu_ns"] - c["start_cpu_ns"]) / 1e9}
            for c in i["cells"]]}
        for i in invocations]
    reference = tree_bytes(invocations[1]["out"])
    for i, invocation in enumerate(invocations[2:], 2):
        if tree_bytes(invocation["out"]) != reference:
            run.fail(f"grid {i}: --out tree differs from grid 1")
    results = []
    with open(os.path.join(invocations[0]["out"], "summary.json"),
              encoding="utf-8") as fh:
        for methods in json.load(fh)["results"].values():
            for method in methods.values():
                results += [r["test_error"] for r in method["runs"]]
    e2e = {"fe_per_s": fe_rate(rates),
           "peak_rss_mb": max(i["peak_rss_mb"] for i in invocations),
           "test_accuracy": 1.0 - statistics.fmean(results)}
    if not run.args.trace:
        return e2e, {}

    from tracer import layer_metrics, read_chunks

    traced = cli_invocation(run, seeded, "traced grid", run.jobs, traced=True)
    if traced is None:
        return e2e, {}
    if tree_bytes(traced["out"]) != reference:
        run.fail("traced grid: --out tree differs from grid 1")
    counts = check_cells(run, spec, traced, "traced grid", traced=True)[1]
    layers = layer_metrics(read_chunks(traced["spans"]), METHODS)
    layers.update(counts)
    layers.update(cli_layers(traced, run.jobs))
    return e2e, layers


# ---------------------------------------------------------------------------
# Correctness of the objective against the exact oracle (untimed)
# ---------------------------------------------------------------------------

def train_splits(run, spec):
    """(dataset, index, train split) of the splits the workload trains on:
    the first training runs in-process, every run index on the grid."""
    from swarmpnn import datasets
    from worker import plain_call, op_seed, split

    if "runs" in run.workload:
        seeds = [spec["seed"] + r for r in range(run.workload["runs"])]
    else:
        seeds = [op_seed(spec["seed"], k)
                 for k in range(run.workload["oracle_splits"])]
    for name, path in spec["csv"].items():
        ds = datasets.load_csv(path)
        for index, seed in enumerate(seeds):
            yield name, index, split(ds, seed, plain_call)[0]


def loo_exactness(run, spec):
    from oracle import candidates, check_objective
    from swarmpnn.pnn import Smoothing

    count = run.workload["candidates"]
    if run.args.smoke:
        count = 10
    oracle = run.info["loo_oracle"] = {}
    for name, index, train in train_splits(run, spec):
        dim = Smoothing.vector_length(spec["kind"], train.n_classes,
                                      train.n_features)
        vectors = candidates([spec["seed"], list(spec["csv"]).index(name),
                              index], count, dim)
        m, w, n = check_objective(train, spec["kind"], vectors)
        totals = oracle.setdefault(name, {"mismatched": 0,
                                          "runtime_warnings": 0,
                                          "candidates": 0})
        for key, value in zip(totals, (m, w, n)):
            totals[key] += value
    return (sum(t["mismatched"] for t in oracle.values())
            / sum(t["candidates"] for t in oracle.values()))


# ---------------------------------------------------------------------------

def provenance():
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets and few candidates")
    parser.add_argument("--record", help="also write the full report here")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swarmpnn", "__init__.py")):
        print(f"bench: no swarmpnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import swarmpnn

    if os.path.dirname(os.path.dirname(os.path.abspath(swarmpnn.__file__))) != SRC:
        print(f"bench: imported swarmpnn from {swarmpnn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    os.makedirs(WORK_DIR, exist_ok=True)
    run = Run(args)
    try:
        spec, spec_path = prepare_inputs(run)
        setup = []
        measure_setup(run, spec_path, setup, SETUP_ROUNDS[0])
        body = grid if args.workload == "grid-pcf" else in_process
        e2e, layers = body(run, spec, spec_path)
        measure_setup(run, spec_path, setup, SETUP_ROUNDS[1])
        e2e["loo_mismatch_frac"] = loo_exactness(run, spec)
        measure_setup(run, spec_path, setup, SETUP_ROUNDS[2])
        run.info["setup_samples_s"] = setup
        if setup:
            e2e["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    measured = layers if args.trace else e2e
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        run.fail(f"not measured: {', '.join(missing)}")
    report = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "jobs": run.jobs,
              "provenance": provenance(), "problems": run.problems,
              "failed_frac": report["failed"] / report["attempted"],
              "end_to_end": e2e, "per_layer": layers, **run.info}
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {report['attempted']} "
          f"attempted, {report['failed']} failed, failed_frac "
          f"{record['failed_frac']:.4g}")
    for name, metric in report["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# loo oracle: {json.dumps(run.info.get('loo_oracle'))}")
    print(f"# inputs: {json.dumps(run.info.get('inputs'))}")
    print(f"# provenance: {json.dumps(record['provenance'])}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
