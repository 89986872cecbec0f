"""SHA-256 over a fixed set of seeded training results and optimizer runs.

Two checkouts that print the same digests train to the same bandwidths,
errors, evaluation counts, stop reasons and traces, bit for bit. The script
imports the ``swarmpnn`` (and the ``bench/inputs.py`` data generator) of its
own checkout, so a second copy of the repository can be compared with this
one by running the same copy of the script in each:

    python tools/seeded_hash.py

It prints five lines. The first is the original iris digest over 48 results:
split seeds 0-5, each of the four smoothing kinds, and both ``train_hybrid``
and ``train_single("pso")``, with 2 iterations and probing and fit
multipliers 3 and 10. The second, wider digest covers those 48 and adds:

- ``train_hybrid`` and all five ``train_single`` methods, ``per_feature``
  and ``per_class_feature``, on iris (split seeds 0-1) and on the seeded
  synthetic 6-class ``glass-shape`` set of ``bench/inputs.py``;
- the same on two seeded separable 2-class sets, where a probe converges
  during the initial evaluations or mid-generation (``train_threshold``);
- ``train_hybrid`` on iris with probing and fit multipliers 1 and 3, where
  every probe ends exactly after its initial evaluations and the tied
  winner's state carries into the fit phase;
- direct ``Optimizer.run`` calls of every method on a 3-D quadratic, with
  caps that are and are not multiples of the population, evaluation costs
  1 and 3, and targets that are never or are hit mid-generation. A second
  ``run`` on the same optimizer with a fresh population and three times the
  cap mimics the probe-to-fit reuse. Each enters the hash with its
  positions, fitness, ``evaluations`` (under the key ``used``), best-seen
  archive and the optimizer's next ``rng.uniform()``.

The third digest covers everything the second does and adds runs where the
leave-one-out fill crosses tiles and the per-class layout copies its cross
blocks: ``train_hybrid`` and ``train_single("pso")``, ``per_feature`` and
``per_class_feature``, at population 20, one iteration and probing and fit
multipliers 1, on the raw-scale ``wide-raw`` set of ``bench/inputs.py`` and
on two seeded Gaussian sets generated here, one banknote-like (762 and 610
rows, 4 features) and one ecoli-like (143, 77, 52, 35, 20 and 5 rows, 7
features).

Training results rarely move with a last-bit change in the engine, so the
fourth digest hashes what it computes for each candidate: the bytes of the
leave-one-out ``class_densities`` of ``Smoothing(kind, values)``, then those
of its leave-one-out ``error_rate``, for 10 seeded candidates per smoothing
kind, drawn log-uniformly from 1e-2 to 1e3, each kind on a fresh evaluator,
on the training splits of iris, ``glass-shape``, ``wide-raw`` and the
banknote-like and ecoli-like sets. The densities come from the exact
log-space path. The error rates pin the argmaxes that the linear sums
settle: in float64 at the three small sets, in certified float32 at the
multi-tile ``wide-raw`` and banknote-like layouts, and in either case with
rows sent on to the exact path, since the candidates span both regimes.

Each result enters the first three hashes as sorted JSON; Python writes
floats in their shortest round-trip form.

The fifth digest pins what the command line writes. In a temporary working
directory it runs, in-process and with ``--jobs 1``, ``swarmpnn benchmark``
with all six methods, 2 runs, small budgets and ``--charts`` on iris (taken
from the registry into ``./data``) and ``bench/inputs.py``'s ``glass-shape``
set (from ``paths``), once for ``per_feature`` and once for
``per_class_feature`` with ``zscore`` on, then ``swarmpnn train`` for
``hybrid`` and ``pso``, 2 runs each, on ``glass-shape`` through
``--dataset-path``. It hashes the relative path and bytes of every file the
runs write.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "bench"))

import swarmpnn  # noqa: E402
from inputs import synthetic, write_synthetic  # noqa: E402
from swarmpnn import cli  # noqa: E402
from swarmpnn.datasets import (  # noqa: E402
    REGISTRY,
    SplitSpec,
    load_csv,
    stratified_split,
)
from swarmpnn.hybrid import HybridConfig, train_hybrid, train_single  # noqa: E402
from swarmpnn.optimizers import METHOD_NAMES, make_optimizer  # noqa: E402
from swarmpnn.pnn import Dataset, DensityEvaluator, Smoothing  # noqa: E402

SEEDS = range(6)
WIDE_KINDS = ("per_feature", "per_class_feature")
# (class counts, features) of the seeded Gaussian sets of the third digest
SHAPE_SETS = (((762, 610), 4), ((143, 77, 52, 35, 20, 5), 7))
# seeded candidates per smoothing kind and set of the fourth digest
CANDIDATES = 10
# small budgets of the command-line runs of the fifth digest
CLI_BUDGET = {"iterations": 2, "population_size": 8, "probing_multiplier": 2,
              "fit_multiplier": 4}
# (cap in objective calls, eval_cost, target) of the first of two direct
# optimizer runs; the second gets three times the cap
RUN_CASES = (
    (20, 1, -np.inf),
    (20 * 3 + 7, 1, -np.inf),
    (20 * 11 + 13, 1, 2.0),
    (20 * 40 + 1, 3, 0.05),
)


def _iris():
    return load_csv(Path(swarmpnn.__file__).parent / "data" / "iris.csv",
                    REGISTRY["iris"])


def _config(seed, kind, probing=3, fit=10):
    return HybridConfig(iterations=2, probing_multiplier=probing,
                        fit_multiplier=fit, seed=seed, smoothing_kind=kind)


def iris_results():
    iris = _iris()
    for seed in SEEDS:
        train, test = stratified_split(iris, SplitSpec(0.2, seed=seed))
        for kind in Smoothing.KINDS:
            cfg = _config(seed, kind)
            yield train_hybrid(train, test, cfg)
            yield train_single(train, test, "pso", cfg)


def _separable(gap):
    rng = np.random.default_rng(7)
    features = np.vstack([rng.normal(0.0, 1.0, size=(30, 2)),
                          rng.normal(gap, 1.0, size=(30, 2))])
    return Dataset(features, [0] * 30 + [1] * 30)


def wide_results():
    iris = _iris()
    sets = [(iris, 0), (iris, 1), (Dataset(*synthetic("glass-shape", 0)), 0),
            (_separable(3.0), 0), (_separable(4.0), 0)]
    for ds, seed in sets:
        train, test = stratified_split(ds, SplitSpec(0.2, seed=seed))
        for kind in WIDE_KINDS:
            cfg = _config(seed, kind)
            yield train_hybrid(train, test, cfg)
            for method in METHOD_NAMES:
                yield train_single(train, test, method, cfg)
    train, test = stratified_split(iris, SplitSpec(0.2, seed=0))
    for run in SEEDS:
        yield train_hybrid(train, test, _config(run, "per_feature", 1, 3))


def _clusters(counts, n_features, seed):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(labels)
    centres = rng.normal(0.0, 1.0, size=(len(counts), n_features))
    return Dataset(centres[labels] + rng.normal(
        0.0, 1.0, size=(len(labels), n_features)), labels)


def _shape_sets():
    yield Dataset(*synthetic("wide-raw", 0))
    for seed, (counts, n) in enumerate(SHAPE_SETS):
        yield _clusters(counts, n, seed)


def shape_results():
    for ds in _shape_sets():
        train, test = stratified_split(ds, SplitSpec(0.2, seed=0))
        for kind in WIDE_KINDS:
            cfg = HybridConfig(iterations=1, probing_multiplier=1,
                               fit_multiplier=1, seed=0, smoothing_kind=kind)
            yield train_hybrid(train, test, cfg)
            yield train_single(train, test, "pso", cfg)


def loo_densities():
    """Bytes of leave-one-out class densities and error rate, per set,
    kind and candidate."""
    sets = [_iris(), Dataset(*synthetic("glass-shape", 0)), *_shape_sets()]
    for index, ds in enumerate(sets):
        train, _ = stratified_split(ds, SplitSpec(0.2, seed=0))
        g, n = train.n_classes, train.n_features
        for kind, (per_class, per_feature) in Smoothing.LAYOUTS.items():
            rng = np.random.default_rng([index, Smoothing.KINDS.index(kind)])
            shape = (g,) * per_class + (n,) * per_feature
            evaluator = DensityEvaluator(train, train.features,
                                         exclude_self=True)
            for _ in range(CANDIDATES):
                values = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), shape))
                sm = Smoothing(kind, values)
                yield (evaluator.class_densities(sm).tobytes() + np.float64(
                    evaluator.error_rate(sm, train.labels)).tobytes())


def _quadratic(x):
    return float(np.sum(((np.asarray(x) - 3.0) / [1.0, 2.0, 0.5]) ** 2))


def optimizer_runs():
    for index, method in enumerate(METHOD_NAMES):
        for case, (calls, eval_cost, target) in enumerate(RUN_CASES):
            rng = np.random.default_rng([index, case])
            opt = make_optimizer(method, 3, (0.0, 10.0), [index, case, 1])
            runs = []
            for repeat in (1, 3):
                opt.run(rng.uniform(0.0, 10.0, size=(20, 3)), _quadratic,
                        repeat * calls * eval_cost - eval_cost // 2, eval_cost,
                        target=target)
                runs.append({"positions": opt.positions.tolist(),
                             "fitness": opt.fitness.tolist(),
                             "used": opt.evaluations,
                             "best_fitness": opt.best_fitness,
                             "best_position": opt.best_position.tolist()})
            yield {"method": method, "case": case, "runs": runs,
                   "next_uniform": float(opt.rng.uniform())}


def _cli_commands():
    path = write_synthetic("glass-shape", 0, ".")["path"]
    for kind, zscore in (("per_feature", False), ("per_class_feature", True)):
        with open(f"{kind}.json", "w", encoding="utf-8") as fh:
            json.dump({"datasets": ["iris", "glass-shape"],
                       "methods": list(cli.DEFAULT_METHODS), "runs": 2,
                       "data_dir": "data", "paths": {"glass-shape": path},
                       "zscore": zscore,
                       "hybrid": {**CLI_BUDGET, "smoothing_kind": kind}}, fh)
        yield ["benchmark", "--config", f"{kind}.json", "--out",
               f"out/{kind}", "--jobs", "1", "--charts"]
    for method in ("hybrid", "pso"):
        yield (["train", "--dataset", "glass-shape", "--dataset-path", path,
                "--method", method, "--runs", "2", "--seed", "3", "--out",
                "out/train"]
               + [f"--{key.replace('_', '-')}={value}"
                  for key, value in CLI_BUDGET.items()])


def cli_outputs():
    """Relative path and bytes of each file the command-line runs write."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in _cli_commands():
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"swarmpnn {argv} failed")
            for path in sorted(Path("out").rglob("*")):
                if path.is_file():
                    data = path.read_bytes()
                    yield (f"{path.relative_to('out')}\0{len(data)}\0"
                           .encode() + data)
        finally:
            os.chdir(cwd)


def _train_record(result):
    return {"smoothing": result.smoothing.values.tolist(),
            "train_error": result.train_error,
            "test_error": result.test_error,
            "evaluations": result.evaluations,
            "stop_reason": result.stop_reason,
            "trace": [r.to_jsonable() for r in result.trace]}


def training_digests():
    """The first three digests and the number of records of each group."""
    iris, wide, shapes = (hashlib.sha256() for _ in range(3))
    counts = {"iris": 0, "wide": 0, "runs": 0, "shapes": 0}
    # each group enters its own digest and every wider one
    groups = (("iris", map(_train_record, iris_results()),
               (iris, wide, shapes)),
              ("wide", map(_train_record, wide_results()), (wide, shapes)),
              ("runs", optimizer_runs(), (wide, shapes)),
              ("shapes", map(_train_record, shape_results()), (shapes,)))
    for name, records, digests in groups:
        for record in records:
            line = json.dumps(record, sort_keys=True).encode() + b"\n"
            for digest in digests:
                digest.update(line)
            counts[name] += 1
    return iris, wide, shapes, counts


def main() -> int:
    if Path(swarmpnn.__file__).resolve().parent.parent != SRC:
        print(f"swarmpnn imported from {swarmpnn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    iris, wide, shapes, counts = training_digests()
    print(f"{iris.hexdigest()}  ({counts['iris']} seeded iris results)")
    print(f"{wide.hexdigest()}  ({counts['iris']} iris, {counts['wide']} "
          f"wider training results, {counts['runs']} optimizer runs)")
    print(f"{shapes.hexdigest()}  (all of the above and {counts['shapes']} "
          f"results at the wide-raw, banknote and ecoli shapes)")
    sums = hashlib.sha256()
    for count, densities in enumerate(loo_densities(), 1):
        sums.update(densities)
    print(f"{sums.hexdigest()}  ({count} leave-one-out class density arrays "
          f"and error rates at the iris, glass, wide-raw, banknote and ecoli "
          f"shapes)")
    outputs = hashlib.sha256()
    for count, output in enumerate(cli_outputs(), 1):
        outputs.update(output)
    print(f"{outputs.hexdigest()}  ({count} files written by swarmpnn "
          f"benchmark and train)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
