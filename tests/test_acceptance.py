"""Acceptance gate: one test per criterion, run with ``pytest -v`` so every
criterion reports its own pass/fail line.

Criteria needing Banknote or Thyroid data skip with an explicit BLOCKED
message when those datasets cannot be materialized (they are not bundled,
scikit-learn does not ship them, and the build sandbox has no network
access); everything else runs unconditionally. Scale choices follow the
stated relaxations: Banknote uses probing/fit multipliers 10/30 with the
accuracy band at 0.98, and the portfolio-benefit suite runs 3 seeds at
multipliers 3/10 with equal-FE single-method baselines.
"""

import json
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from swarmpnn import cli
from swarmpnn.datasets import (
    DatasetValidationWarning,
    SplitSpec,
    dataset_path,
    load_benchmark,
    load_csv,
    stratified_split,
)
from swarmpnn.hybrid import HybridConfig, hybrid_minimize, loo_objective, train_hybrid
from swarmpnn.metrics import compute_metrics, rank
from swarmpnn.pnn import (
    Dataset,
    DensityEvaluator,
    ModificationConfig,
    PnnModel,
    Smoothing,
    apply_modification,
    class_density,
)
from test_metrics import TABLE_AVG_ACCURACY
from test_pnn import random_instance, random_smoothing

SUITE = ("iris", "banknote", "cancer", "thyroid")
BLOCKED = ("BLOCKED: {} data unavailable (not bundled, no local provider, "
           "and no network access in this environment)")


def note(criterion, message):
    print(f"[acceptance {criterion}] {message}")


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.calls_at_first_zero = None

    def __call__(self, x):
        self.calls += 1
        value = self.fn(x)
        if value == 0.0 and self.calls_at_first_zero is None:
            self.calls_at_first_zero = self.calls
        return value


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    # honor a populated fetch cache so connected machines run the full gate
    configured = os.environ.get("SWARMPNN_DATA")
    if configured and os.path.isdir(configured):
        return configured
    return str(tmp_path_factory.mktemp("acceptance_data"))


@pytest.fixture(scope="session")
def available(data_dir):
    paths = {}
    for name in SUITE:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DatasetValidationWarning)
                load_benchmark(name, data_dir)
            paths[name] = dataset_path(name, data_dir)
        except Exception:
            paths[name] = None
    return paths


def load_split(paths, name, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DatasetValidationWarning)
        ds = load_csv(paths[name])
    return stratified_split(ds, SplitSpec(0.2, seed=seed))


def accuracy_on(train, test, smoothing):
    evaluator = DensityEvaluator(train, test.features)
    metrics = compute_metrics(evaluator.predict(smoothing), test.labels,
                              train.n_classes)
    return metrics.accuracy


@pytest.fixture(scope="session")
def suite_benchmark(available, data_dir, tmp_path_factory):
    """One shared benchmark over the suite datasets that are available.

    With the full suite the grid covers the portfolio plus all five single
    methods (criterion 7); otherwise it runs portfolio cells only, which is
    all criterion 8 needs.
    """
    names = [n for n in SUITE if available[n]]
    if not names:
        return None
    full = all(available[n] for n in SUITE)
    methods = (["hybrid", "pso", "fpa", "bat", "bfo", "sa"]
               if full else ["hybrid"])
    runs = 3 if full else 4
    out = str(tmp_path_factory.mktemp("suite_benchmark"))
    config = {
        "datasets": names,
        "methods": methods,
        "runs": runs,
        "seed": 0,
        "jobs": 2,
        "paths": {n: available[n] for n in names},
        "hybrid": {"probing_multiplier": 3, "fit_multiplier": 10},
    }
    cfg_path = Path(out) / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["benchmark", "--config", str(cfg_path), "--out", out])
    assert rc == 0
    summary = json.loads((Path(out) / "summary.json").read_text())
    return {"out": out, "names": names, "methods": methods, "runs": runs,
            "full": full, "summary": summary}


def test_c01_class_density_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for _ in range(1000):
        ds = random_instance(rng, max_p=20, max_n=4, max_g=3)
        sm = random_smoothing(rng, ds)
        model = PnnModel(ds, sm)
        rows = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
        x = rng.normal(0, 2, size=ds.n_features)
        j = int(rng.integers(ds.n_classes))
        want = oracles.class_density(ds.features.tolist(), ds.labels.tolist(),
                                     [1.0] * ds.n_samples, rows, x.tolist(), j)
        have = class_density(model, x, j)
        assert have == pytest.approx(want, rel=1e-10)
    elapsed = time.perf_counter() - started
    note("c01", f"1000 instances agreed to 1e-10 in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_c02_zero_intensity_modification_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ds = random_instance(rng)
        model = PnnModel(ds, random_smoothing(rng, ds))
        out = apply_modification(model, ModificationConfig(intensity=0.0))
        assert np.all(out.pattern_scales == 1.0)
    note("c02", "pattern scales stay exactly 1 at zero intensity")


def test_c03_fe_budgets_match_published_formulas(available):
    if not available["iris"]:
        pytest.skip(BLOCKED.format("iris"))
    train, test = load_split(available, "iris", seed=0)
    n_t = train.n_samples
    cfg = HybridConfig(seed=0)  # published scale: multipliers 30 and 100
    probe_cap, fit_cap = cfg.probe_cap(n_t), cfg.fit_cap(n_t)
    batch = cfg.population_size * n_t
    assert probe_cap == cfg.population_size * n_t * 30
    assert fit_cap == cfg.population_size * n_t * 100

    counting = CountingObjective(loo_objective(train))
    test_eval = DensityEvaluator(train, test.features)

    def converged(position, fitness):
        sm = Smoothing("per_feature", np.maximum(position, 1e-12))
        return test_eval.error_rate(sm, test.labels) <= cfg.fitness_threshold

    result = hybrid_minimize(counting, train.n_features, cfg, eval_cost=n_t,
                             converged=converged)
    phase_total = 0
    for record in result.trace:
        for method, used in record.probe_evals.items():
            phase_total += used
            if record.probe_scores[method] <= cfg.fitness_threshold:
                assert used <= probe_cap + batch  # early-converged probe
            else:
                assert probe_cap - batch <= used <= probe_cap + batch
        phase_total += record.fit_evals
        if record.fit_evals:
            assert fit_cap - batch <= record.fit_evals <= fit_cap + batch
    assert counting.calls * n_t == phase_total == result.evaluations
    note("c03", f"{len(result.trace)} iterations, every phase within one "
         f"batch of its cap; {counting.calls} objective calls")


def test_c04_rank_reproduces_published_table():
    assert rank(TABLE_AVG_ACCURACY) == {
        "hybrid": 10, "bat": 3, "bfo": 3, "pso": 2, "fpa": 0, "sa": 1}
    note("c04", "published avg-accuracy table ranks to 10/3/3/2/0/1")


def test_c05_banknote_max_accuracy(available):
    if not available["banknote"]:
        pytest.skip(BLOCKED.format("banknote"))
    accuracies = []
    for run in range(10):
        train, test = load_split(available, "banknote", seed=run)
        cfg = HybridConfig(seed=run, probing_multiplier=10, fit_multiplier=30)
        result = train_hybrid(train, test, cfg)
        accuracies.append(accuracy_on(train, test, result.smoothing))
    note("c05", f"banknote max accuracy {max(accuracies):.3f} over 10 runs")
    assert max(accuracies) >= 0.98


def test_c06_iris_accuracy_bands(available):
    if not available["iris"]:
        pytest.skip(BLOCKED.format("iris"))
    accuracies = []
    for run in range(10):
        train, test = load_split(available, "iris", seed=run)
        cfg = HybridConfig(seed=run)  # published 30/100 budgets
        result = train_hybrid(train, test, cfg)
        accuracies.append(accuracy_on(train, test, result.smoothing))
    avg, best = float(np.mean(accuracies)), float(np.max(accuracies))
    note("c06", f"iris avg {avg:.3f}, max {best:.3f} over 10 runs")
    assert 0.85 <= avg <= 1.0
    assert best >= 0.93


def test_c07_portfolio_beats_median_single(suite_benchmark):
    if suite_benchmark is None or not suite_benchmark["full"]:
        missing = [n for n in SUITE
                   if suite_benchmark is None
                   or n not in suite_benchmark["names"]]
        pytest.skip(BLOCKED.format("+".join(missing)))
    results = suite_benchmark["summary"]["results"]
    wins = 0
    for name in SUITE:
        hybrid_avg = results[name]["hybrid"]["summary"]["avg_accuracy"]
        singles = [results[name][m]["summary"]["avg_accuracy"]
                   for m in ("pso", "fpa", "bat", "bfo", "sa")]
        if hybrid_avg >= float(np.median(singles)):
            wins += 1
    note("c07", f"portfolio >= median single on {wins} of 4 suite datasets")
    assert wins >= 3


def test_c08_selection_frequency_consistency(suite_benchmark):
    if suite_benchmark is None:
        pytest.skip(BLOCKED.format("every suite dataset"))
    portfolio = ("pso", "fpa", "bat", "bfo", "sa")
    selected_somewhere = set()
    for name in suite_benchmark["names"]:
        csv_path = Path(suite_benchmark["out"]) / "selection" / f"{name}.csv"
        lines = csv_path.read_text().splitlines()[1:]
        counts = {}
        for line in lines:
            method, iteration, count = line.split(",")
            assert method in portfolio
            counts[(method, int(iteration))] = int(count)
        executed = suite_benchmark["summary"]["results"][name]["hybrid"][
            "iterations_executed"]
        assert len(executed) == suite_benchmark["runs"]
        assert sum(counts.values()) == sum(executed)
        selected_somewhere |= {m for (m, _), c in counts.items() if c > 0}
    note("c08", f"selection counts consistent; methods selected across suite: "
         f"{sorted(selected_somewhere)}")
    assert selected_somewhere == set(portfolio)


def test_c09_benchmark_is_byte_deterministic(available, tmp_path):
    if not available["iris"]:
        pytest.skip(BLOCKED.format("iris"))
    config = {
        "datasets": ["iris"],
        "methods": ["hybrid", "sa"],
        "runs": 2,
        "seed": 5,
        "paths": {"iris": available["iris"]},
        "hybrid": {"iterations": 2, "population_size": 8,
                   "probing_multiplier": 2, "fit_multiplier": 4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    trees = []
    for label in ("first", "second"):
        out = tmp_path / label
        assert cli.main(["benchmark", "--config", str(cfg_path),
                         "--out", str(out), "--charts"]) == 0
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]
    note("c09", f"{len(trees[0])} output files byte-identical across reruns")


def test_c10_separable_data_converges_and_stops_charging():
    rng = np.random.default_rng(11)
    features = np.vstack([rng.normal(0.0, 0.5, size=(40, 2)),
                          rng.normal(50.0, 0.5, size=(40, 2))])
    ds = Dataset(features, [0] * 40 + [1] * 40)
    train, test = stratified_split(ds, SplitSpec(0.2, seed=1))
    cfg = HybridConfig(seed=1)
    counting = CountingObjective(loo_objective(train))
    result = hybrid_minimize(counting, 2, cfg, eval_cost=train.n_samples)
    assert result.best_fitness == 0.0
    assert result.stop_reason == "train_threshold"
    assert len(result.trace) == 1
    extra_calls = counting.calls - counting.calls_at_first_zero
    assert extra_calls < cfg.population_size
    sm = Smoothing("per_feature", np.maximum(result.best_position, 1e-12))
    assert DensityEvaluator(train, test.features).error_rate(
        sm, test.labels) == 0.0
    note("c10", f"converged to zero error; {extra_calls} objective calls "
         f"after the zero (allowance {cfg.population_size})")
