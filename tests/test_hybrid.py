import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from swarmpnn import pnn
from swarmpnn.datasets import (
    BUNDLED_DIR,
    SplitSpec,
    load_csv,
    stratified_split,
)
from swarmpnn.hybrid import (
    HybridConfig,
    hybrid_minimize,
    loo_objective,
    probe_phase,
    train_hybrid,
    train_single,
)
from swarmpnn.optimizers import Optimizer
from swarmpnn.pnn import (
    BANDWIDTH_FLOOR,
    Dataset,
    DensityEvaluator,
    PnnModel,
    Smoothing,
    classify_batch,
)

# critical value of the chi-squared distribution, 4 dof, alpha = 0.01
CHI2_4DOF_99 = 13.2767


def sphere(x):
    return float(np.sum((np.asarray(x) - 5.0) ** 2))


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def small_cfg(**kw):
    defaults = dict(iterations=2, population_size=8,
                    probing_multiplier=2, fit_multiplier=4,
                    bounds=(0.0, 10.0), init_range=(0.0, 10.0), seed=0)
    defaults.update(kw)
    return HybridConfig(**defaults)


def separable_dataset(rng):
    a = rng.normal(0.0, 0.3, size=(15, 1))
    b = rng.normal(100.0, 0.3, size=(15, 1))
    return Dataset(np.vstack([a, b]), [0] * 15 + [1] * 15)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(iterations=0)
        # flower pollination's local step draws two distinct members
        with pytest.raises(ValueError, match="population_size"):
            HybridConfig(population_size=1)
        with pytest.raises(ValueError):
            HybridConfig(methods=("pso", "nope"))
        with pytest.raises(ValueError):
            HybridConfig(init_range=(5.0, 20000.0))
        with pytest.raises(ValueError):
            HybridConfig(probing_multiplier=0)
        # probe results are keyed by method name, so a repeat would lose
        # its first probe's evaluations from the count
        with pytest.raises(ValueError):
            HybridConfig(methods=("pso", "pso"))

    @pytest.mark.parametrize("key, value", [
        ("population_size", 8.0), ("iterations", 2.5), ("iterations", True),
        ("probing_multiplier", 1.5), ("fit_multiplier", 10.0),
        ("seed", 1.7), ("seed", True)])
    def test_counts_and_seed_must_be_integers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            HybridConfig(**{key: value})

    @pytest.mark.parametrize("method_params", [
        {"cmaes": {}}, {"pso": {"bogus": 1}}], ids=["unknown-method",
                                                    "unknown-parameter"])
    def test_method_params_checked_at_construction(self, method_params):
        with pytest.raises(ValueError):
            HybridConfig(method_params=method_params)

    def test_numpy_integers_accepted(self):
        cfg = HybridConfig(population_size=np.int64(8), seed=np.int32(3))
        assert cfg.probe_cap(2) == 8 * 2 * 30

    def test_budget_caps(self):
        cfg = HybridConfig()
        assert cfg.probe_cap(100) == 20 * 100 * 30
        assert cfg.fit_cap(100) == 20 * 100 * 100
        assert cfg.total_cap(100) == 5 * (5 * 30 + 100) * 20 * 100


class TestProbePhase:
    def test_budget_honored_per_method(self):
        cfg = small_cfg()
        counting = CountingObjective(sphere)
        positions = np.random.default_rng(0).uniform(0, 10, size=(8, 2))
        probe = probe_phase(positions, cfg, counting, eval_cost=5, iteration=0)
        cap = cfg.probe_cap(5)
        for method, used in probe.evals.items():
            assert used <= cap + 8 * 5
            assert used >= cap - 8 * 5
        assert counting.calls * 5 == sum(probe.evals.values())

    def test_dominant_method_always_wins(self):
        # freeze every method except fpa via zero-step parameters
        frozen = {
            "pso": {"omega": 0.0, "c1": 0.0, "c2": 0.0, "adjust_omega": False},
            "bat": {"max_f": 0.0, "loudness": 0.0},
            "bfo": {"c_i": 0.0, "p_ed": 0.0},
            "sa": {"d": 0.0},
        }
        cfg = small_cfg(method_params=frozen, probing_multiplier=5)
        for seed in range(5):
            positions = np.random.default_rng(seed).uniform(0, 10, size=(8, 2))
            probe = probe_phase(positions, cfg, sphere, eval_cost=1,
                                iteration=0)
            baseline = min(sphere(p) for p in positions)
            for method in ("pso", "bat", "bfo", "sa"):
                assert probe.scores[method] == baseline
            assert probe.scores["fpa"] < baseline
            assert probe.winner == "fpa"

    def test_tied_methods_all_observed_over_seeds(self):
        winners = set()
        for seed in range(40):
            cfg = small_cfg(seed=seed, population_size=4,
                            probing_multiplier=1, fit_multiplier=1)
            positions = np.random.default_rng(seed).uniform(0, 10, size=(4, 2))
            probe = probe_phase(positions, cfg, lambda x: 0.5, eval_cost=1,
                                iteration=0)
            assert sorted(probe.tied) == sorted(cfg.methods)
            winners.add(probe.winner)
        assert len(winners) == 5


class TestHybridMinimize:
    def test_single_method_portfolio_degenerates(self):
        cfg = small_cfg(methods=("pso",), iterations=3)
        result = hybrid_minimize(sphere, 2, cfg, eval_cost=1)
        assert [r.selected for r in result.trace] == ["pso"] * 3
        for record in result.trace:
            assert set(record.probe_scores) == {"pso"}
            assert record.probe_evals["pso"] <= cfg.probe_cap(1) + 8
            assert record.fit_evals <= cfg.fit_cap(1) + 8

    def test_selection_uniform_on_constant_objective(self):
        counts = {m: 0 for m in HybridConfig().methods}
        trials = 500
        for seed in range(trials):
            cfg = small_cfg(seed=seed, population_size=4, iterations=1,
                            probing_multiplier=1, fit_multiplier=1)
            result = hybrid_minimize(lambda x: 0.5, 2, cfg, eval_cost=1)
            counts[result.trace[0].selected] += 1
        expected = trials / 5
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < CHI2_4DOF_99, counts

    def test_iteration_budget_bound(self):
        cfg = small_cfg(iterations=3)
        counting = CountingObjective(sphere)
        result = hybrid_minimize(counting, 2, cfg, eval_cost=7)
        k = len(cfg.methods)
        batch = cfg.population_size * 7
        per_iter = k * cfg.probe_cap(7) + cfg.fit_cap(7) + (k + 1) * batch
        assert result.evaluations <= cfg.iterations * per_iter
        assert result.evaluations == counting.calls * 7
        for record in result.trace:
            assert sum(record.probe_evals.values()) + record.fit_evals <= per_iter

    def test_fractional_eval_cost_stops_before_any_call(self):
        # a cost of 2.5 would give caps of 2.5 units per call yet charge 2
        counting = CountingObjective(sphere)
        with pytest.raises(ValueError, match="eval_cost >= 1"):
            hybrid_minimize(counting, 2, small_cfg(), eval_cost=2.5)
        assert counting.calls == 0

    def test_global_best_consistency(self):
        cfg = small_cfg(iterations=3, seed=5)
        result = hybrid_minimize(sphere, 3, cfg, eval_cost=1)
        for record in result.trace:
            for score in record.probe_scores.values():
                assert result.best_fitness <= score
            assert result.best_fitness <= record.fit_fitness
        assert sphere(result.best_position) == result.best_fitness

    def test_fit_starts_from_winning_probe_population(self, monkeypatch):
        runs = []  # (optimizer, cap, start positions, returned positions)
        original = Optimizer.run

        def spy(opt, positions, objective, cap, *args, **kwargs):
            start = np.array(positions)
            end = original(opt, positions, objective, cap, *args, **kwargs)
            runs.append((opt, cap, start, end.copy()))
            return end

        monkeypatch.setattr(Optimizer, "run", spy)
        cfg = small_cfg(iterations=2, seed=9)
        result = hybrid_minimize(sphere, 2, cfg, eval_cost=1)
        fits = [run for run in runs if run[1] == cfg.fit_cap(1)]
        assert len(fits) == cfg.iterations
        for record, (opt, _, start, _) in zip(result.trace, fits):
            probes = [run for run in runs
                      if run[0] is opt and run[1] == cfg.probe_cap(1)]
            assert opt.name == record.selected and len(probes) == 1
            np.testing.assert_array_equal(start, probes[0][3])

    def test_cli_import_loads_no_hashlib(self):
        # nothing in training hashes; the import costs about 3 ms
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-c", "import sys, swarmpnn.cli; "
             "print('hashlib' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False"]

    def test_determinism(self):
        runs = []
        for _ in range(2):
            cfg = small_cfg(iterations=2, seed=11)
            result = hybrid_minimize(sphere, 2, cfg, eval_cost=1)
            runs.append(result)
        assert runs[0].best_fitness == runs[1].best_fitness
        np.testing.assert_array_equal(runs[0].best_position,
                                      runs[1].best_position)
        assert ([r.to_jsonable() for r in runs[0].trace]
                == [r.to_jsonable() for r in runs[1].trace])

    def test_early_stop_stops_charging_within_a_batch(self):
        # an objective hitting exactly zero ends everything within one batch
        target = np.array([5.0, 5.0])
        counting = CountingObjective(
            lambda x: float(np.sum(np.abs(np.asarray(x) - target))) if
            np.any(np.asarray(x) != target) else 0.0)
        cfg = small_cfg(iterations=4, seed=2, population_size=6,
                        probing_multiplier=50, fit_multiplier=50)

        calls_at_zero = []

        def spy(x):
            v = counting(x)
            if v == 0.0:
                calls_at_zero.append(counting.calls)
            return v

        result = hybrid_minimize(spy, 2, cfg, eval_cost=1)
        if result.best_fitness == 0.0:
            assert result.stop_reason == "train_threshold"
            assert counting.calls - calls_at_zero[0] < cfg.population_size

    def test_external_convergence_check_stops_outer_loop(self):
        seen = []

        def converged(pos, fit):
            seen.append(fit)
            return True

        cfg = small_cfg(iterations=5)
        result = hybrid_minimize(sphere, 2, cfg, eval_cost=1,
                                 converged=converged)
        assert result.stop_reason == "eval_threshold"
        assert len(result.trace) == 1
        assert len(seen) == 1


class TestFitness:
    def test_perfect_classifier_scores_zero(self):
        rng = np.random.default_rng(3)
        ds = separable_dataset(rng)
        train = ds.subset(np.arange(0, 30, 2))
        test = ds.subset(np.arange(1, 30, 2))
        held_out = DensityEvaluator(train, test.features)
        assert held_out.error_rate([[1.0]], test.labels) == 0.0

    def test_three_wrong_of_ten(self):
        train = Dataset([[0.0], [10.0]], [0, 1])
        # seven correctly labeled queries plus three near class 1 labeled 0
        queries = Dataset([[0.1]] * 5 + [[9.9]] * 5,
                          [0] * 5 + [1] * 2 + [0] * 3, n_classes=2)
        held_out = DensityEvaluator(train, queries.features)
        assert held_out.error_rate([[0.5]], queries.labels) == pytest.approx(0.3)

    def test_matches_oracle_classification(self):
        rng = np.random.default_rng(8)
        train = Dataset(rng.normal(0, 1, size=(12, 1)), rng.integers(0, 2, 12),
                        n_classes=2)
        test = Dataset(rng.normal(0, 1, size=(9, 1)), rng.integers(0, 2, 9),
                       n_classes=2)
        rows = [[1.0], [1.0]]
        preds = [oracles.classify(train.features.tolist(), train.labels.tolist(),
                                  [1.0] * 12, rows, x.tolist(), 2)
                 for x in test.features]
        want = float(np.mean(np.array(preds) != test.labels))
        held_out = DensityEvaluator(train, test.features)
        assert held_out.error_rate([[1.0]], test.labels) == pytest.approx(want)

    def test_dimension_mismatch_rejected(self):
        train = Dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        # G values would pass as one bandwidth per class under a (G, -1)
        # reshape; per_class_feature needs G * N
        with pytest.raises(ValueError):
            loo_objective(train, "per_class_feature")(np.ones(2))

    def test_loo_objective_never_sees_own_pattern(self):
        # a memorizing model would score zero; leave-one-out must not
        ds = Dataset([[0.0], [0.1], [100.0], [100.1]], [0, 1, 0, 1])
        objective = loo_objective(ds)
        assert objective(np.array([1.0])) > 0.0

    def test_loo_objective_scores_a_repeated_vector_once(self, monkeypatch):
        scored = []
        error_rate = DensityEvaluator.error_rate

        def counting(self, bandwidths, labels):
            scored.append(np.array(bandwidths))
            return error_rate(self, bandwidths, labels)

        monkeypatch.setattr(DensityEvaluator, "error_rate", counting)
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(20, 2)), [0, 1] * 10)
        objective = loo_objective(ds, "per_class_feature")
        vector = rng.uniform(0.1, 2.0, 4)
        first = objective(vector)
        # equal values as a copy, a list, a reshaped view and a strided view
        for same in (vector.copy(), vector.tolist(), vector.reshape(2, 2),
                     np.repeat(vector, 2)[::2]):
            value = objective(same)
            assert value == first
            assert np.float64(value).tobytes() == np.float64(first).tobytes()
        assert len(scored) == 1
        nudged = vector.copy()
        nudged[-1] = np.nextafter(nudged[-1], np.inf)
        objective(nudged)
        assert len(scored) == 2
        np.testing.assert_array_equal(scored[1].ravel(), nudged)
        # a fresh objective keeps no memo of another's vectors
        assert loo_objective(ds, "per_class_feature")(vector) == first
        assert len(scored) == 3


class TestTrainers:
    def test_separable_data_converges_in_first_iteration(self):
        rng = np.random.default_rng(4)
        ds = separable_dataset(rng)
        train = ds.subset(np.arange(0, 30, 2))
        test = ds.subset(np.arange(1, 30, 2))
        cfg = small_cfg(iterations=5, seed=3)
        result = train_hybrid(train, test, cfg)
        assert result.train_error == 0.0
        assert result.test_error == 0.0
        assert result.stop_reason == "train_threshold"
        assert len(result.trace) == 1
        # nothing charged beyond the batch that found the zero
        assert result.evaluations <= cfg.population_size * train.n_samples

    def test_single_method_training(self):
        rng = np.random.default_rng(6)
        ds = separable_dataset(rng)
        train = ds.subset(np.arange(0, 30, 2))
        test = ds.subset(np.arange(1, 30, 2))
        cfg = small_cfg(seed=7)
        result = train_single(train, test, "pso", cfg)
        assert result.test_error == 0.0
        assert result.trace == []
        assert result.evaluations <= cfg.total_cap(train.n_samples)

    @pytest.mark.parametrize("method", ["cmaes", "hybrid"])
    def test_single_method_training_names_an_unknown_method(self, method):
        ds = separable_dataset(np.random.default_rng(6))
        train = ds.subset(np.arange(0, 30, 2))
        test = ds.subset(np.arange(1, 30, 2))
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            train_single(train, test, method, small_cfg(seed=7))

    @pytest.mark.parametrize("kind,length", [
        ("scalar", 1), ("per_class", 2), ("per_feature", 1),
        ("per_class_feature", 2)])
    def test_other_smoothing_granularities(self, kind, length):
        rng = np.random.default_rng(15)
        ds = separable_dataset(rng)
        train = ds.subset(np.arange(0, 30, 2))
        test = ds.subset(np.arange(1, 30, 2))
        cfg = small_cfg(seed=1, smoothing_kind=kind)
        result = train_hybrid(train, test, cfg)
        assert result.smoothing.kind == kind
        assert result.smoothing.values.size == length
        assert result.test_error == 0.0

    def test_training_run_builds_one_smoothing(self, monkeypatch):
        # the objective scores grids; only the trained result is a Smoothing
        built = []
        init = Smoothing.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Smoothing, "__init__", counting_init)
        rng = np.random.default_rng(10)
        features = rng.normal(0, 1, size=(24, 2))
        labels = (features[:, 0] + rng.normal(0, 0.6, 24) > 0).astype(int)
        ds = Dataset(features, labels)
        train = ds.subset(np.arange(0, 24, 2))
        test = ds.subset(np.arange(1, 24, 2))
        cfg = small_cfg(seed=13, smoothing_kind="per_class_feature")
        result = train_hybrid(train, test, cfg)
        assert result.stop_reason == "iterations"
        assert result.evaluations > cfg.population_size * train.n_samples
        assert len(built) == 1

    def test_training_run_builds_one_held_out_evaluator(self, monkeypatch):
        # every iteration's stop check and the final prediction share one
        # evaluator of the test split
        built = []
        init = DensityEvaluator.__init__

        def counting_init(self, pattern_set, queries, exclude_self=False,
                          **kwargs):
            built.append(exclude_self)
            init(self, pattern_set, queries, exclude_self, **kwargs)

        monkeypatch.setattr(DensityEvaluator, "__init__", counting_init)
        rng = np.random.default_rng(10)
        features = rng.normal(0, 1, size=(24, 2))
        labels = (features[:, 0] + rng.normal(0, 0.6, 24) > 0).astype(int)
        ds = Dataset(features, labels)
        train = ds.subset(np.arange(0, 24, 2))
        test = ds.subset(np.arange(1, 24, 2))
        result = train_hybrid(train, test, small_cfg(iterations=3, seed=13))
        assert result.stop_reason == "iterations"
        assert len(result.trace) == 3
        assert sorted(built) == [False, True]

    @pytest.mark.parametrize("kind, method", [
        ("per_class_feature", "hybrid"), ("per_class_feature", "pso"),
        ("per_feature", "hybrid")])
    def test_training_run_lays_out_pairs_once(self, monkeypatch, kind,
                                              method):
        # the leave-one-out evaluator lays out its pairs at its first call,
        # for that call's number of bandwidth rows, and never again
        built = []
        loo_pairs = pnn._loo_pairs

        def counting(bounds, per_class):
            built.append(per_class)
            return loo_pairs(bounds, per_class)

        monkeypatch.setattr(pnn, "_loo_pairs", counting)
        rng = np.random.default_rng(11)
        features = rng.normal(0, 1, size=(36, 2))
        labels = np.digitize(features[:, 0] + rng.normal(0, 0.6, 36),
                             [-0.5, 0.5])
        ds = Dataset(features, labels)
        train = ds.subset(np.arange(0, 36, 2))
        test = ds.subset(np.arange(1, 36, 2))
        cfg = small_cfg(seed=13, smoothing_kind=kind)
        result = (train_hybrid(train, test, cfg) if method == "hybrid"
                  else train_single(train, test, method, cfg))
        assert result.stop_reason == "iterations"
        assert built == [kind == "per_class_feature"]
        built.clear()
        loo_objective(train, kind)
        assert built == []

    def test_repeated_positions_are_charged_but_scored_once(self,
                                                            monkeypatch):
        # at multipliers 1/1 every probe and the fit score only their initial
        # population, which is the one the first probe scored
        iris = load_csv(os.path.join(BUNDLED_DIR, "iris.csv"))
        train, test = stratified_split(iris, SplitSpec(0.2, seed=0))
        n_t = train.n_samples
        cfg = HybridConfig(iterations=1, population_size=20,
                           probing_multiplier=1, fit_multiplier=1, seed=0)
        engine_calls = []
        error_rate = DensityEvaluator.error_rate

        def counting(self, bandwidths, labels):
            if self.exclude_self:
                engine_calls.append(1)
            return error_rate(self, bandwidths, labels)

        monkeypatch.setattr(DensityEvaluator, "error_rate", counting)
        result = train_hybrid(train, test, cfg)
        (record,) = result.trace
        assert record.fit_evals > 0  # no probe converged
        assert result.evaluations == 6 * cfg.population_size * n_t
        assert len(engine_calls) <= result.evaluations // n_t - 100
        # the same run on an objective without a memo: equal in every result
        evaluator = DensityEvaluator(train, train.features, exclude_self=True)
        held_out = DensityEvaluator(train, test.features)
        plain = hybrid_minimize(
            lambda v: error_rate(evaluator, np.reshape(v, (1, -1)),
                                 train.labels),
            train.n_features, cfg, eval_cost=n_t,
            converged=lambda pos, fit: error_rate(
                held_out, np.reshape(pos, (1, -1)), test.labels)
            <= cfg.fitness_threshold)
        assert plain.evaluations == result.evaluations
        assert plain.best_fitness == result.train_error
        assert ([r.to_jsonable() for r in plain.trace]
                == [r.to_jsonable() for r in result.trace])
        np.testing.assert_array_equal(
            np.maximum(plain.best_position, BANDWIDTH_FLOOR),
            result.smoothing.values)

    def test_model_accepts_bandwidths_above_the_default_bound(self):
        # features at 1e5 scale train to bandwidths above 10000, inside bounds
        iris = load_csv(os.path.join(BUNDLED_DIR, "iris.csv"))
        ds = Dataset(iris.features * 1e5, iris.labels)
        for seed in range(6):
            train, test = stratified_split(ds, SplitSpec(0.2, seed=seed))
            cfg = HybridConfig(bounds=(0.0, 1e6), methods=("bfo", "sa"),
                               iterations=1, population_size=8,
                               probing_multiplier=2, fit_multiplier=4,
                               seed=seed)
            result = train_hybrid(train, test, cfg)
            assert result.smoothing.values.max() > 10000.0
            model = PnnModel(train, result.smoothing)
            np.testing.assert_array_equal(
                classify_batch(model, test.features), result.test_predictions)

    def test_train_determinism(self):
        rng = np.random.default_rng(10)
        features = rng.normal(0, 1, size=(24, 2))
        labels = (features[:, 0] + rng.normal(0, 0.6, 24) > 0).astype(int)
        ds = Dataset(features, labels)
        train = ds.subset(np.arange(0, 24, 2))
        test = ds.subset(np.arange(1, 24, 2))
        cfg = small_cfg(seed=13, iterations=2)
        a = train_hybrid(train, test, cfg)
        b = train_hybrid(train, test, cfg)
        np.testing.assert_array_equal(a.smoothing.values, b.smoothing.values)
        assert ([r.to_jsonable() for r in a.trace]
                == [r.to_jsonable() for r in b.trace])
        # each trainer predicts the test split once, as a fresh evaluator would
        for result in (a, train_single(train, test, "pso", cfg)):
            want = DensityEvaluator(train, test.features).predict(
                result.smoothing)
            np.testing.assert_array_equal(result.test_predictions, want)
            assert result.test_error == np.mean(
                result.test_predictions != test.labels)
