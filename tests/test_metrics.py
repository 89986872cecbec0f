import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swarmpnn.metrics import (
    RunMetrics,
    aggregate_runs,
    compute_metrics,
    confusion_matrix,
    rank,
)

# published average-test-accuracy comparison across the 16 benchmarks
TABLE_AVG_ACCURACY = {
    "hybrid": {"iris": 0.927, "banknote": 0.993, "ghost": 0.548, "cancer": 0.954,
             "wine": 0.789, "ilpd": 0.64, "glass": 0.556, "parkinson": 0.91,
             "ecoli": 0.734, "heart": 0.437, "climate": 0.855, "blood": 0.689,
             "thyroid": 0.953, "monks": 0.577, "vehicle": 0.641, "pima": 0.748},
    "bat":  {"iris": 0.897, "banknote": 0.986, "ghost": 0.521, "cancer": 0.947,
             "wine": 0.831, "ilpd": 0.636, "glass": 0.514, "parkinson": 0.918,
             "ecoli": 0.722, "heart": 0.398, "climate": 0.852, "blood": 0.695,
             "thyroid": 0.923, "monks": 0.564, "vehicle": 0.652, "pima": 0.716},
    "bfo":  {"iris": 0.927, "banknote": 0.97, "ghost": 0.524, "cancer": 0.946,
             "wine": 0.878, "ilpd": 0.651, "glass": 0.463, "parkinson": 0.903,
             "ecoli": 0.631, "heart": 0.39, "climate": 0.847, "blood": 0.692,
             "thyroid": 0.926, "monks": 0.62, "vehicle": 0.636, "pima": 0.732},
    "pso":  {"iris": 0.917, "banknote": 0.993, "ghost": 0.533, "cancer": 0.952,
             "wine": 0.8, "ilpd": 0.659, "glass": 0.498, "parkinson": 0.846,
             "ecoli": 0.627, "heart": 0.398, "climate": 0.854, "blood": 0.691,
             "thyroid": 0.93, "monks": 0.554, "vehicle": 0.642, "pima": 0.717},
    "fpa":  {"iris": 0.92, "banknote": 0.949, "ghost": 0.484, "cancer": 0.939,
             "wine": 0.767, "ilpd": 0.65, "glass": 0.53, "parkinson": 0.892,
             "ecoli": 0.67, "heart": 0.398, "climate": 0.847, "blood": 0.688,
             "thyroid": 0.928, "monks": 0.576, "vehicle": 0.651, "pima": 0.718},
    "sa":   {"iris": 0.927, "banknote": 0.963, "ghost": 0.54, "cancer": 0.945,
             "wine": 0.844, "ilpd": 0.65, "glass": 0.407, "parkinson": 0.91,
             "ecoli": 0.672, "heart": 0.397, "climate": 0.845, "blood": 0.693,
             "thyroid": 0.921, "monks": 0.599, "vehicle": 0.626, "pima": 0.723},
}


class TestComputeMetrics:
    def test_all_correct(self):
        m = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert (m.accuracy, m.precision, m.recall) == (1.0, 1.0, 1.0)

    def test_degenerate_binary_predictor(self):
        # everything predicted class 0 with balanced labels
        labels = [0] * 5 + [1] * 5
        m = compute_metrics([0] * 10, labels, 2)
        assert m.accuracy == pytest.approx(0.5)
        assert m.precision == pytest.approx(0.25)
        assert m.recall == pytest.approx(0.5)

    def test_three_class_toy_against_oracle(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=60)
        preds = rng.integers(0, 3, size=60)
        m = compute_metrics(preds, labels, 3)
        acc, pre, rec = oracles.macro_metrics(labels.tolist(), preds.tolist(), 3)
        assert m.accuracy == pytest.approx(acc)
        assert m.precision == pytest.approx(pre)
        assert m.recall == pytest.approx(rec)
        assert m.confusion.tolist() == oracles.confusion(
            labels.tolist(), preds.tolist(), 3)

    def test_confusion_bounds(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 4, size=37)
        preds = rng.integers(0, 4, size=37)
        m = compute_metrics(preds, labels, 4)
        assert m.confusion.sum() == 37
        assert np.all(m.confusion >= 0)
        for v in (m.accuracy, m.precision, m.recall):
            assert 0.0 <= v <= 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=30)
        preds = rng.integers(0, 3, size=30)
        perm = rng.permutation(30)
        a = compute_metrics(preds, labels, 3)
        b = compute_metrics(preds[perm], labels[perm], 3)
        assert (a.accuracy, a.precision, a.recall) == (
            b.accuracy, b.precision, b.recall)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([0, 1], [0], 2)
        with pytest.raises(ValueError):
            confusion_matrix([], [], 2)

    def test_negative_label_rejected(self):
        # np.add.at would wrap -1 round to class 1 and report accuracy 1.0
        with pytest.raises(ValueError, match="label -1"):
            compute_metrics([0, 1, 1], [0, 1, -1], 2)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="label 2"):
            compute_metrics([0, 1, 1], [0, 1, 2], 2)
        with pytest.raises(ValueError, match="prediction 2"):
            confusion_matrix([0, 1, 1], [0, 2, 1], 2)


class TestAggregate:
    def runs(self, accuracies):
        return [RunMetrics(a, a / 2, a / 3, np.eye(2, dtype=np.int64), i)
                for i, a in enumerate(accuracies)]

    def test_avg_and_max(self):
        s = aggregate_runs(self.runs([0.9, 1.0]))
        assert s.avg_accuracy == pytest.approx(0.95)
        assert s.max_accuracy == 1.0

    def test_single_run(self):
        s = aggregate_runs(self.runs([0.7]))
        assert s.avg_accuracy == s.max_accuracy == pytest.approx(0.7)

    def test_avg_within_run_range(self):
        rng = np.random.default_rng(4)
        accs = rng.uniform(0, 1, size=10).tolist()
        s = aggregate_runs(self.runs(accs))
        assert min(accs) <= s.avg_accuracy <= max(accs)
        assert s.avg_accuracy <= s.max_accuracy

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestRank:
    def test_published_average_accuracy_table(self):
        assert rank(TABLE_AVG_ACCURACY) == {
            "hybrid": 10, "bat": 3, "bfo": 3, "pso": 2, "fpa": 0, "sa": 1}

    def test_strict_dominance(self):
        datasets = [f"d{i}" for i in range(16)]
        scores = {"a": {d: 0.9 for d in datasets},
                  "b": {d: 0.5 for d in datasets}}
        assert rank(scores) == {"a": 16, "b": 0}

    def test_ties_credit_all(self):
        scores = {"a": {"x": 0.5, "y": 0.7},
                  "b": {"x": 0.5, "y": 0.6}}
        assert rank(scores) == {"a": 2, "b": 1}

    def test_rounding_merges_close_scores(self):
        scores = {"a": {"x": 0.5004}, "b": {"x": 0.5001}}
        assert rank(scores) == {"a": 1, "b": 1}

    def test_mismatched_datasets_rejected(self):
        with pytest.raises(ValueError):
            rank({"a": {"x": 1.0}, "b": {"y": 1.0}})

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        datasets = ["d0", "d1", "d2"]
        scores = {m: {d: float(rng.integers(0, 900)) / 1000.0
                      for d in datasets} for m in ("a", "b", "c")}
        shifted = {m: {d: 2.0 * v + 0.25 for d, v in per.items()}
                   for m, per in scores.items()}
        assert rank(scores) == rank(shifted)
