import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swarmpnn.pnn import (
    Dataset,
    DensityEvaluator,
    ModificationConfig,
    PnnModel,
    Smoothing,
    apply_modification,
    cauchy_kernel,
    class_densities,
    class_density,
    classify,
    classify_batch,
    kde,
    product_kernel,
)

TWO_OVER_PI = 2.0 / math.pi


def random_instance(rng, max_p=20, max_n=4, max_g=3):
    g = rng.integers(1, max_g + 1)
    n = rng.integers(1, max_n + 1)
    # at least one pattern per class
    labels = np.concatenate([np.arange(g), rng.integers(0, g, size=rng.integers(0, max_p - g + 1))])
    rng.shuffle(labels)
    features = rng.normal(0, 2, size=(len(labels), n))
    return Dataset(features, labels, n_classes=int(g))


def random_smoothing(rng, ds):
    kind = rng.choice(Smoothing.KINDS)
    low, high = 0.2, 3.0
    if kind == "scalar":
        return Smoothing.scalar(rng.uniform(low, high))
    if kind == "per_class":
        return Smoothing.per_class(rng.uniform(low, high, ds.n_classes))
    if kind == "per_feature":
        return Smoothing.per_feature(rng.uniform(low, high, ds.n_features))
    return Smoothing.per_class_feature(rng.uniform(low, high, (ds.n_classes, ds.n_features)))


class TestCauchyKernel:
    def test_maximum_at_origin(self):
        assert cauchy_kernel(0.0) == pytest.approx(TWO_OVER_PI, abs=1e-12)

    def test_unit_argument(self):
        assert cauchy_kernel(1.0) == pytest.approx(2.0 / (math.pi * 4.0), abs=1e-12)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_even_and_positive(self, u):
        assert cauchy_kernel(u) == cauchy_kernel(-u)
        assert 0.0 < cauchy_kernel(u) <= TWO_OVER_PI

    def test_integrates_to_one(self):
        # dumb quadrature: dense center, coarser tails out to 1e6
        center = np.linspace(-100.0, 100.0, 2_000_001)
        tail = np.linspace(100.0, 1e6, 1_000_001)
        total = np.trapezoid(cauchy_kernel(center), center)
        total += 2.0 * np.trapezoid(cauchy_kernel(tail), tail)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestProductKernel:
    def test_zero_vector(self):
        assert product_kernel([0.0, 0.0, 0.0]) == pytest.approx(TWO_OVER_PI ** 3, abs=1e-12)

    def test_single_coordinate(self):
        assert product_kernel([1.0]) == pytest.approx(0.15915494309189535, abs=1e-12)

    def test_matches_scalar_evaluations(self):
        # frozen from the scalar oracle: cauchy(0.5) * cauchy(2.0)
        assert product_kernel([0.5, 2.0]) == pytest.approx(0.010375289204975388, rel=1e-12)

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(0, 3, size=rng.integers(1, 5))
            assert product_kernel(x) == pytest.approx(oracles.product_kernel(x), rel=1e-12)


class TestKde:
    def test_query_on_single_pattern(self):
        assert kde([1.5, -2.0], [[1.5, -2.0]], 1.0) == pytest.approx(TWO_OVER_PI ** 2, abs=1e-12)

    def test_two_identical_patterns(self):
        assert kde([3.0], [[3.0], [3.0]], 1.0) == pytest.approx(TWO_OVER_PI, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pats = rng.normal(0, 2, size=(5, 3))
            x = rng.normal(0, 2, size=3)
            h = rng.uniform(0.3, 2.5)
            assert kde(x, pats, h) == pytest.approx(oracles.kde(x, pats, h), rel=1e-12)

    def test_rejects_empty_and_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            kde([0.0], np.empty((0, 1)), 1.0)
        with pytest.raises(ValueError):
            kde([0.0], [[0.0]], 0.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(3)
        pats = rng.normal(0, 1, size=(8, 3))
        x = rng.normal(0, 1, size=3)
        for t in (0.5, 2.0, 17.0):
            scaled = kde(t * x, t * pats, t * 1.3)
            assert scaled == pytest.approx(kde(x, pats, 1.3) * t ** -3, rel=1e-10)


class TestClassDensity:
    def test_reduces_to_kde_per_class(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(0, 1, size=(9, 2)), [0, 0, 1, 1, 1, 0, 1, 0, 0])
        model = PnnModel(ds, Smoothing.scalar(0.8))
        for j in range(2):
            want = kde(ds.features[0], ds.class_rows(j), 0.8)
            have = class_density(model, ds.features[0], j)
            assert have == pytest.approx(want, rel=1e-12)

    def test_single_pattern_at_query(self):
        ds = Dataset([[0.2, 0.4, 0.6]], [0])
        model = PnnModel(ds, Smoothing.per_feature([1.0, 1.0, 1.0]))
        assert class_density(model, [0.2, 0.4, 0.6], 0) == pytest.approx(
            TWO_OVER_PI ** 3, abs=1e-12)

    def test_toy_set_against_oracle(self):
        ds = Dataset([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [-1.0, 0.5]], [0, 1, 0, 1])
        sm = Smoothing.per_feature([0.5, 2.0])
        model = PnnModel(ds, sm)
        rows = sm.bandwidth_matrix(2, 2).tolist()
        for j in range(2):
            want = oracles.class_density(
                ds.features.tolist(), ds.labels.tolist(), [1.0] * 4, rows, [0.3, 0.7], j)
            assert class_density(model, [0.3, 0.7], j) == pytest.approx(want, rel=1e-12)

    def test_empty_class_rejected(self):
        ds = Dataset([[0.0], [1.0]], [0, 1])
        model = PnnModel(ds, Smoothing.scalar(1.0))
        with pytest.raises(ValueError):
            class_density(model, [0.0], 2)

    def test_query_dimension_mismatch_rejected(self):
        ds = Dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        model = PnnModel(ds, Smoothing.scalar(1.0))
        with pytest.raises(ValueError, match="dimension"):
            class_density(model, [0.0], 0)
        with pytest.raises(ValueError, match="dimension"):
            kde([0.0], ds.features, 1.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.normal(0, 1, size=(10, 3)), [0, 1] * 5)
        x = rng.normal(0, 1, size=3)
        base = PnnModel(ds, Smoothing.scalar(0.9))
        for t in (0.25, 3.0, 40.0):
            scaled_ds = Dataset(t * ds.features, ds.labels)
            scaled = PnnModel(scaled_ds, Smoothing.scalar(0.9 * t))
            for j in range(2):
                assert class_density(scaled, t * x, j) == pytest.approx(
                    class_density(base, x, j) * t ** -3, rel=1e-10)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            ds = random_instance(rng)
            sm = random_smoothing(rng, ds)
            scales = rng.uniform(0.5, 2.0, ds.n_samples)
            model = PnnModel(ds, sm, scales)
            rows = sm.bandwidth_matrix(ds.n_classes, ds.n_features).tolist()
            x = rng.normal(0, 2, size=ds.n_features)
            for j in range(ds.n_classes):
                want = oracles.class_density(
                    ds.features.tolist(), ds.labels.tolist(), scales.tolist(), rows,
                    x.tolist(), j)
                assert class_density(model, x, j) == pytest.approx(want, rel=1e-10)

    def test_tiny_bandwidth_against_log_oracle(self):
        # every kernel factor is about 1e-13 at h = 1e-6, so a linear product
        # over 30 features underflows; the class-0 density is still 1.3e-186
        ds = Dataset([[1e-3] * 30, [5.0] * 30], [0, 1])
        sm = Smoothing.scalar(1e-6)
        x = [0.0] * 30
        rows = sm.bandwidth_matrix(2, 30).tolist()
        want = oracles.log_class_density(
            ds.features.tolist(), ds.labels.tolist(), rows, x, 0)
        assert want == pytest.approx(-428.013, abs=1e-3)
        have = class_density(PnnModel(ds, sm), x, 0)
        assert math.log(have) == pytest.approx(want, rel=1e-12)

    def test_grid_normalization_1d(self):
        # each class density integrates to ~1 on a fine 1-D grid
        ds = Dataset([[0.0], [0.5], [4.0], [5.0], [5.5]], [0, 0, 1, 1, 1])
        model = PnnModel(ds, Smoothing.per_class([0.7, 1.2]))
        grid = np.linspace(-400.0, 400.0, 200_001)
        dx = grid[1] - grid[0]
        for j in range(2):
            mass = sum(class_density(model, [g], j) for g in grid[::100]) * dx * 100
            assert mass == pytest.approx(1.0, abs=1e-2)


class TestClassify:
    def test_single_class(self):
        ds = Dataset([[1.0], [2.0]], [0, 0])
        model = PnnModel(ds, Smoothing.scalar(1.0))
        assert classify(model, [5.0]) == 0

    def test_mirror_tie_breaks_to_lowest_index(self):
        ds = Dataset([[-1.0], [-2.0], [1.0], [2.0]], [0, 0, 1, 1])
        model = PnnModel(ds, Smoothing.scalar(1.0))
        d = class_densities(model, [0.0])
        assert d[0] == d[1]
        assert classify(model, [0.0]) == 0

    def test_three_class_toy_against_oracle(self):
        rng = np.random.default_rng(13)
        centers = np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
        features = np.vstack([c + rng.normal(0, 0.5, size=(6, 2)) for c in centers])
        labels = np.repeat([0, 1, 2], 6)
        ds = Dataset(features, labels)
        sm = Smoothing.per_feature([0.8, 1.1])
        model = PnnModel(ds, sm)
        rows = sm.bandwidth_matrix(3, 2).tolist()
        for c, j in zip(centers, range(3)):
            x = c + rng.normal(0, 0.3, size=2)
            want = oracles.classify(
                features.tolist(), labels.tolist(), [1.0] * 18, rows, x.tolist(), 3)
            assert classify(model, x) == want == j

    def test_argmax_invariant_under_common_scaling(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            d = rng.uniform(0, 1, size=4)
            assert np.argmax(d) == np.argmax(d * 1234.5)


class TestApplyModification:
    def test_zero_intensity_is_identity(self):
        rng = np.random.default_rng(23)
        ds = random_instance(rng)
        model = PnnModel(ds, Smoothing.scalar(1.0))
        out = apply_modification(model, ModificationConfig(intensity=0.0))
        assert np.all(out.pattern_scales == 1.0)

    def test_identical_patterns_give_unit_scales(self):
        ds = Dataset([[2.0, 2.0]] * 4, [0] * 4)
        model = PnnModel(ds, Smoothing.scalar(0.5))
        out = apply_modification(model, ModificationConfig(intensity=1.7))
        np.testing.assert_allclose(out.pattern_scales, 1.0, rtol=1e-12)

    def test_hand_checked_three_point_set(self):
        # patterns {0, 0, 10}, h=1, intensity 0.5; expected values frozen from
        # the loop oracle (densities 0.42443398..., 0.42443398..., 0.21224819...)
        ds = Dataset([[0.0], [0.0], [10.0]], [0, 0, 0])
        model = PnnModel(ds, Smoothing.scalar(1.0))
        out = apply_modification(model, ModificationConfig(intensity=0.5))
        np.testing.assert_allclose(
            out.pattern_scales,
            [0.8909205493451056, 0.8909205493451056, 1.2598593041927457],
            rtol=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            ds = random_instance(rng)
            sm = random_smoothing(rng, ds)
            model = PnnModel(ds, sm)
            c = rng.uniform(0.1, 2.0)
            out = apply_modification(model, ModificationConfig(intensity=c))
            rows = sm.bandwidth_matrix(ds.n_classes, ds.n_features).tolist()
            want = oracles.modification_scales(
                ds.features.tolist(), ds.labels.tolist(), rows, c, 1e-300)
            np.testing.assert_allclose(out.pattern_scales, want, rtol=1e-10)

    def test_requires_unit_scales(self):
        ds = Dataset([[0.0], [1.0]], [0, 0])
        model = PnnModel(ds, Smoothing.scalar(1.0), [2.0, 1.0])
        with pytest.raises(ValueError):
            apply_modification(model, ModificationConfig(intensity=0.5))


class TestTypes:
    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            Dataset([[np.nan]], [0])
        with pytest.raises(ValueError):
            Dataset([[0.0], [1.0]], [0, 2], n_classes=2)
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 2)), [])
        ds = Dataset([[0.0], [1.0], [2.0]], [1, 0, 1])
        assert list(ds.class_counts) == [1, 2]

    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            Smoothing.per_feature([1.0, -1.0])
        with pytest.raises(ValueError):
            Smoothing.scalar(0.0)
        ds = Dataset([[0.0, 1.0]], [0])
        with pytest.raises(ValueError):
            Smoothing.per_feature([1.0]).validate_for(ds)
        with pytest.raises(ValueError):
            Smoothing.scalar(20000.0).validate_for(ds)

    def test_smoothing_round_trip_from_vector(self):
        sm = Smoothing.from_vector("per_class_feature", np.arange(1.0, 7.0), 2, 3)
        assert sm.values.shape == (2, 3)
        np.testing.assert_array_equal(
            sm.class_bandwidths(1, 3), [4.0, 5.0, 6.0])

    def test_model_scale_validation(self):
        ds = Dataset([[0.0], [1.0]], [0, 0])
        with pytest.raises(ValueError):
            PnnModel(ds, Smoothing.scalar(1.0), [1.0, 0.0])
        with pytest.raises(ValueError):
            PnnModel(ds, Smoothing.scalar(1.0), [1.0])


class TestDensityEvaluator:
    def test_densities_match_library_path(self):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(25):
            ds = random_instance(rng)
            sm = random_smoothing(rng, ds)
            cases.append((ds, sm, rng.normal(0, 2, size=(6, ds.n_features))))
        # the class-0 sum (about 1e-260) lies below SAFE_SUM, beside a
        # class-1 sum of 2; true class-0 density 1.097e-232
        cases.append((Dataset([[0.0] * 10, [0.0] * 10, [3162.0] * 10],
                              [1, 1, 0]),
                      Smoothing.scalar(1e-3), np.zeros((1, 10))))
        for ds, sm, queries in cases:
            rows = sm.bandwidth_matrix(ds.n_classes, ds.n_features).tolist()
            want = [[oracles.class_density(ds.features.tolist(),
                                           ds.labels.tolist(),
                                           [1.0] * ds.n_samples, rows,
                                           x.tolist(), j)
                     for j in range(ds.n_classes)] for x in queries]
            ev = DensityEvaluator(ds, queries)
            np.testing.assert_allclose(ev.class_densities(sm), want, rtol=1e-10)

    def test_predictions_match_classify(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            ds = random_instance(rng)
            sm = random_smoothing(rng, ds)
            queries = rng.normal(0, 2, size=(8, ds.n_features))
            ev = DensityEvaluator(ds, queries)
            rows = sm.bandwidth_matrix(ds.n_classes, ds.n_features).tolist()
            want = [oracles.classify(ds.features.tolist(), ds.labels.tolist(),
                                     [1.0] * ds.n_samples, rows, x.tolist(),
                                     ds.n_classes)
                    for x in queries]
            np.testing.assert_array_equal(ev.predict(sm), want)
            np.testing.assert_array_equal(
                classify_batch(PnnModel(ds, sm), queries), want)

    def test_leave_one_out_matches_reduced_pattern_sets(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            ds = random_instance(rng)
            if np.any(ds.class_counts < 2):
                continue
            sm = random_smoothing(rng, ds)
            ev = DensityEvaluator(ds, ds.features, exclude_self=True)
            got = ev.predict(sm)
            for q in range(ds.n_samples):
                rest = np.delete(np.arange(ds.n_samples), q)
                reduced = ds.subset(rest)
                model = PnnModel(reduced, sm)
                assert got[q] == classify(model, ds.features[q])

    def test_error_rate_counts_mismatches(self):
        ds = Dataset([[0.0], [0.1], [5.0], [5.1]], [0, 0, 1, 1])
        ev = DensityEvaluator(ds, np.array([[0.05], [5.05], [0.0]]))
        sm = Smoothing.scalar(0.5)
        assert ev.error_rate(sm, [0, 1, 1]) == pytest.approx(1.0 / 3.0)

    def test_exclude_self_requires_matching_queries(self):
        ds = Dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError):
            DensityEvaluator(ds, np.array([[0.5]]), exclude_self=True)
        with pytest.raises(ValueError, match="unit pattern scales"):
            DensityEvaluator(ds, ds.features, exclude_self=True,
                             pattern_scales=[1.0, 2.0])


def wide_instance(rng, p=30, n=30, g=2):
    """Raw-scale data: feature scales log-uniform from 1e-2 to 1e3."""
    labels = np.concatenate([np.arange(g), rng.integers(0, g, size=p - g)])
    rng.shuffle(labels)
    scales = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), n))
    centers = rng.normal(0, 1, size=(g, n))
    features = (centers[labels] + rng.normal(0, 1, size=(p, n))) * scales
    return Dataset(features, labels, n_classes=g)


def log_uniform_smoothing(rng, kind, ds, low, high):
    g, n = ds.n_classes, ds.n_features
    size = Smoothing.vector_length(kind, g, n)
    vector = np.exp(rng.uniform(np.log(low), np.log(high), size))
    return Smoothing.from_vector(kind, vector, g, n)


def assert_oracle_argmax(predicted, ds, sm, queries, leave_one_out):
    """Each prediction is the oracle's argmax; classes within 1e-9 of the
    best log density count as ties that may go either way."""
    features, labels = ds.features.tolist(), ds.labels.tolist()
    rows = sm.bandwidth_matrix(ds.n_classes, ds.n_features).tolist()
    for q, (x, got) in enumerate(zip(queries, predicted)):
        scores = oracles.log_class_densities(
            features, labels, rows, x.tolist(), ds.n_classes,
            exclude=q if leave_one_out else None)
        assert scores[got] >= max(scores) - 1e-9, (q, got, scores)


class TestExactness:
    """The engine against the log-space oracle where linear densities
    underflow: raw feature scales, 30 features, tiny bandwidths."""

    @pytest.mark.parametrize("kind", Smoothing.KINDS)
    def test_leave_one_out_on_wide_scale_instances(self, kind):
        rng = np.random.default_rng([43, Smoothing.KINDS.index(kind)])
        for g in (2, 3):
            ds = wide_instance(rng, g=g)
            ev = DensityEvaluator(ds, ds.features, exclude_self=True)
            for low, high in ((1e-6, 1e3), (1e-2, 1e2), (1e-6, 1e-3)):
                sm = log_uniform_smoothing(rng, kind, ds, low, high)
                predicted = ev.predict(sm)
                assert_oracle_argmax(predicted, ds, sm, ds.features, True)
                assert ev.error_rate(sm, ds.labels) == pytest.approx(
                    np.mean(predicted != ds.labels))

    @pytest.mark.parametrize("kind", Smoothing.KINDS)
    def test_queries_on_wide_scale_instances(self, kind):
        rng = np.random.default_rng([47, Smoothing.KINDS.index(kind)])
        ds = wide_instance(rng, g=3)
        queries = wide_instance(rng, p=8, g=3).features
        ev = DensityEvaluator(ds, queries)
        for low, high in ((1e-6, 1e3), (1e-6, 1e-3)):
            sm = log_uniform_smoothing(rng, kind, ds, low, high)
            predicted = ev.predict(sm)
            assert_oracle_argmax(predicted, ds, sm, queries, False)
            np.testing.assert_array_equal(
                classify_batch(PnnModel(ds, sm), queries), predicted)

    @pytest.mark.parametrize("kind", Smoothing.KINDS)
    def test_leave_one_out_at_tiny_bandwidths(self, kind):
        rng = np.random.default_rng([53, Smoothing.KINDS.index(kind)])
        for _ in range(6):
            ds = random_instance(rng)
            ev = DensityEvaluator(ds, ds.features, exclude_self=True)
            sm = log_uniform_smoothing(rng, kind, ds, 1e-6, 1e-4)
            assert_oracle_argmax(ev.predict(sm), ds, sm, ds.features, True)

    def test_underflow_does_not_fall_back_to_class_zero(self):
        # every product kernel underflows at h = 1e-6 over 30 features, but
        # the query is twice as close to the class-1 pattern in each one
        ds = Dataset([[0.0] * 30, [3.0] * 30, [2.9] * 30], [0, 1, 1])
        sm = Smoothing.scalar(1e-6)
        query = np.full(30, 2.0)
        assert classify(PnnModel(ds, sm), query) == 1
        assert DensityEvaluator(ds, query[None, :]).predict(sm).tolist() == [1]
        loo = DensityEvaluator(ds, ds.features, exclude_self=True)
        assert loo.predict(sm).tolist() == [1, 1, 1]
        # pattern scales leave class 1 ahead, but every kernel underflows
        scales = [1.0, 1.0, 2.0]
        want = oracles.log_class_densities(
            ds.features.tolist(), ds.labels.tolist(),
            sm.bandwidth_matrix(2, 30).tolist(), query.tolist(), 2,
            scales=scales)
        assert int(np.argmax(want)) == 1
        assert classify(PnnModel(ds, sm, scales), query) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_density_evaluator_agrees_with_oracle(seed):
    rng = np.random.default_rng(seed)
    ds = random_instance(rng, max_p=10, max_n=3, max_g=3)
    sm = random_smoothing(rng, ds)
    x = rng.normal(0, 2, size=(1, ds.n_features))
    ev = DensityEvaluator(ds, x)
    rows = sm.bandwidth_matrix(ds.n_classes, ds.n_features).tolist()
    want = [oracles.class_density(ds.features.tolist(), ds.labels.tolist(),
                                  [1.0] * ds.n_samples, rows, x[0].tolist(), j)
            for j in range(ds.n_classes)]
    np.testing.assert_allclose(ev.class_densities(sm)[0], want, rtol=1e-10)
