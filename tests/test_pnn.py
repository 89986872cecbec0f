import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swarmpnn import pnn
from swarmpnn.datasets import REGISTRY, SplitSpec, stratified_split
from swarmpnn.hybrid import HybridConfig, train_hybrid
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
        return Smoothing("scalar", rng.uniform(low, high))
    if kind == "per_class":
        return Smoothing("per_class", rng.uniform(low, high, ds.n_classes))
    if kind == "per_feature":
        return Smoothing("per_feature", rng.uniform(low, high, ds.n_features))
    return Smoothing("per_class_feature", rng.uniform(low, high, (ds.n_classes, ds.n_features)))


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
        model = PnnModel(ds, Smoothing("scalar", 0.8))
        for j in range(2):
            want = kde(ds.features[0], ds.features[ds.labels == j], 0.8)
            have = class_density(model, ds.features[0], j)
            assert have == pytest.approx(want, rel=1e-12)

    def test_single_pattern_at_query(self):
        ds = Dataset([[0.2, 0.4, 0.6]], [0])
        model = PnnModel(ds, Smoothing("per_feature", [1.0, 1.0, 1.0]))
        assert class_density(model, [0.2, 0.4, 0.6], 0) == pytest.approx(
            TWO_OVER_PI ** 3, abs=1e-12)

    def test_toy_set_against_oracle(self):
        ds = Dataset([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [-1.0, 0.5]], [0, 1, 0, 1])
        sm = Smoothing("per_feature", [0.5, 2.0])
        model = PnnModel(ds, sm)
        rows = np.broadcast_to(sm.grid, (2, 2)).tolist()
        for j in range(2):
            want = oracles.class_density(
                ds.features.tolist(), ds.labels.tolist(), [1.0] * 4, rows, [0.3, 0.7], j)
            assert class_density(model, [0.3, 0.7], j) == pytest.approx(want, rel=1e-12)

    def test_empty_class_rejected(self):
        ds = Dataset([[0.0], [1.0]], [0, 1])
        model = PnnModel(ds, Smoothing("scalar", 1.0))
        with pytest.raises(ValueError):
            class_density(model, [0.0], 2)

    def test_query_dimension_mismatch_rejected(self):
        ds = Dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        model = PnnModel(ds, Smoothing("scalar", 1.0))
        with pytest.raises(ValueError, match="dimension"):
            class_density(model, [0.0], 0)
        with pytest.raises(ValueError, match="dimension"):
            kde([0.0], ds.features, 1.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.normal(0, 1, size=(10, 3)), [0, 1] * 5)
        x = rng.normal(0, 1, size=3)
        base = PnnModel(ds, Smoothing("scalar", 0.9))
        for t in (0.25, 3.0, 40.0):
            scaled_ds = Dataset(t * ds.features, ds.labels)
            scaled = PnnModel(scaled_ds, Smoothing("scalar", 0.9 * t))
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
            rows = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
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
        sm = Smoothing("scalar", 1e-6)
        x = [0.0] * 30
        rows = np.broadcast_to(sm.grid, (2, 30)).tolist()
        want = oracles.log_class_density(
            ds.features.tolist(), ds.labels.tolist(), rows, x, 0)
        assert want == pytest.approx(-428.013, abs=1e-3)
        have = class_density(PnnModel(ds, sm), x, 0)
        assert math.log(have) == pytest.approx(want, rel=1e-12)

    def test_grid_normalization_1d(self):
        # each class density integrates to ~1 on a fine 1-D grid
        ds = Dataset([[0.0], [0.5], [4.0], [5.0], [5.5]], [0, 0, 1, 1, 1])
        model = PnnModel(ds, Smoothing("per_class", [0.7, 1.2]))
        grid = np.linspace(-400.0, 400.0, 200_001)
        dx = grid[1] - grid[0]
        for j in range(2):
            mass = sum(class_density(model, [g], j) for g in grid[::100]) * dx * 100
            assert mass == pytest.approx(1.0, abs=1e-2)


class TestClassify:
    def test_single_class(self):
        ds = Dataset([[1.0], [2.0]], [0, 0])
        model = PnnModel(ds, Smoothing("scalar", 1.0))
        assert classify(model, [5.0]) == 0

    def test_mirror_tie_breaks_to_lowest_index(self):
        ds = Dataset([[-1.0], [-2.0], [1.0], [2.0]], [0, 0, 1, 1])
        model = PnnModel(ds, Smoothing("scalar", 1.0))
        d = class_densities(model, [0.0])
        assert d[0] == d[1]
        assert classify(model, [0.0]) == 0

    def test_three_class_toy_against_oracle(self):
        rng = np.random.default_rng(13)
        centers = np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
        features = np.vstack([c + rng.normal(0, 0.5, size=(6, 2)) for c in centers])
        labels = np.repeat([0, 1, 2], 6)
        ds = Dataset(features, labels)
        sm = Smoothing("per_feature", [0.8, 1.1])
        model = PnnModel(ds, sm)
        rows = np.broadcast_to(sm.grid, (3, 2)).tolist()
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
        model = PnnModel(ds, Smoothing("scalar", 1.0))
        out = apply_modification(model, ModificationConfig(intensity=0.0))
        assert np.all(out.pattern_scales == 1.0)

    def test_identical_patterns_give_unit_scales(self):
        ds = Dataset([[2.0, 2.0]] * 4, [0] * 4)
        model = PnnModel(ds, Smoothing("scalar", 0.5))
        out = apply_modification(model, ModificationConfig(intensity=1.7))
        np.testing.assert_allclose(out.pattern_scales, 1.0, rtol=1e-12)

    def test_hand_checked_three_point_set(self):
        # patterns {0, 0, 10}, h=1, intensity 0.5; expected values frozen from
        # the loop oracle (densities 0.42443398..., 0.42443398..., 0.21224819...)
        ds = Dataset([[0.0], [0.0], [10.0]], [0, 0, 0])
        model = PnnModel(ds, Smoothing("scalar", 1.0))
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
            rows = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
            want = oracles.modification_scales(
                ds.features.tolist(), ds.labels.tolist(), rows, c, 1e-300)
            np.testing.assert_allclose(out.pattern_scales, want, rtol=1e-10)

    def test_requires_unit_scales(self):
        ds = Dataset([[0.0], [1.0]], [0, 0])
        model = PnnModel(ds, Smoothing("scalar", 1.0), [2.0, 1.0])
        with pytest.raises(ValueError):
            apply_modification(model, ModificationConfig(intensity=0.5))

    @pytest.mark.parametrize("key", ["intensity"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_settings_must_be_finite(self, key, bad):
        # a NaN intensity would give all-NaN pattern scales
        with pytest.raises(ValueError, match="finite"):
            ModificationConfig(**{key: bad})


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
            Smoothing("per_feature", [1.0, -1.0])
        with pytest.raises(ValueError):
            Smoothing("scalar", 0.0)
        ds = Dataset([[0.0, 1.0]], [0])
        with pytest.raises(ValueError):
            Smoothing("per_feature", [1.0]).validate_for(ds)
        # no upper limit: training bounds may exceed any fixed one
        Smoothing("scalar", 20000.0).validate_for(ds)

    def test_smoothing_round_trip_from_vector(self):
        sm = Smoothing.from_vector("per_class_feature", np.arange(1.0, 7.0), 2, 3)
        assert sm.values.shape == (2, 3)
        np.testing.assert_array_equal(
            np.broadcast_to(sm.grid, (2, 3))[1], [4.0, 5.0, 6.0])

    def test_model_scale_validation(self):
        ds = Dataset([[0.0], [1.0]], [0, 0])
        with pytest.raises(ValueError):
            PnnModel(ds, Smoothing("scalar", 1.0), [1.0, 0.0])
        with pytest.raises(ValueError):
            PnnModel(ds, Smoothing("scalar", 1.0), [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_scales_must_be_finite(self, bad):
        # a NaN scale makes every class density NaN, and a NaN density
        # would send every query to class 0
        ds = Dataset([[0.0], [1.0], [5.0], [6.0]], [0, 0, 1, 1])
        scales = [1.0, bad, 1.0, 1.0]
        with pytest.raises(ValueError, match="finite"):
            PnnModel(ds, Smoothing("scalar", 1.0), scales)
        with pytest.raises(ValueError, match="finite"):
            DensityEvaluator(ds, [[0.5], [5.5]], pattern_scales=scales)

    def test_constructors_leave_caller_arrays_writable(self):
        x = np.zeros((3, 2))
        y = np.array([0, 1, 1], dtype=np.int64)
        h = np.array([1.0, 2.0])
        scales = np.ones(3)
        ds = Dataset(x, y)
        model = PnnModel(ds, Smoothing("per_feature", h), scales)
        x[0, 0], y[0], h[0], scales[0] = 1.0, 1, 9.0, 5.0
        assert ds.features[0, 0] == 0.0 and ds.labels[0] == 0
        assert model.smoothing.values[0] == 1.0
        assert model.pattern_scales[0] == 1.0
        for stored in (ds.features, ds.labels, ds.class_counts,
                       model.smoothing.values, model.pattern_scales):
            assert not stored.flags.writeable


class TestDensityEvaluator:
    def test_densities_match_library_path(self):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(25):
            ds = random_instance(rng)
            sm = random_smoothing(rng, ds)
            cases.append((ds, sm, rng.normal(0, 2, size=(6, ds.n_features))))
        # a class-0 sum of about 1e-260 beside a class-1 sum of 2; true
        # class-0 density 1.097e-232
        cases.append((Dataset([[0.0] * 10, [0.0] * 10, [3162.0] * 10],
                              [1, 1, 0]),
                      Smoothing("scalar", 1e-3), np.zeros((1, 10))))
        for ds, sm, queries in cases:
            rows = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
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
            rows = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
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
        sm = Smoothing("scalar", 0.5)
        assert ev.error_rate(sm, [0, 1, 1]) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_error_rate_needs_one_label_per_query(self, exclude_self):
        ds = Dataset([[0.0], [0.1], [5.0], [5.1]], [0, 0, 1, 1])
        ev = DensityEvaluator(ds, ds.features, exclude_self=exclude_self)
        for labels in ([1], [0, 0, 1], [0, 0, 1, 1, 1], [[0], [0], [1], [1]]):
            with pytest.raises(ValueError, match="one class index per query"):
                ev.error_rate(np.ones((1, 1)), labels)
        assert ev.error_rate(np.ones((1, 1)), [0, 0, 1, 0]) == 0.25

    def test_exclude_self_requires_matching_queries(self):
        ds = Dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError):
            DensityEvaluator(ds, np.array([[0.5]]), exclude_self=True)
        with pytest.raises(ValueError, match="unit pattern scales"):
            DensityEvaluator(ds, ds.features, exclude_self=True,
                             pattern_scales=[1.0, 2.0])

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("kind", Smoothing.KINDS)
    def test_grid_and_smoothing_agree_bit_for_bit(self, kind, exclude_self):
        rng = np.random.default_rng([53, Smoothing.KINDS.index(kind)])
        ds = Dataset(rng.normal(0, 1, size=(24, 3)), np.arange(24) % 3)
        queries = ds.features if exclude_self else rng.normal(0, 1, (7, 3))
        by_grid, by_smoothing = (
            DensityEvaluator(ds, queries, exclude_self=exclude_self)
            for _ in range(2))
        shape = Smoothing.grid_shape(kind, ds.n_classes, ds.n_features)
        for _ in range(3):
            sm = log_uniform_smoothing(rng, kind, ds, 0.2, 3.0)
            grid = np.array(sm.values).reshape(shape)
            np.testing.assert_array_equal(by_grid.class_densities(grid),
                                          by_smoothing.class_densities(sm))
            np.testing.assert_array_equal(by_grid.predict(grid),
                                          by_smoothing.predict(sm))

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_rejects_grids_that_are_not_finite_and_2d(self, exclude_self):
        # G == N == 2, so a flat vector would broadcast as per_feature
        ds = Dataset([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [0, 1, 1])
        ev = DensityEvaluator(ds, ds.features, exclude_self=exclude_self)
        for grid in (np.ones(2), np.ones((1, 1, 2)), [[1.0, np.nan]],
                     [[np.inf, 1.0]], np.ones((3, 2))):
            with pytest.raises(ValueError):
                ev.class_densities(grid)
            with pytest.raises(ValueError):
                ev.predict(grid)

    def test_scaled_build_lays_out_no_pairs(self):
        # only leave-one-out lays out pairs: a query set, scaled or not, is
        # computed from the data rows, so a (P, Q, N) layout would be waste
        rng = np.random.default_rng(59)
        p, q, n = 200, 50, 20
        ds = Dataset(rng.normal(size=(p, n)), np.arange(p) % 3)
        queries = rng.normal(size=(q, n))
        for scales in (np.full(p, 1.5), None):
            tracemalloc.start()
            try:
                DensityEvaluator(ds, queries, pattern_scales=scales)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < p * q * n * 8 / 4


def wide_instance(rng, p=30, n=30, g=2, sizes=None):
    """Raw-scale data: feature scales log-uniform from 1e-2 to 1e3. With
    ``sizes`` class j has ``sizes[j]`` patterns, otherwise P are drawn."""
    if sizes is None:
        labels = np.concatenate([np.arange(g), rng.integers(0, g, size=p - g)])
    else:
        g, labels = len(sizes), np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(labels)
    scales = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), n))
    centers = rng.normal(0, 1, size=(g, n))
    features = (centers[labels]
                + rng.normal(0, 1, size=(len(labels), n))) * scales
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
    rows = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
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
        # six classes give 21 leave-one-out blocks; the one-pattern class
        # is empty under leave-one-out
        for shape in ({"g": 2}, {"g": 3}, {"sizes": [9, 7, 5, 4, 2, 1]}):
            ds = wide_instance(rng, **shape)
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
        sm = Smoothing("scalar", 1e-6)
        query = np.full(30, 2.0)
        assert classify(PnnModel(ds, sm), query) == 1
        assert DensityEvaluator(ds, query[None, :]).predict(sm).tolist() == [1]
        loo = DensityEvaluator(ds, ds.features, exclude_self=True)
        assert loo.predict(sm).tolist() == [1, 1, 1]
        # pattern scales leave class 1 ahead, but every kernel underflows
        scales = [1.0, 1.0, 2.0]
        want = oracles.log_class_densities(
            ds.features.tolist(), ds.labels.tolist(),
            np.broadcast_to(sm.grid, (2, 30)).tolist(), query.tolist(), 2,
            scales=scales)
        assert int(np.argmax(want)) == 1
        assert classify(PnnModel(ds, sm, scales), query) == 1


def assert_loo_matches_oracle(ev, ds, sm, rows):
    """Leave-one-out densities of ``rows`` within 1e-10 of the oracle's,
    and each prediction its argmax up to ties within 1e-9."""
    features, labels = ds.features.tolist(), ds.labels.tolist()
    bandwidths = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
    densities, predicted = ev.class_densities(sm), ev.predict(sm)
    for q in rows:
        want = oracles.log_class_densities(features, labels, bandwidths,
                                           features[q], ds.n_classes,
                                           exclude=q)
        np.testing.assert_allclose(densities[q], np.exp(want), rtol=1e-10)
        assert want[predicted[q]] >= max(want) - 1e-9, (q, want)


class TestLeaveOneOutLayouts:
    """One evaluator scored with the kinds in this order lays out one row,
    then G rows, then one row and G rows again."""

    KINDS = ("per_feature", "per_class_feature", "scalar", "per_class")

    @staticmethod
    def clustered(rng, sizes, n):
        labels = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(labels)
        centres = rng.normal(0, 2, size=(len(sizes), n))
        return Dataset(centres[labels] + rng.normal(size=(len(labels), n)),
                       labels)

    # G = 2, 3, 5 and 6; a one-pattern class has an empty within block and
    # is empty in its own row's leave-one-out sum, and as the first class
    # it leaves region 0 of the G-row layout an empty tail. At 300/300 each
    # region of either layout spans several tiles; a sample of its rows is
    # checked.
    @pytest.mark.parametrize("sizes, n, sample", [
        ((5, 4), 3, 0), ((6, 1, 4), 3, 0), ((4, 3, 1, 5, 2), 3, 0),
        ((9, 7, 5, 4, 2, 1), 3, 0), ((300, 300), 2, 25), ((1, 5, 3), 3, 0)])
    def test_matches_oracle_through_the_switch(self, sizes, n, sample):
        rng = np.random.default_rng(list(sizes))
        ds = self.clustered(rng, sizes, n)
        rows = range(ds.n_samples)
        if sample:
            assert min(sizes) ** 2 > pnn._TILE  # one cross block > a tile
            rows = np.sort(rng.choice(ds.n_samples, sample, replace=False))
        ev = DensityEvaluator(ds, ds.features, exclude_self=True)
        for kind in self.KINDS:
            # ev lays its pairs out anew for each kind after the first
            fresh = DensityEvaluator(ds, ds.features, exclude_self=True)
            for _ in range(3):
                sm = log_uniform_smoothing(rng, kind, ds, 0.2, 3.0)
                assert_loo_matches_oracle(ev, ds, sm, rows)
                np.testing.assert_array_equal(ev.class_densities(sm),
                                              fresh.class_densities(sm))

    # Tiles of 7 and 64 pairs cut blocks and regions mid-way, and in the
    # G-row layout one tile holds parts of two or three regions. A layout
    # of more pairs than a tile holds float32 terms: its densities still
    # come from the exact path, and its screened error rates equal the
    # float64 layout's and the oracle's.
    @pytest.mark.parametrize("tile", [7, 64])
    @pytest.mark.parametrize("sizes", [(9, 7, 5, 4, 2, 1), (1, 5, 3)])
    def test_small_tiles_change_no_bit(self, monkeypatch, sizes, tile):
        rng = np.random.default_rng([tile, *sizes])
        ds = self.clustered(rng, sizes, 3)
        smoothings = [log_uniform_smoothing(rng, kind, ds, 0.2, 3.0)
                      for kind in self.KINDS for _ in range(2)]
        default = DensityEvaluator(ds, ds.features, exclude_self=True)
        want = [(default.class_densities(sm), default.error_rate(sm, ds.labels))
                for sm in smoothings]
        assert default._d2.dtype == np.float64
        monkeypatch.setattr(pnn, "_TILE", tile)
        ev = DensityEvaluator(ds, ds.features, exclude_self=True)
        for sm, (densities, error) in zip(smoothings, want):
            np.testing.assert_array_equal(ev.class_densities(sm), densities)
            assert ev.error_rate(sm, ds.labels) == error
            assert error == oracle_error_rate(ds, sm)
            assert_loo_matches_oracle(ev, ds, sm, range(ds.n_samples))
            assert ev._d2.dtype == (np.float32 if len(ev._terms) > tile
                                    else np.float64)
        if sizes == (9, 7, 5, 4, 2, 1):
            assert ev._d2.dtype == np.float32

    def test_near_tie_is_deferred_to_the_exact_path(self, monkeypatch):
        # row 0 has one pattern of each class at distance 1. At these
        # per-class bandwidths class 0 leads by 1e-11 in log density, but
        # rounding 1 / h^2 to float32 puts class 1 ahead by 8e-8, inside the
        # screen's bound: only that row goes to the exact path
        monkeypatch.setattr(pnn, "_TILE", 2)
        deferred = count_exact_rows(monkeypatch)
        ds = Dataset([[0.0], [1.0], [-1.0]], [0, 0, 1])
        sm = Smoothing("per_class", [1.5092068209881788, 2.001])
        ev = DensityEvaluator(ds, ds.features, exclude_self=True)
        predicted = ev.predict(sm)
        assert ev._d2.dtype == np.float32
        assert predicted.tolist() == [0, 0, 0] and deferred == [0]
        assert_oracle_argmax(predicted, ds, sm, ds.features, True)

    def test_float64_tie_is_deferred_to_the_exact_path(self, monkeypatch):
        # row 0 is equidistant from one pattern of each class, so its class
        # sums tie: no rounding bound can settle it, and only that row goes
        # to the exact path, whose tie goes to the lowest index
        deferred = count_exact_rows(monkeypatch)
        ds = Dataset([[0.0], [1.0], [-1.0]], [0, 0, 1])
        sm = Smoothing("scalar", 0.7)
        ev = DensityEvaluator(ds, ds.features, exclude_self=True)
        predicted = ev.predict(sm)
        assert ev._d2.dtype == np.float64
        assert predicted.tolist() == [0, 0, 0] and deferred == [0]
        assert_oracle_argmax(predicted, ds, sm, ds.features, True)

    def test_sums_below_float32_range_take_the_exact_path(self, monkeypatch):
        # raw-scale points on the diagonal of 4 features at h = 1: row 0's
        # class-0 term is 2**-255.5 and its class-1 term 2**-256.2, so class
        # 1 leads, as class 0 also counts a far pattern. Scaled by K^2 the
        # first is a float32 subnormal, and for the second the product
        # overflows: the float32 sums put class 0 ahead, but its sum lies
        # inside the slack and the row goes to the exact path. A float64
        # layout settles the row from its linear sums.
        def at(log2_term):
            return math.sqrt(2.0 ** (-log2_term / 8) - 1.0)

        ds = Dataset(np.outer([0.0, at(-255.5), 10 * at(-255.5),
                               -at(-256.2)], np.ones(4)), [0, 0, 0, 1])
        sm = Smoothing("scalar", 1.0)
        deferred = count_exact_rows(monkeypatch)
        default = DensityEvaluator(ds, ds.features, exclude_self=True)
        assert default.predict(sm)[0] == 1 and deferred == []
        monkeypatch.setattr(pnn, "_TILE", 4)
        ev = DensityEvaluator(ds, ds.features, exclude_self=True)
        predicted = ev.predict(sm)
        assert ev._d2.dtype == np.float32
        assert predicted[0] == 1 and 0 in deferred
        assert ev.error_rate(sm, ds.labels) == oracle_error_rate(ds, sm)
        assert_oracle_argmax(predicted, ds, sm, ds.features, True)


    def test_spread_past_float32_keeps_float64(self, monkeypatch):
        # class 1 leads at row 0, 0.047 to 0.028 per pattern, but its
        # squared difference, 3.6e38, passes float32's range: in float32 its
        # term would drop to 0 and leave class 0 certified ahead, so this
        # layout stays float64
        monkeypatch.setattr(pnn, "_TILE", 2)
        ds = Dataset([[0.0], [1.8e19], [-1e21], [-1.9e19]], [0, 0, 0, 1])
        sm = Smoothing("scalar", 1e19)
        ev = DensityEvaluator(ds, ds.features, exclude_self=True)
        predicted = ev.predict(sm)
        assert ev._d2.dtype == np.float64 and predicted[0] == 1
        assert_oracle_argmax(predicted, ds, sm, ds.features, True)


def count_exact_rows(monkeypatch):
    """The query rows every later call sends to the exact path."""
    rows, log_sums = [], DensityEvaluator._log_sums

    def counted(self, queries, inv_h2):
        rows.extend(queries.tolist())
        return log_sums(self, queries, inv_h2)

    monkeypatch.setattr(DensityEvaluator, "_log_sums", counted)
    return rows


def oracle_error_rate(ds, sm):
    """Leave-one-out error rate of the oracle's argmax."""
    features, labels = ds.features.tolist(), ds.labels.tolist()
    rows = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
    wrong = sum(int(np.argmax(oracles.log_class_densities(
        features, labels, rows, x, ds.n_classes, exclude=q))) != labels[q]
        for q, x in enumerate(features))
    return wrong / ds.n_samples


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_density_evaluator_agrees_with_oracle(seed):
    rng = np.random.default_rng(seed)
    ds = random_instance(rng, max_p=10, max_n=3, max_g=3)
    sm = random_smoothing(rng, ds)
    x = rng.normal(0, 2, size=(1, ds.n_features))
    ev = DensityEvaluator(ds, x)
    rows = np.broadcast_to(sm.grid, (ds.n_classes, ds.n_features)).tolist()
    want = [oracles.class_density(ds.features.tolist(), ds.labels.tolist(),
                                  [1.0] * ds.n_samples, rows, x[0].tolist(), j)
            for j in range(ds.n_classes)]
    np.testing.assert_allclose(ev.class_densities(sm)[0], want, rtol=1e-10)


def registry_shape_split(name, seed=0):
    """Gaussian class clusters at a registry dataset's class balance and
    feature count, split at test fraction 0.2; the generator of
    ``tools/loo_ab.py``'s ``train_set``."""
    d = REGISTRY[name]
    g, n = len(d.expected_balance), d.expected_features
    rng = np.random.default_rng([seed, sorted(REGISTRY).index(name)])
    labels = np.repeat(np.arange(g), d.expected_balance)
    rng.shuffle(labels)
    centres = rng.standard_normal((g, n))
    features = centres[labels] + rng.standard_normal((len(labels), n))
    return stratified_split(Dataset(features, labels), SplitSpec(0.2, seed))


def replay_trajectory(monkeypatch, name, kind, dtype):
    """Replay every distinct candidate of a short seeded run at registry
    dataset ``name``'s shape, whose pair layout has ``dtype``: the 10 rows
    the screen settled nearest a tie, by the gap of their linear log
    scores, keep the exact path's argmax, and a sample of them the
    oracle's."""
    train, test = registry_shape_split(name)
    linear_sums = DensityEvaluator._linear_sums
    unsettled = DensityEvaluator._unsettled
    calls = []

    def recording_sums(self, inv_h2):
        calls.append((self, inv_h2))
        return linear_sums(self, inv_h2)

    def recording_unsettled(self, sums, scores, best, log_det):
        open_rows = unsettled(self, sums, scores, best, log_det)
        settled = np.setdiff1d(np.arange(len(sums)), open_rows)
        top = np.sort(scores[settled], axis=1)
        gaps = top[:, -1] - top[:, -2]
        nearest = settled[np.argsort(gaps, kind="stable")[:10]]
        calls[-1] += (nearest, best[nearest], log_det)
        return open_rows

    monkeypatch.setattr(DensityEvaluator, "_linear_sums", recording_sums)
    monkeypatch.setattr(DensityEvaluator, "_unsettled", recording_unsettled)
    train_hybrid(train, test, HybridConfig(
        iterations=1, probing_multiplier=2, fit_multiplier=10,
        smoothing_kind=kind))
    assert len(calls) > 200 and calls[0][0]._d2.dtype == dtype
    features, labels = train.features.tolist(), train.labels.tolist()
    shape = (train.n_classes, train.n_features)
    for k, (ev, inv_h2, nearest, best, log_det) in enumerate(calls):
        exact = (ev._log_sums(nearest, inv_h2) - ev._log_counts[nearest]
                 - log_det)
        np.testing.assert_array_equal(exact.argmax(axis=1), best)
        if k % 30 == 0:
            rows = np.broadcast_to(1.0 / np.sqrt(inv_h2), shape).tolist()
            want = oracles.log_class_densities(
                features, labels, rows, features[nearest[0]],
                train.n_classes, exclude=nearest[0])
            assert int(np.argmax(want)) == best[0], (k, want)


def test_training_trajectory_settles_only_exact_argmaxes(monkeypatch):
    # Optimizers reach near ties that random candidates rarely hit; banknote's
    # shape has a float32 layout
    replay_trajectory(monkeypatch, "banknote", "per_feature", np.float32)


def test_float64_training_trajectory_settles_only_exact_argmaxes(
        monkeypatch):
    # glass's shape, one bandwidth row per class, has a float64 layout
    replay_trajectory(monkeypatch, "glass", "per_class_feature", np.float64)
