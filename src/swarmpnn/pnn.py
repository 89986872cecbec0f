"""Probabilistic neural network core: Cauchy product kernels, per-class
density estimation, Bayes-argmax classification and the density-adaptive
per-pattern scale adjustment.

The module-level functions are pure, and datasets, smoothings and models are
immutable values that threads can share. A :class:`DensityEvaluator` is not:
it keeps its pair layout and scratch arrays, so each thread needs its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_OVER_PI = 2.0 / np.pi

# Bandwidths this small are treated as the zero-width limit; candidate
# vectors produced by the optimizers may sit exactly on the lower bound 0.
BANDWIDTH_FLOOR = 1e-12

DENSITY_FLOOR = 1e-300  # clamps own-class densities before their logarithm


def _readonly(a: np.ndarray) -> np.ndarray:
    """A C-contiguous read-only copy: the caller's array stays writable."""
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


class Dataset:
    """Labeled numeric feature matrix.

    Parameters
    ----------
    features : array-like, shape (P, N)
        Finite real feature values.
    labels : array-like of int, shape (P,)
        Class indices in ``0..n_classes-1``.
    n_classes : int, optional
        Number of classes; defaults to ``max(labels) + 1``.
    feature_names, class_names : sequence of str, optional
    """

    def __init__(self, features, labels, n_classes=None, feature_names=None,
                 class_names=None):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] == 0:
            raise ValueError("features must be a 2-D matrix with >= 1 column")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length must match feature rows")
        if features.shape[0] == 0:
            raise ValueError("dataset is empty")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if labels.min() < 0:
            raise ValueError("negative class label")
        if n_classes is None:
            n_classes = int(labels.max()) + 1
        elif labels.max() >= n_classes:
            raise ValueError("label out of range for n_classes")
        counts = np.bincount(labels, minlength=n_classes)
        if np.any(counts == 0):
            raise ValueError("every class needs at least one sample")
        self.features = _readonly(features)
        self.labels = _readonly(labels)
        self.n_classes = int(n_classes)
        self.class_counts = _readonly(counts)
        self.feature_names = tuple(feature_names) if feature_names else None
        self.class_names = tuple(class_names) if class_names else None

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.features[indices], self.labels[indices],
                       n_classes=self.n_classes,
                       feature_names=self.feature_names,
                       class_names=self.class_names)

    def __repr__(self):
        return (f"Dataset(P={self.n_samples}, N={self.n_features}, "
                f"G={self.n_classes})")


class Smoothing:
    """Kernel bandwidths at one of four granularities.

    ``scalar``            one value shared by everything
    ``per_class``         one value per class
    ``per_feature``       one value per feature, shared by all classes
    ``per_class_feature`` a full classes x features matrix

    :attr:`LAYOUTS` says for each kind whether it has one value per class
    and one value per feature; every shape below is derived from it.
    ``values`` keeps the published shape (``(1,)``, ``(G,)``, ``(N,)`` or
    ``(G, N)``) and ``grid`` is a read-only ``(G or 1, N or 1)`` view of it,
    which broadcasts to the full (classes x features) bandwidth matrix.

    A Smoothing is a validated grid for the API edge. Training passes
    :class:`DensityEvaluator` bare grids and builds no Smoothing per
    candidate; ``__array__`` returns ``grid``, so a Smoothing goes wherever
    the engine takes a grid, through the same code path.

    The bandwidth matrix of the density formula is always diagonal, so its
    determinant is the product of the entries and its inverse acts as
    elementwise division.
    """

    # kind -> (one value per class?, one value per feature?)
    LAYOUTS = {"scalar": (False, False), "per_class": (True, False),
               "per_feature": (False, True),
               "per_class_feature": (True, True)}
    KINDS = tuple(LAYOUTS)

    def __init__(self, kind: str, values):
        per_class, per_feature = self._layout(kind)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != per_class + per_feature:
            raise ValueError(f"{kind} smoothing expects "
                             f"{per_class + per_feature}-D values")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("bandwidths must be finite and strictly positive")
        self.kind = kind
        self.values = _readonly(np.atleast_1d(values))
        self.grid = self.values.reshape(
            len(self.values) if per_class else 1, -1)

    @classmethod
    def _layout(cls, kind: str):
        if kind not in cls.LAYOUTS:
            raise ValueError(f"unknown smoothing kind {kind!r}")
        return cls.LAYOUTS[kind]

    @classmethod
    def from_vector(cls, kind: str, vector, n_classes: int,
                    n_features: int) -> "Smoothing":
        """Rebuild a spec from the flat optimizer vector for ``kind``."""
        per_class, per_feature = cls._layout(kind)
        return cls(kind, np.reshape(vector, (n_classes,) * per_class
                                    + (n_features,) * per_feature))

    @classmethod
    def grid_shape(cls, kind: str, n_classes: int, n_features: int) -> tuple:
        """Shape ``(G or 1, N or 1)`` of the ``grid`` of ``kind``."""
        per_class, per_feature = cls._layout(kind)
        return (n_classes if per_class else 1, n_features if per_feature else 1)

    @classmethod
    def vector_length(cls, kind: str, n_classes: int, n_features: int) -> int:
        return math.prod(cls.grid_shape(kind, n_classes, n_features))

    def validate_for(self, dataset: Dataset) -> None:
        g, n = dataset.n_classes, dataset.n_features
        if self.grid.shape != self.grid_shape(self.kind, g, n):
            raise ValueError(
                f"{self.kind} smoothing shape {self.values.shape} does not "
                f"match dataset with G={g}, N={n}")

    def __array__(self, dtype=None, copy=None):
        # numpy 2 passes ``copy`` and warns for a method without it
        return np.array(self.grid, dtype=dtype, copy=copy)

    def to_jsonable(self):
        return {"kind": self.kind, "values": self.values.tolist()}


@dataclass(frozen=True)
class ModificationConfig:
    """Intensity of the per-pattern scale adjustment; 0 disables it."""

    intensity: float = 0.0

    def __post_init__(self):
        if not 0 <= self.intensity < math.inf:
            raise ValueError("intensity must be finite and nonnegative")


@dataclass(frozen=True)
class PnnModel:
    """A fitted classifier: the stored pattern set plus its bandwidths.

    ``pattern_scales`` holds the per-pattern multiplier s_p (all ones unless
    :func:`apply_modification` has been applied).
    """

    patterns: Dataset
    smoothing: Smoothing
    pattern_scales: np.ndarray = field(default=None)

    def __post_init__(self):
        self.smoothing.validate_for(self.patterns)
        scales = self.pattern_scales
        if scales is None:
            scales = np.ones(self.patterns.n_samples)
        scales = np.asarray(scales, dtype=np.float64)
        if scales.shape != (self.patterns.n_samples,):
            raise ValueError("pattern_scales length must match pattern count")
        if not np.all(np.isfinite(scales)) or np.any(scales <= 0):
            raise ValueError("pattern_scales must be finite and strictly "
                             "positive")
        object.__setattr__(self, "pattern_scales", _readonly(scales))


def cauchy_kernel(u):
    """One-dimensional Cauchy kernel 2 / (pi * (u^2 + 1)^2).

    Accepts scalars or arrays; even, strictly positive, maximal at 0 where it
    equals 2/pi, and integrates to one.
    """
    u = np.asarray(u, dtype=np.float64)
    out = TWO_OVER_PI / np.square(np.square(u) + 1.0)
    return float(out) if out.ndim == 0 else out


def product_kernel(x) -> float:
    """Product of one-dimensional Cauchy kernels over the coordinates."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.prod(cauchy_kernel(x)))


def kde(x, patterns, h: float) -> float:
    """Kernel density estimate at ``x`` with a single scalar bandwidth.

    ``patterns`` is the (P, N) matrix of stored points. Raises ``ValueError``
    for an empty pattern set or a nonpositive bandwidth.
    """
    patterns = np.asarray(patterns, dtype=np.float64)
    ds = Dataset(patterns, np.zeros(len(patterns), dtype=np.int64))
    evaluator = DensityEvaluator(ds, np.reshape(x, (1, -1)))
    return float(evaluator.class_densities(Smoothing("scalar", h))[0, 0])


def class_density(model: PnnModel, x, j: int) -> float:
    """Density estimate of class ``j`` at ``x`` (the summation layer).

    Each stored pattern of the class contributes a product kernel scaled by
    its diagonal bandwidths and its pattern scale s_p.
    """
    if not 0 <= j < model.patterns.n_classes:
        raise ValueError(f"class index {j} out of range")
    return float(class_densities(model, x)[j])


def class_densities(model: PnnModel, x) -> np.ndarray:
    evaluator = DensityEvaluator(model.patterns, np.reshape(x, (1, -1)),
                                 pattern_scales=model.pattern_scales)
    return evaluator.class_densities(model.smoothing)[0]


def classify(model: PnnModel, x) -> int:
    """Class with the highest density at ``x``; ties go to the lowest index."""
    return int(classify_batch(model, np.reshape(x, (1, -1)))[0])


def classify_batch(model: PnnModel, X) -> np.ndarray:
    """:func:`classify` for each row of ``X``."""
    evaluator = DensityEvaluator(model.patterns, X,
                                 pattern_scales=model.pattern_scales)
    return evaluator.predict(model.smoothing)


def apply_modification(model: PnnModel, cfg: ModificationConfig) -> PnnModel:
    """Return a copy of ``model`` with density-adaptive pattern scales.

    Each pattern's own-class density (at unit scales, its own pattern
    included) is compared with the geometric mean over all patterns; dense
    regions get scales below one, sparse regions above. Densities are
    clamped to ``DENSITY_FLOOR`` before the logarithm and the geometric
    mean is computed as the mean of logarithms. With intensity 0 all scales
    are exactly one.
    """
    if not np.all(model.pattern_scales == 1.0):
        raise ValueError("modification must start from unit pattern scales")
    ds = model.patterns
    if cfg.intensity == 0.0:
        return PnnModel(ds, model.smoothing, np.ones(ds.n_samples))
    densities = DensityEvaluator(ds, ds.features).class_densities(
        model.smoothing)[np.arange(ds.n_samples), ds.labels]
    logs = np.log(np.maximum(densities, DENSITY_FLOOR))
    scales = np.exp(-cfg.intensity * (logs - logs.mean()))
    return PnnModel(ds, model.smoothing, scales)


# Pair terms per block of rows in the exact log-space path.
_LOG_BLOCK = 1 << 16
# Pairs per leave-one-out fill tile: its terms and scratch, 1 MB, stay in L2.
_TILE = 1 << 16


def _loo_pairs(bounds, per_class):
    """The leave-one-out pairs (u, v), u < v, of the class-sorted patterns
    in regions (see :class:`DensityEvaluator`): per class c, the blocks
    (c, b > c), then (c, c), then with ``per_class`` copies of (a < c, c);
    without it one region holds all. Block (a, b) pairs each row of class a
    with each of class b in row-major order. Returns u, v, each region's
    (start, start of tail, end of head, stop) and the start of each run of
    pairs sharing u in a block.
    """
    pairs, runs, regions = [], [], []
    m = 0

    def block(a, b):
        nonlocal m
        rows, cols = (np.arange(bounds[c], bounds[c + 1]) for c in (a, b))
        if a == b:
            u, v = (rows[i] for i in np.triu_indices(len(rows), 1))
            r = np.arange(len(rows) - 1)  # row r has len(rows) - 1 - r pairs
            starts = r * (len(rows) - 1) - r * (r - 1) // 2
        else:
            u, v = np.repeat(rows, len(cols)), np.tile(cols, len(rows))
            starts = np.arange(len(rows)) * len(cols)
        runs.append(m + starts)
        pairs.append((u, v))
        m += len(u)

    g = len(bounds) - 1
    for c in range(g):
        start = m
        for b in range(c + 1, g):
            block(c, b)
        tail = m
        block(c, c)
        head = m
        for a in range(c if per_class else 0):
            block(a, c)
        regions.append((start, tail, head, m))
    if not per_class:
        regions = [(0, 0, m, m)]
    u, v = map(np.concatenate, zip(*pairs))
    return u, v, regions, np.concatenate(runs)


class DensityEvaluator:
    """Exact evaluation of one query set against one pattern set.

    Every density of the package comes from here. Bandwidths come as a
    finite 2-D (G or 1, N or 1) grid, or a :class:`Smoothing`: one row
    serves every class, G rows one each. A flat vector raises ``ValueError``
    instead of broadcasting as one value per feature. Values below
    :data:`BANDWIDTH_FLOOR`, such as the optimizers' bound 0, are clamped.

    With ``exclude_self=True`` the query rows must be the pattern rows in
    order, and each query's own pattern is left out of its class sum
    (leave-one-out). Training scores many candidate bandwidths against this
    set, so only here are the squared differences of every pair laid out,
    one feature at a time, and reused for every candidate. The term of a
    pair (u, v) counts for row v's sum of the class of u (the v side) and
    for row u's sum of the class of v (the u side), each at that class's
    bandwidths. :func:`_loo_pairs` groups the pairs in regions by the row
    they need, for the first call's number of bandwidth rows; a call with
    the other number lays them out anew. With one row, one region holds each
    pair once and is its own head and tail. With G rows, region c is filled
    at row c: its head, the cross blocks (c, b > c) and the within block,
    gives the v side, and its tail, the within block and a copy of each
    cross block (a < c, c), the u side. The fill runs in tiles of
    :data:`_TILE` pairs cut over the whole layout; only the scaling runs per
    segment, a tile's part of one region, at the region's row.

    Leave-one-out class sums are a ``bincount`` over (row, class) slots of
    the linear pair terms of each head, then one ``bincount`` of the run
    sums of every tail, where a row's terms of one class lie in one run. A
    slot gets one head block and one tail run at most, each in row-major
    order, so every sum adds the same terms in the same order in either
    layout. They only screen :meth:`predict`'s argmaxes: densities, rows the
    screen leaves open and all rows of any other evaluator come from the
    exact path, in log space from the data rows, so no row falls back to
    class 0 through underflow. An evaluator keeps its layout and per-call
    scratch arrays, so it must not be shared between threads.

    A layout of at most :data:`_TILE` pairs is float64 with terms
    1 / prod_f (1 + d_f^2 / h_f^2)^2 (K = 1). A larger one is float32 while
    every d_f^2 < 2**100: d_f^2 is rounded from float64, the terms are
    (K / prod_f (...))^2 with K = 2**63, at most 2**126, and their float64
    sums are divided by K^2, exactly. One rule settles a row's argmax b in
    either dtype: b's lower bound log(sum_b (1 - delta) - slack) must beat
    every other class's upper bound log(sum_c (1 + delta) + slack), each
    less its log count and log determinant, where
    delta = 2 (10N + 8) u + (P + 1000 (N + 2)^2) 2**-53 and
    slack = P t / K^2, with u the layout's unit roundoff (2**-24 or 2**-53)
    and t its least normal number (2**-126 or 2**-1022). Per Higham
    (Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1): in
    the layout's dtype, the casts of d_f^2 and 1 / h_f^2 (none in float64),
    their product and the ``+ 1`` are at most 4 roundings per feature; the
    N - 1 products, the division and the square, which doubles the rest,
    bound a term's relative error by gamma = gamma_{10N+1}. While
    (10N + 8) u <= 1/4, 2 (10N + 8) u exceeds gamma / (1 - gamma) by 14 u,
    which covers the cross terms and subnormal operands: under 2**-50 per
    factor in float32, as d_f^2 < 2**100 and h_f >= BANDWIDTH_FLOOR, and
    under 2**-60 in float64 while d_f^2 < 2**960. Everything else is
    float64: P 2**-53 bounds the summation, and 1000 (N + 2)^2 2**-53 the
    10N roundings of d_f^2 and 1 / h_f^2 in float64 (5 per feature, doubled
    by the square) and the absolute rounding of the logs. With logs within
    an ulp, a log score rounds a log sum (below 745 in size), a log count,
    N log bandwidths (below 710 each), their sum and two differences: it is
    off by less than (717 N^2 + 1413 N + 3161) 2**-53. In float32 the 14 u
    would absorb that; in float64 it exceeds 2 (10N + 8) u. A term below
    t / K^2 (subnormal, or its product overflows) is off by at most that,
    hence the slack. A settled argmax is thus the exact one.

    The bounds are taken only for the rows that a gap test leaves open. The
    screen's scores are log(max(sum_c, slack)) less log count and log
    determinant; a floor at or below the slack changes no bound test's
    outcome, so their argmax is the one the bounds may certify. A row
    passes the gap test when its best score less 9 delta exceeds every
    other class's score and log(slack / delta) less the least log count and
    log determinant. Then sum_b >= slack / delta, so b's lower bound is at
    least its score plus log(1 - 2 delta), and each upper bound at most the
    larger of c's score and that floor, plus log(1 + 2 delta). While
    delta <= 1/20 (up to 40,000 features) these cost under 4.45 delta, and
    the rounding of the four values compared under 4 delta, so the row
    passes the bound test too: the gap test only saves the bounds' cost.

    ``pattern_scales`` (one positive s_p per pattern, default all one)
    divides each pattern's kernel argument by s_p and its kernel by
    s_p ** N; leave-one-out takes unit scales only.
    """

    def __init__(self, pattern_set: Dataset, queries, exclude_self=False, *,
                 pattern_scales=None):
        queries = np.array(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != pattern_set.n_features:
            raise ValueError("queries must be (Q, N); query dimension does "
                             "not match the pattern set")
        if exclude_self and not (
                queries.shape == pattern_set.features.shape
                and np.array_equal(queries, pattern_set.features)):
            raise ValueError("exclude_self requires queries == pattern rows")
        ds, p = pattern_set, pattern_set.n_samples
        scales = np.ones(p) if pattern_scales is None else np.asarray(
            pattern_scales, dtype=np.float64)
        if (scales.shape != (p,) or not np.all(np.isfinite(scales))
                or np.any(scales <= 0)):
            raise ValueError("pattern_scales must be P finite positive values")
        if exclude_self and np.any(scales != 1.0):
            raise ValueError("leave-one-out takes unit pattern scales only")
        self.pattern_set = pattern_set
        self.exclude_self = exclude_self
        self.n_queries = q = queries.shape[0]
        self._queries = queries

        self._order = order = np.argsort(ds.labels, kind="stable")
        self._columns = np.ascontiguousarray(ds.features[order].T)
        self._col_class = ds.labels[order]
        self._starts = np.concatenate(([0], np.cumsum(ds.class_counts)))[:-1]
        self._scales = scales[order]
        counts = np.tile(ds.class_counts.astype(np.float64), (q, 1))
        if exclude_self:
            self._regions = ()  # laid out at the first call
            self._own_col = np.argsort(order)  # pattern -> its column
            counts[np.arange(q), ds.labels] -= 1.0
        with np.errstate(divide="ignore"):
            # a class left empty by the exclusion scores -inf
            self._log_counts = np.where(counts > 0, np.log(counts), np.inf)

    def _lay_out(self, rows) -> None:
        """Lay out the leave-one-out pairs for one or G bandwidth rows."""
        g, order, classes = (self.pattern_set.n_classes, self._order,
                             self._col_class)
        u, v, regions, runs = _loo_pairs(np.append(self._starts, len(order)),
                                         per_class=rows > 1)
        m = len(u)
        narrow = m > _TILE and np.ptp(self._columns, axis=1).max() < 2.0 ** 50
        dtype = np.float32 if narrow else np.float64
        self._k = 2.0 ** 63 if narrow else 1.0
        self._d2 = np.empty((len(self._columns), m), dtype)
        diff = np.empty(m)
        for f, column in enumerate(self._columns):
            np.take(column, u, out=diff)
            diff -= column[v]
            np.square(diff, out=self._d2[f])
        self._terms = np.empty(m, dtype)
        self._buf = np.empty(min(m, _TILE), dtype)
        self._tiles = [(first, last, [
            (max(start, first) - first, min(stop, last) - first, c)
            for c, (start, _, _, stop) in enumerate(regions)
            if start < last and stop > first])
            for first in range(0, m, _TILE)
            for last in [min(first + _TILE, m)]]
        # a slot is (query, class), queries being patterns in input order
        own = [runs[np.searchsorted(runs, tail):np.searchsorted(runs, stop)]
               for _, tail, _, stop in regions]
        tails = np.concatenate(own)
        self._run_slots = order[u[tails]] * g + classes[v[tails]]
        self._run_sums = np.empty(len(tails))
        parts = np.split(self._run_sums, np.cumsum([len(r) for r in own[:-1]]))
        self._regions = [
            (order[v[start:head]] * g + classes[u[start:head]],
             self._terms[start:head], self._terms[:stop], r, part)
            for (start, _, head, stop), r, part in zip(regions, own, parts)]
        (n, p), info = self._columns.shape, np.finfo(dtype)
        self._delta = (2 * (10 * n + 8) * (float(info.eps) / 2)
                       + (p + 1000 * (n + 2) ** 2) * 2.0 ** -53)
        self._slack = p * float(info.tiny) / self._k ** 2
        self._floor = (math.log(self._slack / self._delta)
                       - self._log_counts.min())
        self._row_slots = np.arange(0, self._log_counts.size, g)

    def _fill_terms(self, inv_h2) -> None:
        """Terms (K / prod_f (1 + d_f^2 / h_f^2))^2 at each region's row:
        only the scaling runs per segment, at its row, the rest per tile."""
        rows = inv_h2.tolist()
        with np.errstate(over="ignore", under="ignore"):
            for first, last, segments in self._tiles:
                d2, out = self._d2[:, first:last], self._terms[first:last]
                buf = self._buf[:last - first]
                for f in range(len(d2)):
                    scaled = buf if f else out
                    for a, b, row in segments:
                        np.multiply(d2[f, a:b], rows[row][f], out=scaled[a:b])
                    scaled += 1.0
                    if f:
                        out *= buf
                np.divide(self._k, out, out=out)
                np.square(out, out=out)

    def _linear_sums(self, inv_h2) -> np.ndarray:
        """(Q, G) leave-one-out class sums of the linear pair terms."""
        if len(inv_h2) != len(self._regions):
            self._lay_out(len(inv_h2))
        self._fill_terms(inv_h2)
        size = self.n_queries * self.pattern_set.n_classes
        sums = np.zeros(size)
        for slots, head, terms, runs, run_sums in self._regions:
            sums += np.bincount(slots, head, size)
            np.add.reduceat(terms, runs, out=run_sums)
        sums += np.bincount(self._run_slots, self._run_sums, size)
        sums /= self._k ** 2  # a power of two: exact
        return sums.reshape(self.n_queries, -1)

    def _log_scores(self, bandwidths, screen) -> tuple:
        """(Q, G) log densities, less N log(2/pi), and each row's argmax.
        With ``screen`` the linear sums settle the rows they can (see
        :meth:`_unsettled`); the exact path computes the rest."""
        ds, grid = self.pattern_set, np.asarray(bandwidths, dtype=np.float64)
        if grid.ndim != 2 or not np.isfinite(grid).all():
            raise ValueError("bandwidths must be a finite 2-D grid")
        shape = (ds.n_classes if len(grid) > 1 else 1, ds.n_features)
        h = np.maximum(grid, BANDWIDTH_FLOOR)
        if h.shape != shape:  # a one-column grid; any other shape raises
            h = np.broadcast_to(h, shape)
        inv_h2 = 1.0 / np.square(h)
        log_det = np.log(h).sum(axis=1)
        if screen:
            sums = self._linear_sums(inv_h2)
            scores = np.log(np.maximum(sums, self._slack))
            scores -= self._log_counts
            scores -= log_det
            best = scores.argmax(axis=1)
            exact = self._unsettled(sums, scores, best, log_det)
        else:
            scores = np.empty(self._log_counts.shape)
            exact = np.arange(self.n_queries)
            best = np.empty(self.n_queries, dtype=np.intp)
        if len(exact):
            scores[exact] = rows = (self._log_sums(exact, inv_h2)
                                    - self._log_counts[exact] - log_det)
            best[exact] = rows.argmax(axis=1)
        return scores, best

    def _unsettled(self, sums, scores, best, log_det) -> np.ndarray:
        """Rows whose argmax ``best`` the linear sums leave open (see the
        class docstring): the bounds are taken only for the rows that the
        gap test on ``scores`` leaves."""
        low = scores.ravel()[best + self._row_slots] - 9 * self._delta
        near = np.greater(scores.T, low, order="C")  # class-major: sums fast
        floor = self._floor - min(log_det.tolist())
        if low.min() > floor and np.count_nonzero(near) == len(low):
            return best[:0]  # every row passes the gap test
        rows = np.flatnonzero((near.sum(axis=0) != 1) | ~(low > floor))
        sums, best, at = sums[rows], best[rows], np.arange(len(rows))
        delta, slack = self._delta, self._slack
        bounds = np.log(sums * (1 + delta) + slack)
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds[at, best] = np.log(sums[at, best] * (1 - delta) - slack)
        bounds -= self._log_counts[rows]
        bounds -= log_det
        low = bounds[at, best]
        bounds[at, best] = -np.inf
        return rows[~(low > bounds.max(axis=1))]

    def _log_sums(self, queries, inv_h2) -> np.ndarray:
        """Log class sums of the kernel terms of ``queries``, from the data.

        The log term of pattern column c is
        -2 sum_f log1p(d_f^2 / (h_f s_c)^2) - N log s_c, with h the
        bandwidths of the class of c; the query's own column is -inf under
        leave-one-out. Each class is summed with a per-row max shift. A
        block of rows works in two (rows, P) arrays: the per-feature scratch
        and the total, which becomes the log terms, the shifted terms and
        their exponentials in place.
        """
        n, p = self._columns.shape
        scale = (inv_h2[self._col_class] if len(inv_h2) > 1 else inv_h2).T
        scale = scale / np.square(self._scales)
        log_s = n * np.log(self._scales)
        out = np.empty((len(queries), self.pattern_set.n_classes))
        step = max(1, min(len(queries), _LOG_BLOCK // p))
        total_buf, scratch_buf = np.empty((step, p)), np.empty((step, p))
        for first in range(0, len(queries), step):
            rows = queries[first:first + step]
            x = self._queries[rows]
            total, scratch = total_buf[:len(rows)], scratch_buf[:len(rows)]
            total.fill(0.0)
            with np.errstate(over="ignore"):
                for f in range(n):
                    np.subtract(x[:, f, None], self._columns[f], out=scratch)
                    np.square(scratch, out=scratch)
                    scratch *= scale[f]
                    np.log1p(scratch, out=scratch)
                    total += scratch
            total *= -2.0
            total -= log_s
            if self.exclude_self:
                total[np.arange(len(rows)), self._own_col[rows]] = -np.inf
            peak = np.maximum.reduceat(total, self._starts, axis=1)
            peak[np.isinf(peak)] = 0.0  # only the query's own pattern
            # the indices are valid; mode "raise" would copy through a buffer
            total -= np.take(peak, self._col_class, axis=1, out=scratch,
                             mode="clip")
            with np.errstate(under="ignore", divide="ignore"):
                np.exp(total, out=total)
                sums = np.add.reduceat(total, self._starts, axis=1)
                out[first:first + len(rows)] = peak + np.log(sums)
        return out

    def class_densities(self, bandwidths) -> np.ndarray:
        """True (Q, G) density values for every query and class."""
        scores, _ = self._log_scores(bandwidths, screen=False)
        scores += self.pattern_set.n_features * np.log(TWO_OVER_PI)
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(scores, out=scores)

    def predict(self, bandwidths) -> np.ndarray:
        """Argmax class per query; ties resolve to the lowest index."""
        return self._log_scores(bandwidths, screen=self.exclude_self)[1]

    def error_rate(self, bandwidths, labels) -> float:
        """Fraction of queries whose argmax class differs from ``labels``."""
        if np.shape(labels) != (self.n_queries,):
            raise ValueError("labels must be one class index per query")
        wrong = np.count_nonzero(self.predict(bandwidths) != labels)
        return float(wrong / self.n_queries)
