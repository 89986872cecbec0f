"""Probabilistic neural network core: Cauchy product kernels, per-class
density estimation, Bayes-argmax classification and the density-adaptive
per-pattern scale adjustment.

All functions are pure; models and datasets are immutable values that can be
shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_OVER_PI = 2.0 / np.pi

# Bandwidths this small are treated as the zero-width limit; candidate
# vectors produced by the optimizers may sit exactly on the lower bound 0.
BANDWIDTH_FLOOR = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
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

    def class_rows(self, j: int) -> np.ndarray:
        return self.features[self.labels == j]

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

    The bandwidth matrix of the density formula is always diagonal, so its
    determinant is the product of the entries and its inverse acts as
    elementwise division.
    """

    KINDS = ("scalar", "per_class", "per_feature", "per_class_feature")

    def __init__(self, kind: str, values):
        if kind not in self.KINDS:
            raise ValueError(f"unknown smoothing kind {kind!r}")
        values = np.asarray(values, dtype=np.float64)
        expected_ndim = {"scalar": 0, "per_class": 1, "per_feature": 1,
                         "per_class_feature": 2}[kind]
        if values.ndim != expected_ndim:
            raise ValueError(f"{kind} smoothing expects {expected_ndim}-D values")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("bandwidths must be finite and strictly positive")
        self.kind = kind
        self.values = _readonly(np.atleast_1d(values))

    @classmethod
    def scalar(cls, h: float) -> "Smoothing":
        return cls("scalar", np.float64(h))

    @classmethod
    def per_class(cls, values) -> "Smoothing":
        return cls("per_class", values)

    @classmethod
    def per_feature(cls, values) -> "Smoothing":
        return cls("per_feature", values)

    @classmethod
    def per_class_feature(cls, matrix) -> "Smoothing":
        return cls("per_class_feature", matrix)

    @classmethod
    def from_vector(cls, kind: str, vector, n_classes: int,
                    n_features: int) -> "Smoothing":
        """Rebuild a spec from the flat optimizer vector for ``kind``."""
        vector = np.asarray(vector, dtype=np.float64)
        if kind == "scalar":
            return cls.scalar(vector.reshape(()) if vector.ndim == 0 else vector[0])
        if kind == "per_class":
            return cls.per_class(vector.reshape(n_classes))
        if kind == "per_feature":
            return cls.per_feature(vector.reshape(n_features))
        if kind == "per_class_feature":
            return cls.per_class_feature(vector.reshape(n_classes, n_features))
        raise ValueError(f"unknown smoothing kind {kind!r}")

    @staticmethod
    def vector_length(kind: str, n_classes: int, n_features: int) -> int:
        return {"scalar": 1, "per_class": n_classes, "per_feature": n_features,
                "per_class_feature": n_classes * n_features}[kind]

    def validate_for(self, dataset: Dataset, upper: float = 10000.0) -> None:
        g, n = dataset.n_classes, dataset.n_features
        shape = {"scalar": (1,), "per_class": (g,), "per_feature": (n,),
                 "per_class_feature": (g, n)}[self.kind]
        if self.values.shape != shape:
            raise ValueError(
                f"{self.kind} smoothing shape {self.values.shape} does not "
                f"match dataset with G={g}, N={n}")
        if np.any(self.values > upper):
            raise ValueError(f"bandwidth exceeds upper bound {upper}")

    def class_bandwidths(self, j: int, n_features: int) -> np.ndarray:
        """Diagonal bandwidth vector for class ``j``, length ``n_features``."""
        if self.kind == "scalar":
            return np.full(n_features, self.values[0])
        if self.kind == "per_class":
            return np.full(n_features, self.values[j])
        if self.kind == "per_feature":
            return np.asarray(self.values)
        return np.asarray(self.values[j])

    def bandwidth_matrix(self, n_classes: int, n_features: int) -> np.ndarray:
        """All per-class bandwidth vectors stacked into a (G, N) matrix."""
        return np.vstack([self.class_bandwidths(j, n_features)
                          for j in range(n_classes)])

    @property
    def shared_across_classes(self) -> bool:
        return self.kind in ("scalar", "per_feature")

    def to_jsonable(self):
        return {"kind": self.kind, "values": self.values.tolist()}


@dataclass(frozen=True)
class ModificationConfig:
    """Intensity of the per-pattern scale adjustment; 0 disables it."""

    intensity: float = 0.0
    density_floor: float = 1e-300

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError("intensity must be nonnegative")
        if self.density_floor <= 0:
            raise ValueError("density_floor must be positive")


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
        if np.any(scales <= 0):
            raise ValueError("pattern_scales must be strictly positive")
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
    return float(evaluator.class_densities(Smoothing.scalar(h))[0, 0])


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
    clamped to ``cfg.density_floor`` before the logarithm and the geometric
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
    logs = np.log(np.maximum(densities, cfg.density_floor))
    scales = np.exp(-cfg.intensity * (logs - logs.mean()))
    return PnnModel(ds, model.smoothing, scales)


# Every pair term 1/prod(1 + u^2)^2 is at most 1 and leaves the normal float
# range only below about 2.2e-308, so a class sum of at least SAFE_SUM has
# lost nothing that matters to underflow. A smaller sum is scored as if it
# were SAFE_SUM, an upper bound on its true value, and its row is recomputed
# exactly from the data: for a prediction when the row's best score comes
# from such a sum, for density values whenever the row has one.
SAFE_SUM = 1e-250
# Pair terms per block of rows in the exact log-space path.
_LOG_BLOCK = 1 << 16


def _loo_pairs(bounds):
    """Each unordered pair (u, v), u < v, of the class-sorted patterns once.

    Within-class blocks come first, one per class, then the cross-class
    blocks (a, b), a < b, in row-major order. Returns the endpoints, the
    number of within-class pairs, the main segments (start, stop, class of
    u) and the cross blocks (start, stop, class of v).
    """
    us, vs, main, cross = [], [], [], []
    m = 0
    for c in range(len(bounds) - 1):
        u, v = np.triu_indices(bounds[c + 1] - bounds[c], 1)
        us.append(u + bounds[c])
        vs.append(v + bounds[c])
        main.append((m, m + len(u), c))
        m += len(u)
    n_within = m
    for a in range(len(bounds) - 1):
        rows, first = np.arange(bounds[a], bounds[a + 1]), m
        for b in range(a + 1, len(bounds) - 1):
            cols = np.arange(bounds[b], bounds[b + 1])
            us.append(np.repeat(rows, len(cols)))
            vs.append(np.tile(cols, len(rows)))
            cross.append((m, m + len(rows) * len(cols), b))
            m += len(rows) * len(cols)
        main.append((first, m, a))
    main = [segment for segment in main if segment[0] < segment[1]]
    return np.concatenate(us), np.concatenate(vs), n_within, main, cross


def _run_starts(slots):
    """Index of the first element of each run of equal values."""
    return np.flatnonzero(np.diff(slots, prepend=-1))


class DensityEvaluator:
    """Exact repeated evaluation of one query set against one pattern set.

    Every density of the package comes from here. Training scores many
    candidate bandwidths against fixed data, so the squared differences of
    every (pattern, query) pair are laid out once here, one feature at a
    time, and reused for every candidate.

    With ``exclude_self=True`` the query rows must be the pattern rows in
    order, and each query's own pattern is left out of its class sum
    (leave-one-out). The layout then holds each unordered pair once. With
    bandwidths shared across classes one kernel serves both of its rows;
    with per-class bandwidths a row uses the bandwidths of the other
    pattern's class, so a cross-class pair is evaluated twice.

    Class sums are a ``bincount`` over (row, class) slots of the linear
    pair terms; where a row's terms lie in runs, as on the u side of the
    leave-one-out layout, the run sums are counted instead. Rows with a
    class sum below :data:`SAFE_SUM` are recomputed in log space from the
    data rows, with a per-row max shift, so no row falls back to class 0
    through underflow.

    ``pattern_scales`` (one positive s_p per pattern, default all one)
    divides each pattern's kernel argument by s_p and its kernel by
    s_p ** N. Scales enter only the log-space path, so every row of an
    evaluator with a scale other than one is computed there; leave-one-out
    takes unit scales only.
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
        ds = pattern_set
        g, n, p = ds.n_classes, ds.n_features, ds.n_samples
        scales = np.ones(p) if pattern_scales is None else np.asarray(
            pattern_scales, dtype=np.float64)
        if scales.shape != (p,) or np.any(scales <= 0):
            raise ValueError("pattern_scales must be P positive values")
        self._unit_scales = bool(np.all(scales == 1.0))
        if exclude_self and not self._unit_scales:
            raise ValueError("leave-one-out takes unit pattern scales only")
        self.pattern_set = pattern_set
        self.exclude_self = exclude_self
        self.n_queries = q = queries.shape[0]
        self._queries = queries

        order = np.argsort(ds.labels, kind="stable")
        classes = ds.labels[order]
        columns = np.ascontiguousarray(ds.features[order].T)
        bounds = np.concatenate(([0], np.cumsum(ds.class_counts)))
        self._columns = columns
        self._col_class = classes
        self._starts = bounds[:-1]
        self._scales = scales[order]
        counts = np.tile(ds.class_counts.astype(np.float64), (q, 1))
        if exclude_self:
            u, v, self._n_within, self._main, self._cross = _loo_pairs(bounds)
            m = len(u)
            self._d2, self._buf = np.empty((n, m)), np.empty(m)
            for f in range(n):
                np.take(columns[f], u, out=self._d2[f])
                np.take(columns[f], v, out=self._buf)
                self._d2[f] -= self._buf
            # class sums are indexed by query, i.e. by pattern in input order;
            # the v side is scattered, the u side comes in runs of equal slots
            self._slots = order[v] * g + classes[u]
            u_slots = order[u] * g + classes[v]
            self._runs = (_run_starts(u_slots[:self._n_within]),
                          _run_starts(u_slots[self._n_within:]))
            self._run_slots = np.concatenate(
                (u_slots[:self._n_within][self._runs[0]],
                 u_slots[self._n_within:][self._runs[1]]))
            self._own_col = np.empty(p, dtype=np.intp)
            self._own_col[order] = np.arange(p)
            counts[np.arange(q), ds.labels] -= 1.0
            n_terms = 2 * m - self._n_within
        else:
            m = n_terms = p * q
            self._main = [(int(bounds[c]) * q, int(bounds[c + 1]) * q, c)
                          for c in range(g)]
            self._cross = []
            self._d2, self._buf = np.empty((n, m)), np.empty(m)
            for f in range(n):
                np.subtract(columns[f, :, None], queries[None, :, f],
                            out=self._d2[f].reshape(p, q))
            self._slots = (classes[:, None] + g * np.arange(q)).ravel()
            self._own_col = None
        np.square(self._d2, out=self._d2)
        with np.errstate(divide="ignore"):
            # a class left empty by the exclusion scores -inf
            self._log_counts = np.where(counts > 0, np.log(counts), np.inf)
        # main terms in [0, m), mirror terms of cross pairs after them
        self._terms = np.empty(n_terms)

    def _bandwidths(self, smoothing: Smoothing) -> np.ndarray:
        """Clamped (G', N) bandwidths; G' is 1 when shared across classes."""
        ds = self.pattern_set
        rows = 1 if smoothing.shared_across_classes else ds.n_classes
        cols = ds.n_features if smoothing.kind in (
            "per_feature", "per_class_feature") else 1
        h = np.maximum(smoothing.values, BANDWIDTH_FLOOR).reshape(rows, cols)
        return np.broadcast_to(h, (rows, ds.n_features))

    def _products(self, inv_h2, start, stop, out) -> None:
        """``out`` = prod over features of (1 + d^2 / h^2), pairs start:stop."""
        d2, buf = self._d2[:, start:stop], self._buf[:stop - start]
        np.multiply(d2[0], inv_h2[0], out=out)
        out += 1.0
        for f in range(1, len(d2)):
            np.multiply(d2[f], inv_h2[f], out=buf)
            buf += 1.0
            out *= buf

    def _linear_sums(self, inv_h2) -> np.ndarray:
        """(Q, G) class sums of the linear pair terms (unit scales)."""
        shared = len(inv_h2) == 1
        m = self._d2.shape[1]
        shift = m - self._n_within if self.exclude_self else 0
        terms = self._terms[:m if shared else m + shift]
        with np.errstate(over="ignore", under="ignore"):
            if shared:
                self._products(inv_h2[0], 0, m, terms)
            else:
                for start, stop, c in self._main:
                    self._products(inv_h2[c], start, stop, terms[start:stop])
                for start, stop, c in self._cross:
                    self._products(inv_h2[c], start, stop,
                                   terms[start + shift:stop + shift])
            np.reciprocal(terms, out=terms)
            np.square(terms, out=terms)

        size = self.n_queries * self.pattern_set.n_classes
        sums = np.bincount(self._slots, terms[:m], size)
        if self.exclude_self:
            w = self._n_within
            cross = terms[w:m] if shared else terms[m:]
            runs = np.concatenate((np.add.reduceat(terms[:w], self._runs[0]),
                                   np.add.reduceat(cross, self._runs[1])))
            sums += np.bincount(self._run_slots, runs, size)
        return sums.reshape(self.n_queries, -1)

    def _log_scores(self, smoothing: Smoothing, every_class) -> np.ndarray:
        """(Q, G) log densities, less the constant N log(2/pi).

        A row goes to the exact path when its best class sum, or with
        ``every_class`` any of its class sums, is below SAFE_SUM.
        """
        h = self._bandwidths(smoothing)
        inv_h2 = 1.0 / np.square(h)
        log_det = np.log(h).sum(axis=1)
        if self._unit_scales:
            sums = self._linear_sums(inv_h2)
            scores = (np.log(np.maximum(sums, SAFE_SUM)) - self._log_counts
                      - log_det)
            low = sums < SAFE_SUM
            low = (low.any(axis=1) if every_class else
                   low[np.arange(self.n_queries), scores.argmax(axis=1)])
            exact = np.flatnonzero(low)
        else:
            scores = np.empty(self._log_counts.shape)
            exact = np.arange(self.n_queries)
        if len(exact):
            scores[exact] = (self._log_sums(exact, inv_h2)
                             - self._log_counts[exact] - log_det)
        return scores

    def _log_sums(self, queries, inv_h2) -> np.ndarray:
        """Log class sums of the kernel terms of ``queries``, from the data.

        The log term of pattern column c is
        -2 sum_f log1p(d_f^2 / (h_f s_c)^2) - N log s_c, with h the
        bandwidths of the class of c; the query's own column is -inf under
        leave-one-out. Each class is summed with a per-row max shift.
        """
        n, p = self._columns.shape
        scale = (inv_h2[self._col_class] if len(inv_h2) > 1 else inv_h2).T
        scale = scale / np.square(self._scales)
        log_s = n * np.log(self._scales)
        out = np.empty((len(queries), self.pattern_set.n_classes))
        step = max(1, _LOG_BLOCK // p)
        for first in range(0, len(queries), step):
            rows = queries[first:first + step]
            x = self._queries[rows]
            total = np.zeros((len(rows), p))
            with np.errstate(over="ignore"):
                for f in range(n):
                    d2 = np.square(x[:, f, None] - self._columns[f])
                    total += np.log1p(d2 * scale[f])
            log_terms = -2.0 * total - log_s
            if self._own_col is not None:
                log_terms[np.arange(len(rows)), self._own_col[rows]] = -np.inf
            peak = np.maximum.reduceat(log_terms, self._starts, axis=1)
            peak[np.isinf(peak)] = 0.0  # only the query's own pattern
            shifted = log_terms - np.repeat(
                peak, self.pattern_set.class_counts, axis=1)
            with np.errstate(under="ignore", divide="ignore"):
                sums = np.add.reduceat(np.exp(shifted), self._starts, axis=1)
                out[first:first + len(rows)] = peak + np.log(sums)
        return out

    def class_densities(self, smoothing: Smoothing) -> np.ndarray:
        """True (Q, G) density values for every query and class."""
        n = self.pattern_set.n_features
        scores = self._log_scores(smoothing, every_class=True)
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(scores + n * np.log(TWO_OVER_PI))

    def predict(self, smoothing: Smoothing) -> np.ndarray:
        """Argmax class per query; ties resolve to the lowest index."""
        return np.argmax(self._log_scores(smoothing, every_class=False),
                         axis=1)

    def error_rate(self, smoothing: Smoothing, labels) -> float:
        """Fraction of queries whose argmax class differs from ``labels``."""
        labels = np.asarray(labels)
        return float(np.mean(self.predict(smoothing) != labels))
