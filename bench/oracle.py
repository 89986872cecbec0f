"""Exact leave-one-out oracle for the training objective.

Independent of ``swarmpnn.pnn``: class scores are log densities computed
with a per-row max shift, the query's own pattern is excluded rather than
added and subtracted, and nothing underflows to an all-zero row.
"""

from __future__ import annotations

import warnings

import numpy as np

# Two class scores closer than this (in log space, i.e. a relative density
# difference) are an argmax tie: either answer counts as agreement.
TIE_TOLERANCE = 1e-9


def log_class_scores(features, labels, n_classes, bandwidths):
    """(P, G) log of each sample's leave-one-out class density.

    ``bandwidths`` is a (G, N) matrix; row ``j`` holds the diagonal
    bandwidths of class ``j``. Classes left empty by the exclusion score
    ``-inf``.
    """
    x = np.asarray(features, dtype=np.float64)
    p, n = x.shape
    scores = np.empty((p, n_classes))
    rows = np.arange(p)
    for j in range(n_classes):
        members = np.flatnonzero(labels == j)
        h = bandwidths[j]
        u2 = np.square((x[:, None, :] - x[None, members, :]) / h)
        log_k = -2.0 * np.log1p(u2).sum(axis=2)
        own = labels == j
        # drop each query's own pattern from its class sum
        log_k[rows[own], np.searchsorted(members, rows[own])] = -np.inf
        shift = log_k.max(axis=1, keepdims=True)
        finite = np.isfinite(shift[:, 0])
        safe = np.where(finite[:, None], shift, 0.0)
        log_sum = safe[:, 0] + np.log(np.exp(log_k - safe).sum(axis=1))
        remaining = len(members) - own
        with np.errstate(divide="ignore"):
            scores[:, j] = np.where(
                finite & (remaining > 0),
                log_sum - np.log(np.maximum(remaining, 1))
                - np.log(h).sum() + n * np.log(2.0 / np.pi),
                -np.inf)
    return scores


def error_count_range(features, labels, n_classes, bandwidths):
    """(lowest, highest) possible count of leave-one-out errors when argmax
    ties within :data:`TIE_TOLERANCE` may go either way."""
    labels = np.asarray(labels)
    scores = log_class_scores(features, labels, n_classes, bandwidths)
    best = scores.max(axis=1, keepdims=True)
    near = scores >= best - TIE_TOLERANCE
    own_near = near[np.arange(len(labels)), labels]
    certain_wrong = int(np.sum(~own_near))
    ambiguous = int(np.sum(own_near & (near.sum(axis=1) > 1)))
    return certain_wrong, certain_wrong + ambiguous


def bandwidth_matrix(kind, vector, n_classes, n_features):
    v = np.asarray(vector, dtype=np.float64)
    if kind == "scalar":
        return np.full((n_classes, n_features), v.reshape(-1)[0])
    if kind == "per_class":
        return np.repeat(v.reshape(n_classes, 1), n_features, axis=1)
    if kind == "per_feature":
        return np.tile(v.reshape(1, n_features), (n_classes, 1))
    return v.reshape(n_classes, n_features)


def candidates(seed, count, dim, low=1e-4, high=10.0):
    """Bandwidth vectors drawn log-uniform per coordinate in [low, high]."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7919]))
    return np.exp(rng.uniform(np.log(low), np.log(high), size=(count, dim)))


def check_objective(train, kind, vectors):
    """Compare ``hybrid.loo_objective(train, kind)`` with the oracle.

    Returns (mismatches, calls that raised a RuntimeWarning, candidates).
    """
    from swarmpnn.hybrid import loo_objective

    objective = loo_objective(train, kind)
    g, n = train.n_classes, train.n_features
    mismatches = warned = 0
    for vector in vectors:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = objective(vector)
        warned += any(issubclass(w.category, RuntimeWarning) for w in caught)
        errors = round(value * train.n_samples)
        lo, hi = error_count_range(train.features, train.labels, g,
                                   bandwidth_matrix(kind, vector, g, n))
        mismatches += not lo <= errors <= hi
    return mismatches, warned, len(vectors)
