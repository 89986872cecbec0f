"""Brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops and ``math`` so it shares
no code path with the numpy implementations under test.
"""

import math


def cauchy(u):
    return 2.0 / (math.pi * (u * u + 1.0) ** 2)


def product_kernel(coords):
    out = 1.0
    for u in coords:
        out *= cauchy(u)
    return out


def kde(x, patterns, h):
    """Plain kernel density estimate with a single scalar bandwidth."""
    n_features = len(x)
    total = 0.0
    for row in patterns:
        total += product_kernel([(x[i] - row[i]) / h for i in range(n_features)])
    return total / (len(patterns) * h ** n_features)


def class_density(features, labels, scales, bandwidth_rows, x, target):
    """Density of class ``target`` at ``x``.

    ``bandwidth_rows`` holds one bandwidth vector per class (diagonal
    bandwidth matrix), ``scales`` one positive multiplier per pattern.
    """
    h = bandwidth_rows[target]
    n_features = len(x)
    det = 1.0
    for v in h:
        det *= v
    total = 0.0
    count = 0
    for row, label, s in zip(features, labels, scales):
        if label != target:
            continue
        count += 1
        u = [(x[i] - row[i]) / (h[i] * s) for i in range(n_features)]
        total += product_kernel(u) / s ** n_features
    if count == 0:
        raise ValueError("empty class")
    return total / (count * det)


def classify(features, labels, scales, bandwidth_rows, x, n_classes):
    best, best_density = 0, -1.0
    for j in range(n_classes):
        d = class_density(features, labels, scales, bandwidth_rows, x, j)
        if d > best_density:
            best, best_density = j, d
    return best


def log_class_density(features, labels, bandwidth_rows, x, target,
                      exclude=None, scales=None):
    """Log density of class ``target`` at ``x``.

    Each pattern's log kernel is a sum of ``log1p`` terms, and the class sum
    is taken with a max shift, so nothing underflows. ``scales`` holds one
    positive multiplier per pattern (default all one). The pattern at index
    ``exclude`` is left out; a class left empty scores ``-inf``.
    """
    h = bandwidth_rows[target]
    n_features = len(x)
    if scales is None:
        scales = [1.0] * len(features)
    logs = []
    for p, (row, label, s) in enumerate(zip(features, labels, scales)):
        if label != target or p == exclude:
            continue
        logs.append(sum(-2.0 * math.log1p(((x[i] - row[i]) / (h[i] * s)) ** 2)
                        for i in range(n_features))
                    - n_features * math.log(s))
    if not logs:
        return -math.inf
    peak = max(logs)
    total = sum(math.exp(v - peak) for v in logs)
    return (peak + math.log(total) - math.log(len(logs))
            - sum(math.log(v) for v in h)
            + n_features * math.log(2.0 / math.pi))


def log_class_densities(features, labels, bandwidth_rows, x, n_classes,
                        exclude=None, scales=None):
    return [log_class_density(features, labels, bandwidth_rows, x, j, exclude,
                              scales)
            for j in range(n_classes)]


def modification_scales(features, labels, bandwidth_rows, intensity, floor):
    """Per-pattern scale factors from own-class densities (unit scales)."""
    unit = [1.0] * len(features)
    logs = []
    for row, label in zip(features, labels):
        d = class_density(features, labels, unit, bandwidth_rows, row, label)
        logs.append(math.log(max(d, floor)))
    mean_log = sum(logs) / len(logs)
    return [math.exp(-intensity * (lg - mean_log)) for lg in logs]


def confusion(y_true, y_pred, n_classes):
    m = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(y_true, y_pred):
        m[t][p] += 1
    return m


def macro_metrics(y_true, y_pred, n_classes):
    """(accuracy, macro precision, macro recall) from first principles."""
    m = confusion(y_true, y_pred, n_classes)
    total = len(y_true)
    correct = sum(m[j][j] for j in range(n_classes))
    precisions, recalls = [], []
    for j in range(n_classes):
        col = sum(m[t][j] for t in range(n_classes))
        row = sum(m[j])
        precisions.append(m[j][j] / col if col else 0.0)
        recalls.append(m[j][j] / row if row else 0.0)
    return (
        correct / total,
        sum(precisions) / n_classes,
        sum(recalls) / n_classes,
    )
