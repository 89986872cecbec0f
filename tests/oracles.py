"""Brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops, ``math`` and ``decimal``
so it shares no code path with the numpy implementations under test.
"""

import math
from decimal import Decimal, localcontext


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


def decimal_loo_predict(features, labels, bandwidth_rows, n_classes,
                        rows=None):
    """Leave-one-out class of each of ``rows`` (default all) in 60-digit
    ``decimal`` arithmetic.

    For row q, class c scores sum_c / (n'_c prod_f h_cf): sum_c adds the
    terms 1 / prod_f (1 + (x_f - z_f)^2 / h_cf^2)^2 of the class's patterns
    other than q, and n'_c counts them; a class left empty scores below
    every other. No float enters past the exact conversion of the inputs,
    so scores that agree to 40 digits are an exact tie, which goes to the
    lowest index.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        points = [[Decimal(v) for v in row] for row in features]
        inv_h2 = [[1 / (Decimal(h) * Decimal(h)) for h in row]
                  for row in bandwidth_rows]
        dets = []
        for row in bandwidth_rows:
            det = Decimal(1)
            for h in row:
                det *= Decimal(h)
            dets.append(det)
        out = []
        for q in range(len(points)) if rows is None else rows:
            sums, counts = [Decimal(0)] * n_classes, [0] * n_classes
            for p, (z, label) in enumerate(zip(points, labels)):
                if p == q:
                    continue
                product = Decimal(1)
                for xf, zf, scale in zip(points[q], z, inv_h2[label]):
                    d = xf - zf
                    product *= 1 + d * d * scale
                sums[label] += 1 / (product * product)
                counts[label] += 1
            scores = [sums[c] / (counts[c] * dets[c]) if counts[c] else -1
                      for c in range(n_classes)]
            best = max(scores)
            out.append(min(c for c, s in enumerate(scores)
                           if best - s <= best.scaleb(-40)))
        return out


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
