"""Classification metrics, repeated-run aggregation and the best-count
ranking used in the benchmark tables."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

REPORT_DECIMALS = 3


@dataclass(frozen=True)
class RunMetrics:
    """Metrics of one train/test run; precision and recall are macro
    averages with empty-denominator classes contributing zero."""

    accuracy: float
    precision: float
    recall: float
    confusion: np.ndarray
    seed: int = 0

    def to_jsonable(self) -> dict:
        return asdict(self) | {"confusion": self.confusion.tolist()}


@dataclass(frozen=True)
class MethodSummary:
    """Average and maximum of each metric over the repeated runs."""

    avg_accuracy: float
    max_accuracy: float
    avg_precision: float
    max_precision: float
    avg_recall: float
    max_recall: float
    n_runs: int

    def rounded(self, metric: str) -> float:
        return round(getattr(self, metric), REPORT_DECIMALS)

    def to_jsonable(self) -> dict:
        return asdict(self)


def confusion_matrix(labels, predictions, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if labels.shape != predictions.shape or labels.size == 0:
        raise ValueError("labels and predictions must be equal-length and nonempty")
    for name, values in (("label", labels), ("prediction", predictions)):
        bad = values[(values < 0) | (values >= n_classes)]
        if bad.size:
            raise ValueError(f"{name} {bad[0]} outside 0..{n_classes - 1}")
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (labels, predictions), 1)
    return m


def compute_metrics(predictions, labels, n_classes: int, seed: int = 0) -> RunMetrics:
    """Accuracy plus macro precision/recall from the confusion matrix.

    Rows of the confusion matrix are true classes, columns predictions.
    Classes never predicted (precision) or absent from the labels (recall)
    contribute zero to their macro average.
    """
    m = confusion_matrix(labels, predictions, n_classes)
    total = m.sum()
    diag = np.diag(m).astype(np.float64)
    col = m.sum(axis=0).astype(np.float64)
    row = m.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col > 0, diag / col, 0.0)
        recall = np.where(row > 0, diag / row, 0.0)
    return RunMetrics(float(diag.sum() / total), float(precision.mean()),
                      float(recall.mean()), m, seed)


def aggregate_runs(runs) -> MethodSummary:
    if not runs:
        raise ValueError("need at least one run")
    acc = [r.accuracy for r in runs]
    pre = [r.precision for r in runs]
    rec = [r.recall for r in runs]
    return MethodSummary(float(np.mean(acc)), float(np.max(acc)),
                         float(np.mean(pre)), float(np.max(pre)),
                         float(np.mean(rec)), float(np.max(rec)), len(runs))


def rank(scores: dict) -> dict:
    """Count, per method, the datasets where it attains the best score.

    ``scores`` maps method -> {dataset -> score}. Scores are rounded to the
    reported three decimals first; every method tied at a dataset's maximum
    gets credit for it.
    """
    methods = list(scores)
    if not methods:
        return {}
    datasets = list(scores[methods[0]])
    for m in methods:
        if set(scores[m]) != set(datasets):
            raise ValueError("every method needs scores for the same datasets")
    counts = {m: 0 for m in methods}
    for ds in datasets:
        rounded = {m: round(scores[m][ds], REPORT_DECIMALS) for m in methods}
        best = max(rounded.values())
        for m in methods:
            if rounded[m] == best:
                counts[m] += 1
    return counts
