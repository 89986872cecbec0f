"""Offline benchmark inputs: the real iris matrix and synthetic sets drawn from
a seed.

Iris is the UCI feature matrix that scipy ships as a test fixture; the
synthetic sets mimic the shapes and feature scales of registry datasets that
cannot be obtained offline. Everything is written with the package's own
canonical CSV writer into a scratch directory inside the checkout.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

IRIS_CLASSES = ("setosa", "versicolor", "virginica")
IRIS_PROVENANCE = ("UCI Machine Learning Repository, Iris (Fisher, 1936), "
                   "CC BY 4.0; feature matrix as shipped in "
                   "scipy/spatial/tests/data/iris.txt")

# (class counts, log10 of the smallest and largest feature scale,
#  centre separation and within-class spread, both relative to the scale)
SYNTHETIC_SHAPES = {
    # cancer (WDBC) train+test shape; raw features span 1e-2 .. 1e3
    "wide-raw": ((357, 212), 30, (-2.0, 3.0), 0.3, 1.0),
    "glass-shape": ((76, 70, 29, 17, 13, 9), 9, (-1.0, 2.0), 0.4, 0.3),
    "thyroid-shape": ((150, 35, 30), 5, (0.0, 2.0), 0.4, 0.3),
}


def iris_source() -> str:
    """Path of scipy's copy of the UCI iris feature matrix.

    There is no substitute: without it the iris workloads cannot run.
    """
    try:
        import scipy
    except ImportError:
        raise SystemExit("bench: scipy is not installed; its copy of the UCI "
                         "iris matrix is required") from None
    path = os.path.join(os.path.dirname(scipy.__file__), "spatial", "tests",
                        "data", "iris.txt")
    if not os.path.isfile(path):
        raise SystemExit(f"bench: {path} is missing; the iris workloads need "
                         "scipy's copy of the UCI iris matrix")
    return path


def write_iris(out_dir: str) -> dict:
    """Write iris as a canonical CSV; returns its path and provenance."""
    from swarmpnn.datasets import write_canonical_csv

    src = iris_source()
    with open(src, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    features = np.round(np.loadtxt(src), 1)
    if features.shape != (150, 4):
        raise SystemExit(f"bench: {src} has shape {features.shape}, "
                         "expected (150, 4)")
    labels = [IRIS_CLASSES[i // 50] for i in range(150)]
    path = os.path.join(out_dir, "iris.csv")
    write_canonical_csv(path, features, labels)
    return {"path": path, "sha256": digest, "provenance": IRIS_PROVENANCE}


def synthetic(name: str, seed: int):
    """Seeded Gaussian class clusters at one registry shape and scale range."""
    counts, n_features, (lo, hi), separation, spread = SYNTHETIC_SHAPES[name]
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, sorted(SYNTHETIC_SHAPES).index(name)]))
    scales = 10.0 ** np.linspace(lo, hi, n_features)
    centres = scales * (1.0 + separation * rng.standard_normal(
        (len(counts), n_features)))
    labels = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(labels)
    features = centres[labels] + scales * spread * rng.standard_normal(
        (len(labels), n_features))
    return features, labels


def write_synthetic(name: str, seed: int, out_dir: str) -> dict:
    from swarmpnn.datasets import write_canonical_csv

    features, labels = synthetic(name, seed)
    path = os.path.join(out_dir, f"{name}.csv")
    write_canonical_csv(path, features, [f"c{j}" for j in labels])
    return {"path": path, "provenance": f"synthetic {name}, seed {seed}"}
