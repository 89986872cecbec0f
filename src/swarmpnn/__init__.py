"""Probabilistic neural network classifiers trained by a budgeted portfolio
of swarm optimizers."""

from .datasets import (
    REGISTRY,
    DatasetDescriptor,
    SplitSpec,
    load_benchmark,
    load_csv,
    stratified_split,
    zscore_standardize,
)
from .hybrid import (
    HybridConfig,
    HybridResult,
    TrainResult,
    hybrid_minimize,
    train_hybrid,
    train_single,
)
from .metrics import MethodSummary, RunMetrics, aggregate_runs, compute_metrics, rank
from .optimizers import make_optimizer, reflect
from .pnn import (
    Dataset,
    DensityEvaluator,
    ModificationConfig,
    PnnModel,
    Smoothing,
    apply_modification,
    cauchy_kernel,
    class_density,
    classify,
    classify_batch,
    kde,
    product_kernel,
)

__version__ = "0.1.0"
