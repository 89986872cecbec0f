"""Probe-then-commit portfolio training.

Each outer iteration probes every optimizer in the portfolio from one shared
set of starting positions under a fixed evaluation budget, commits to the best
prober for a larger fitting budget, and hands the resulting positions to the
next iteration. Each optimizer holds its own population: the winner's fit phase
runs it again from the positions its probe ended with, keeping the per-member
state such as velocities, and method state is rebuilt for every probing phase.
No fitness crosses a phase boundary: a phase hands the next one positions only,
which that phase scores again and charges to its own budget. A re-charged
position still costs ``n_t`` evaluations, but the training objective looks its
error rate up instead of computing it again: each run's :func:`loo_objective`
remembers every candidate it has scored.

Training stops early as soon as any evaluation reaches the fitness threshold,
or when the per-iteration check on the held-out split reaches it.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from numbers import Real

import numpy as np

from .optimizers import METHOD_NAMES, make_optimizer
from .pnn import BANDWIDTH_FLOOR, Dataset, DensityEvaluator, Smoothing

# seed-derivation tags; each RNG stream is SeedSequence([seed, tag, ...])
_TAG_INIT = 0
_TAG_PROBE = 1
_TAG_TIE = 2
_TAG_SINGLE = 3


@dataclass(frozen=True)
class HybridConfig:
    """Portfolio trainer settings.

    Budgets scale with the evaluation-sample size: the probing phase of each
    method may spend ``population_size * eval_cost * probing_multiplier``
    evaluation units, the fit phase ``... * fit_multiplier``.
    """

    iterations: int = 5
    population_size: int = 20
    methods: tuple = ("pso", "fpa", "bat", "bfo", "sa")
    fitness_threshold: float = 1e-8
    probing_multiplier: int = 30
    fit_multiplier: int = 100
    init_range: tuple = (0.0, 10.0)
    bounds: tuple = (0.0, 10000.0)
    seed: int = 0
    smoothing_kind: str = "per_feature"
    method_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("iterations", "population_size", "probing_multiplier",
                    "fit_multiplier", "seed"):
            value = getattr(self, key)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        # flower pollination mixes two distinct members
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ValueError(f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat")
        if self.probing_multiplier < 1 or self.fit_multiplier < 1:
            raise ValueError("multipliers must be >= 1")
        for key, values in (("fitness_threshold", [self.fitness_threshold]),
                            ("bounds", self.bounds),
                            ("init_range", self.init_range)):
            if not all(isinstance(v, Real) and not isinstance(v, bool)
                       and abs(v) <= sys.float_info.max for v in values):
                raise ValueError(f"{key}: expected finite numbers, "
                                 f"got {getattr(self, key)!r}")
            if key != "fitness_threshold" and len(values) != 2:
                raise ValueError(f"{key} must be two finite numbers, "
                                 f"got {values!r}")
        lo, hi = self.bounds
        if not lo < hi:
            raise ValueError("bounds must be increasing")
        if not (lo <= self.init_range[0] < self.init_range[1] <= hi):
            raise ValueError("init_range must sit inside bounds")
        if self.smoothing_kind not in Smoothing.KINDS:
            raise ValueError(f"unknown smoothing kind {self.smoothing_kind!r}")
        for method, params in self.method_params.items():
            make_optimizer(method, 1, self.bounds, self.seed, params)

    def initial_positions(self, dim: int) -> np.ndarray:
        """The starting population of a run, shared by every method."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, _TAG_INIT]))
        return rng.uniform(self.init_range[0], self.init_range[1],
                           size=(self.population_size, dim))

    def probe_cap(self, eval_cost: int) -> int:
        return self.population_size * eval_cost * self.probing_multiplier

    def fit_cap(self, eval_cost: int) -> int:
        return self.population_size * eval_cost * self.fit_multiplier

    def total_cap(self, eval_cost: int) -> int:
        """Evaluation allowance of a full run; also granted to single-method
        baselines so comparisons are FE-fair."""
        per_iteration = (len(self.methods) * self.probing_multiplier
                         + self.fit_multiplier)
        return self.iterations * per_iteration * self.population_size * eval_cost


@dataclass
class IterationRecord:
    """One outer iteration: probe scores, the committed method, fit outcome."""

    iteration: int
    probe_scores: dict
    probe_evals: dict
    selected: str
    tie_break: bool
    fit_fitness: float
    fit_evals: int
    best_fitness: float

    def to_jsonable(self) -> dict:
        return asdict(self)


@dataclass
class HybridResult:
    best_position: np.ndarray
    best_fitness: float
    trace: list
    evaluations: int
    stop_reason: str  # "iterations" | "train_threshold" | "eval_threshold"


@dataclass
class ProbeOutcome:
    scores: dict
    evals: dict
    winner: str
    optimizers: dict  # every probe optimizer, in run order
    tied: list


def _fold_best(best, optimizers):
    """``best`` (fitness, position) after absorbing each optimizer's archive
    in run order; strict ``<`` keeps the first seen of equal values."""
    for opt in optimizers:
        if opt.best_fitness < best[0]:
            best = (opt.best_fitness, opt.best_position)
    return best


def probe_phase(positions, cfg: HybridConfig, objective, eval_cost: int,
                iteration: int, observer=None) -> ProbeOutcome:
    """Run every portfolio method from a copy of the same starting positions.

    Probing stops at the first method that reaches the fitness threshold;
    otherwise all methods run their full probing budget and the best score
    wins, ties resolved uniformly at random from a seeded stream.
    """
    scores, evals, opts = {}, {}, {}
    for index, method in enumerate(cfg.methods):
        opt = make_optimizer(
            method, positions.shape[1], cfg.bounds,
            np.random.SeedSequence([cfg.seed, _TAG_PROBE, iteration, index]),
            params=cfg.method_params.get(method))
        opt.run(positions, objective, cfg.probe_cap(eval_cost), eval_cost,
                target=cfg.fitness_threshold)
        scores[method] = opt.best_fitness
        evals[method] = opt.evaluations
        opts[method] = opt
        if observer is not None:
            observer("probe_end", dict(
                iteration=iteration, method=method, score=opt.best_fitness,
                evals=opt.evaluations))
        if opt.best_fitness <= cfg.fitness_threshold:
            break

    minimum = min(scores.values())
    tied = [m for m, s in scores.items() if s == minimum]
    winner = tied[0]
    if len(tied) > 1:
        tie_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _TAG_TIE, iteration]))
        winner = tied[int(tie_rng.integers(len(tied)))]
    return ProbeOutcome(scores, evals, winner, opts, tied)


def hybrid_minimize(objective, dim: int, cfg: HybridConfig, eval_cost: int = 1,
                    converged=None, observer=None) -> HybridResult:
    """Minimize ``objective`` with the probe-then-commit portfolio.

    ``objective`` must return finite values (``ValueError`` otherwise);
    ``eval_cost`` is charged per call (the samples one call scores).
    ``converged(position, fitness) -> bool`` is consulted after each fit
    phase for an external stop condition. The run's best is the first-seen
    minimum over all phases; ``evaluations`` sums what their runs spent.
    """
    positions = cfg.initial_positions(dim)
    best = (np.inf, None)
    trace = []
    stop_reason = "iterations"
    for iteration in range(cfg.iterations):
        probe = probe_phase(positions, cfg, objective, eval_cost, iteration,
                            observer=observer)
        best = _fold_best(best, probe.optimizers.values())
        # only the probe that ends the loop can converge; it skips the fit
        fitness, fit_evals = probe.scores[probe.winner], 0
        if fitness > cfg.fitness_threshold:
            opt = probe.optimizers[probe.winner]
            if observer is not None:
                observer("fit_start", dict(iteration=iteration,
                                           method=probe.winner))
            positions = opt.run(opt.positions, objective,
                                cfg.fit_cap(eval_cost), eval_cost,
                                target=cfg.fitness_threshold)
            best = _fold_best(best, [opt])
            fitness, fit_evals = opt.best_fitness, opt.evaluations
            if observer is not None:
                observer("fit_end", dict(
                    iteration=iteration, method=probe.winner,
                    fitness=fitness, evals=fit_evals))
        trace.append(IterationRecord(
            iteration, probe.scores, probe.evals, probe.winner,
            len(probe.tied) > 1, fitness, fit_evals, best[0]))

        if best[0] <= cfg.fitness_threshold:
            stop_reason = "train_threshold"
            break
        if converged is not None and converged(best[1], best[0]):
            stop_reason = "eval_threshold"
            break

    evaluations = sum(sum(r.probe_evals.values()) + r.fit_evals for r in trace)
    return HybridResult(best[1].copy(), best[0], trace, evaluations,
                        stop_reason)


@dataclass
class TrainResult:
    smoothing: Smoothing
    train_error: float
    test_error: float
    test_predictions: np.ndarray
    trace: list
    evaluations: int
    stop_reason: str


def loo_objective(train: Dataset, kind: str = "per_feature"):
    """Leave-one-out error rate on the training split as a function of the
    candidate bandwidth vector.

    Classifying a memorizing density model on its own patterns without
    exclusion would always report zero error, so each sample's own pattern is
    left out of its class sum.

    The objective remembers the error rate of every vector it has scored,
    keyed by the vector's float64 bytes, and answers an exact repeat from
    that memo; the memo lives as long as the objective, one training run.
    Callers still charge every call: a repeat costs the same evaluations.
    """
    evaluator = DensityEvaluator(train, train.features, exclude_self=True)
    shape = Smoothing.grid_shape(kind, train.n_classes, train.n_features)
    seen = {}

    def objective(vector):
        key = np.asarray(vector, dtype=np.float64).tobytes()
        value = seen.get(key)
        if value is None:
            value = seen[key] = evaluator.error_rate(
                np.reshape(vector, shape), train.labels)
        return value

    return objective


def _train_result(held_out: DensityEvaluator, test: Dataset, kind: str,
                  found: HybridResult) -> TrainResult:
    """The trained classifier, with its one prediction of the test split."""
    train = held_out.pattern_set
    smoothing = Smoothing.from_vector(
        kind, np.maximum(found.best_position, BANDWIDTH_FLOOR),
        train.n_classes, train.n_features)
    predictions = held_out.predict(smoothing)
    return TrainResult(smoothing, found.best_fitness,
                       float(np.mean(predictions != test.labels)), predictions,
                       found.trace, found.evaluations, found.stop_reason)


def train_hybrid(train: Dataset, test: Dataset, cfg: HybridConfig,
                 observer=None) -> TrainResult:
    """Optimize bandwidths with the portfolio; fitness is the leave-one-out
    training error, the early-stop check runs on the held-out split. One
    evaluator of that split serves every check and the final prediction."""
    kind = cfg.smoothing_kind
    shape = Smoothing.grid_shape(kind, train.n_classes, train.n_features)
    held_out = DensityEvaluator(train, test.features)
    result = hybrid_minimize(
        loo_objective(train, kind), int(np.prod(shape)), cfg,
        eval_cost=train.n_samples,
        converged=lambda pos, fit: (
            held_out.error_rate(np.reshape(pos, shape), test.labels)
            <= cfg.fitness_threshold),
        observer=observer)
    return _train_result(held_out, test, kind, result)


def train_single(train: Dataset, test: Dataset, method: str,
                 cfg: HybridConfig) -> TrainResult:
    """Single-method baseline under the same total evaluation allowance as a
    full portfolio run, from the identical starting population."""
    kind = cfg.smoothing_kind
    dim = Smoothing.vector_length(kind, train.n_classes, train.n_features)
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {sorted(METHOD_NAMES)}")
    opt = make_optimizer(
        method, dim, cfg.bounds,
        np.random.SeedSequence([cfg.seed, _TAG_SINGLE,
                                METHOD_NAMES.index(method)]),
        params=cfg.method_params.get(method))
    opt.run(cfg.initial_positions(dim), loo_objective(train, kind),
            cfg.total_cap(train.n_samples), train.n_samples,
            target=cfg.fitness_threshold)
    stop = ("train_threshold"
            if opt.best_fitness <= cfg.fitness_threshold else "iterations")
    return _train_result(DensityEvaluator(train, test.features), test, kind,
                         HybridResult(opt.best_position, opt.best_fitness, [],
                                      opt.evaluations, stop))
