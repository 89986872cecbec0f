"""Probe-then-commit portfolio training.

Each outer iteration probes every optimizer in the portfolio from one shared
population under a fixed evaluation budget, commits to the best prober for a
larger fitting budget, and hands the resulting population to the next
iteration. Method-internal state is rebuilt for every probing phase; only
positions survive phase boundaries (cached fitness is dropped and re-charged
to the receiving phase's budget, which keeps per-phase accounting clean).

Training stops early as soon as any evaluation reaches the fitness threshold,
or when the per-iteration check on the held-out split reaches it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .optimizers import METHOD_NAMES, FeBudget, Population, make_optimizer
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
        if self.iterations < 1 or self.population_size < 1:
            raise ValueError("iterations and population_size must be >= 1")
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ValueError(f"unknown method {m!r}")
        if self.probing_multiplier < 1 or self.fit_multiplier < 1:
            raise ValueError("multipliers must be >= 1")
        lo, hi = self.bounds
        if not lo < hi:
            raise ValueError("bounds must be increasing")
        if not (lo <= self.init_range[0] < self.init_range[1] <= hi):
            raise ValueError("init_range must sit inside bounds")
        if self.smoothing_kind not in Smoothing.KINDS:
            raise ValueError(f"unknown smoothing kind {self.smoothing_kind!r}")

    def params_for(self, method: str) -> dict:
        return dict(self.method_params.get(method, {}))

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
    winner_population: Population
    optimizers: dict  # every probe optimizer, in run order
    tied: list
    converged: bool


def _fold_best(best, optimizers):
    """``best`` (fitness, position) after absorbing each optimizer's archive
    in run order; strict ``<`` keeps the first seen of equal values."""
    for opt in optimizers:
        if opt.best_fitness < best[0]:
            best = (opt.best_fitness, opt.best_position)
    return best


def _notify(observer, event, **data):
    if observer is not None:
        observer(event, data)


def probe_phase(positions, cfg: HybridConfig, objective, eval_cost: int,
                iteration: int, observer=None) -> ProbeOutcome:
    """Run every portfolio method from a copy of the same starting positions.

    Probing stops at the first method that reaches the fitness threshold;
    otherwise all methods run their full probing budget and the best score
    wins, ties resolved uniformly at random from a seeded stream.
    """
    scores, evals = {}, {}
    pops, opts = {}, {}
    converged = False
    for index, method in enumerate(cfg.methods):
        opt = make_optimizer(
            method, positions.shape[1], cfg.bounds,
            np.random.SeedSequence([cfg.seed, _TAG_PROBE, iteration, index]),
            params=cfg.params_for(method))
        pop = Population(positions.copy())
        budget = FeBudget(cfg.probe_cap(eval_cost), eval_cost)
        opt.run(pop, objective, budget, target=cfg.fitness_threshold)
        scores[method] = opt.best_fitness
        evals[method] = budget.used
        pops[method] = pop
        opts[method] = opt
        _notify(observer, "probe_end", iteration=iteration, method=method,
                score=opt.best_fitness, evals=budget.used,
                fingerprint=pop.fingerprint())
        if opt.best_fitness <= cfg.fitness_threshold:
            converged = True
            break

    minimum = min(scores.values())
    tied = [m for m, s in scores.items() if s == minimum]
    winner = tied[0]
    if len(tied) > 1:
        tie_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _TAG_TIE, iteration]))
        winner = tied[int(tie_rng.integers(len(tied)))]
    return ProbeOutcome(scores, evals, winner, pops[winner], opts, tied,
                        converged)


def hybrid_minimize(objective, dim: int, cfg: HybridConfig, eval_cost: int = 1,
                    converged=None, observer=None) -> HybridResult:
    """Minimize ``objective`` with the probe-then-commit portfolio.

    ``eval_cost`` is charged per objective call (the number of samples one
    call evaluates). ``converged(position, fitness) -> bool`` is consulted
    after each fit phase for an external stop condition. The run's best is
    the first-seen minimum over all phases, and ``evaluations`` the sum of
    their budgets' use.
    """
    init_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _TAG_INIT]))
    positions = init_rng.uniform(cfg.init_range[0], cfg.init_range[1],
                                 size=(cfg.population_size, dim))
    best = (np.inf, None)
    trace = []
    stop_reason = "iterations"
    for iteration in range(cfg.iterations):
        probe = probe_phase(positions, cfg, objective, eval_cost, iteration,
                            observer=observer)
        best = _fold_best(best, probe.optimizers.values())
        _notify(observer, "select", iteration=iteration, method=probe.winner,
                tied=probe.tied, converged=probe.converged)
        if probe.converged:
            trace.append(IterationRecord(
                iteration, probe.scores, probe.evals, probe.winner,
                len(probe.tied) > 1, probe.scores[probe.winner], 0, best[0]))
            stop_reason = "train_threshold"
            break

        fit_pop = probe.winner_population.positions_only()
        _notify(observer, "fit_start", iteration=iteration,
                method=probe.winner, fingerprint=fit_pop.fingerprint())
        fit_budget = FeBudget(cfg.fit_cap(eval_cost), eval_cost)
        opt = probe.optimizers[probe.winner]
        opt.run(fit_pop, objective, fit_budget, target=cfg.fitness_threshold)
        best = _fold_best(best, [opt])
        _notify(observer, "fit_end", iteration=iteration, method=probe.winner,
                fitness=opt.best_fitness, evals=fit_budget.used)
        trace.append(IterationRecord(
            iteration, probe.scores, probe.evals, probe.winner,
            len(probe.tied) > 1, opt.best_fitness, fit_budget.used, best[0]))
        positions = fit_pop.positions.copy()

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
    trace: list
    evaluations: int
    stop_reason: str


def _clamped_smoothing(kind, vector, n_classes, n_features) -> Smoothing:
    return Smoothing.from_vector(kind, np.maximum(vector, BANDWIDTH_FLOOR),
                                 n_classes, n_features)


def fitness_of(candidate, train: Dataset, eval_set: Dataset,
               kind: str = "per_feature") -> float:
    """Error rate on ``eval_set`` of a classifier whose pattern layer is
    ``train`` with the candidate bandwidth vector."""
    smoothing = _clamped_smoothing(kind, np.asarray(candidate, dtype=float),
                                   train.n_classes, train.n_features)
    evaluator = DensityEvaluator(train, eval_set.features)
    return evaluator.error_rate(smoothing, eval_set.labels)


def loo_objective(train: Dataset, kind: str = "per_feature"):
    """Leave-one-out error rate on the training split as a function of the
    candidate bandwidth vector.

    Classifying a memorizing density model on its own patterns without
    exclusion would always report zero error, so each sample's own pattern is
    left out of its class sum.
    """
    evaluator = DensityEvaluator(train, train.features, exclude_self=True)
    g, n = train.n_classes, train.n_features

    def objective(vector):
        smoothing = _clamped_smoothing(kind, vector, g, n)
        return evaluator.error_rate(smoothing, train.labels)

    return objective


def train_hybrid(train: Dataset, test: Dataset, cfg: HybridConfig,
                 observer=None) -> TrainResult:
    """Optimize bandwidths with the portfolio; fitness is the leave-one-out
    training error, the early-stop check runs on the held-out split."""
    kind = cfg.smoothing_kind
    dim = Smoothing.vector_length(kind, train.n_classes, train.n_features)
    test_eval = DensityEvaluator(train, test.features)

    def eval_error(position):
        smoothing = _clamped_smoothing(kind, position, train.n_classes,
                                       train.n_features)
        return test_eval.error_rate(smoothing, test.labels)

    result = hybrid_minimize(
        loo_objective(train, kind), dim, cfg, eval_cost=train.n_samples,
        converged=lambda pos, fit: eval_error(pos) <= cfg.fitness_threshold,
        observer=observer)
    smoothing = _clamped_smoothing(kind, result.best_position,
                                   train.n_classes, train.n_features)
    return TrainResult(smoothing, result.best_fitness,
                       eval_error(result.best_position), result.trace,
                       result.evaluations, result.stop_reason)


def train_single(train: Dataset, test: Dataset, method: str,
                 cfg: HybridConfig) -> TrainResult:
    """Single-method baseline under the same total evaluation allowance as a
    full portfolio run, from the identical starting population."""
    kind = cfg.smoothing_kind
    dim = Smoothing.vector_length(kind, train.n_classes, train.n_features)
    init_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _TAG_INIT]))
    pop = Population(init_rng.uniform(cfg.init_range[0], cfg.init_range[1],
                                      size=(cfg.population_size, dim)))
    opt = make_optimizer(
        method, dim, cfg.bounds,
        np.random.SeedSequence([cfg.seed, _TAG_SINGLE,
                                METHOD_NAMES.index(method)]),
        params=cfg.params_for(method))
    budget = FeBudget(cfg.total_cap(train.n_samples), train.n_samples)
    opt.run(pop, loo_objective(train, kind), budget,
            target=cfg.fitness_threshold)
    smoothing = _clamped_smoothing(kind, opt.best_position,
                                   train.n_classes, train.n_features)
    test_eval = DensityEvaluator(train, test.features)
    stop = ("train_threshold"
            if opt.best_fitness <= cfg.fitness_threshold else "iterations")
    return TrainResult(smoothing, opt.best_fitness,
                       test_eval.error_rate(smoothing, test.labels),
                       [], budget.used, stop)
