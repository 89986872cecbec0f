"""Shared machinery for the population optimizers: bounded populations,
function-evaluation budgets and the common stepping loop.

Budget convention: every objective call costs ``eval_cost`` evaluation units
(one unit per sample the objective classifies internally). Optimizers check
the budget before each objective call, so a running generation may overshoot
the cap by at most one population batch.
"""

from __future__ import annotations

import numpy as np


def reflect(position, lower: float, upper: float) -> np.ndarray:
    """Fold coordinates into [lower, upper] by mirroring at the bounds.

    Handles arbitrarily large excursions and is the identity inside the
    bounds.
    """
    position = np.asarray(position, dtype=np.float64)
    width = upper - lower
    if width <= 0:
        raise ValueError("upper bound must exceed lower bound")
    period = 2.0 * width
    folded = np.mod(position - lower, period)
    folded = np.where(folded > width, period - folded, folded)
    return lower + folded


class FeBudget:
    """Function-evaluation accountant for one optimization phase.

    ``cap`` is the total evaluation allowance; ``eval_cost`` is charged per
    objective call (the cardinality of the sample the objective evaluates).
    """

    def __init__(self, cap: float, eval_cost: int = 1):
        if eval_cost < 1:
            raise ValueError("eval_cost must be at least 1")
        self.cap = cap
        self.eval_cost = int(eval_cost)
        self.used = 0

    def charge(self) -> None:
        self.used += self.eval_cost

    @property
    def exhausted(self) -> bool:
        return self.used >= self.cap

    def __repr__(self):
        return f"FeBudget(used={self.used}, cap={self.cap}, eval_cost={self.eval_cost})"


class Population:
    """Positions plus cached fitness for a group of candidates.

    Fitness entries are NaN until evaluated; the cached value of an
    individual always corresponds to its current position.
    """

    def __init__(self, positions, fitness=None):
        self.positions = np.array(positions, dtype=np.float64)
        if self.positions.ndim != 2:
            raise ValueError("positions must be (n, d)")
        if fitness is None:
            fitness = np.full(len(self.positions), np.nan)
        self.fitness = np.array(fitness, dtype=np.float64)
        if self.fitness.shape != (len(self.positions),):
            raise ValueError("fitness length must match positions")

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def best_index(self) -> int:
        if np.all(np.isnan(self.fitness)):
            raise ValueError("population has no evaluated member")
        return int(np.nanargmin(self.fitness))

    @property
    def best_fitness(self) -> float:
        return float(self.fitness[self.best_index])

    @property
    def best_position(self) -> np.ndarray:
        return self.positions[self.best_index].copy()

    def copy(self) -> "Population":
        return Population(self.positions.copy(), self.fitness.copy())

    def positions_only(self) -> "Population":
        """Copy carrying positions but no cached fitness."""
        return Population(self.positions.copy())

    def fingerprint(self) -> str:
        import hashlib

        return hashlib.sha256(np.ascontiguousarray(self.positions).tobytes()).hexdigest()


class Optimizer:
    """Base class for the population methods.

    Subclasses implement :meth:`step` (one generation, in place) and keep any
    internal state (velocities, temperatures, ...) on the instance. Every
    objective call goes through :meth:`evaluate`, which charges the budget
    and maintains the best-seen archive that makes progress monotone for all
    methods.
    """

    name = "base"

    def __init__(self, dim: int, bounds, seed):
        self.dim = int(dim)
        self.lower, self.upper = float(bounds[0]), float(bounds[1])
        if not self.lower < self.upper:
            raise ValueError("lower bound must be below upper bound")
        self.rng = np.random.default_rng(seed)
        self.best_position = None
        self.best_fitness = np.inf
        self._target = -np.inf

    def evaluate(self, position, objective, budget: FeBudget) -> float:
        budget.charge()
        value = float(objective(position))
        if value < self.best_fitness:
            self.best_fitness = value
            self.best_position = np.array(position, dtype=np.float64)
        return value

    def reflect(self, position) -> np.ndarray:
        return reflect(position, self.lower, self.upper)

    def halted(self, budget: FeBudget) -> bool:
        """True once the budget is spent or the run target has been hit.

        Checked before every objective call so that finding a target-reaching
        solution stops a generation within the current batch.
        """
        return budget.exhausted or self.best_fitness <= self._target

    def sync_archive(self, pop: Population) -> None:
        """Absorb any cached population fitness into the best-seen archive."""
        if np.all(np.isnan(pop.fitness)):
            return
        i = pop.best_index
        if pop.fitness[i] < self.best_fitness:
            self.best_fitness = float(pop.fitness[i])
            self.best_position = pop.positions[i].copy()

    def ensure_evaluated(self, pop: Population, objective, budget: FeBudget) -> None:
        """Evaluate members with no cached fitness, stopping when halted."""
        for i in range(pop.size):
            if not np.isnan(pop.fitness[i]):
                continue
            if self.halted(budget):
                return
            pop.fitness[i] = self.evaluate(pop.positions[i], objective, budget)

    def step(self, pop: Population, objective, budget: FeBudget) -> None:
        raise NotImplementedError

    def run(self, pop: Population, objective, budget: FeBudget,
            target: float = 0.0) -> Population:
        """Step until the budget cap is reached or the best hits ``target``."""
        self._target = target
        self.sync_archive(pop)
        while not self.halted(budget):
            self.step(pop, objective, budget)
        return pop
