"""Shared machinery for the population optimizers: reflection at the bounds
and :meth:`Optimizer.run`, the one driver that scores the candidates each
method's generation yields and counts their function evaluations.

Budget convention: every objective call costs ``eval_cost`` evaluation units
(one unit per sample the objective classifies internally). The cap is checked
before every objective call, so a run overshoots it by less than one call's
cost.
"""

from __future__ import annotations

import sys
from numbers import Integral, Real

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


_KIND_WORDS = {float: "a number", int: "an integer", bool: "true or false"}


class Optimizer:
    """Base class for the population methods.

    A subclass declares its published parameters once, in ``defaults``. The
    constructor rejects unknown names, values that are not finite numbers and
    values the default's type would change, and sets each as an attribute.

    An optimizer holds its population and its budget: each :meth:`run` keeps
    a copy of the positions it is given as ``positions``, with their
    ``fitness`` NaN until scored, beside per-member state such as velocities,
    and counts the units it spends in ``evaluations`` against ``cap``. A
    subclass implements :meth:`generation` as a generator that yields each
    position it wants scored and receives its fitness back (``value = yield
    candidate``). :meth:`run` is the one driver: only it calls the objective,
    counts evaluations, keeps the best-seen archive and calls
    :meth:`_attach`. A generation sweeps its members through :meth:`_members`,
    which stops before any draw or position write once the run has halted.
    """

    name = "base"
    defaults: dict = {}

    def __init__(self, dim: int, bounds, seed, /, **params):
        self.dim = int(dim)
        self.lower, self.upper = float(bounds[0]), float(bounds[1])
        if not self.lower < self.upper:
            raise ValueError("lower bound must be below upper bound")
        for key, value in params.items():
            kind = type(self.defaults.get(key))
            if key not in self.defaults:
                problem = f"unknown parameter {key!r}"
            elif not (isinstance(value, Real)
                      and abs(value) <= sys.float_info.max):
                problem = f"{key} must be a finite number, got {value!r}"
            elif isinstance(value, bool) != (kind is bool) or kind(value) != value:
                problem = f"{key} must be {_KIND_WORDS[kind]}, got {value!r}"
            else:
                continue
            raise ValueError(f"bad parameters for {self.name}: {problem}")
        for key, default in self.defaults.items():
            setattr(self, key, type(default)(params.get(key, default)))
        self.rng = np.random.default_rng(seed)
        self.best_position = None
        self.best_fitness = np.inf
        self._attached_size = None

    def reflect(self, position) -> np.ndarray:
        return reflect(position, self.lower, self.upper)

    @property
    def halted(self) -> bool:
        """True once the run's cap is spent or its target has been hit."""
        return self.evaluations >= self.cap or self.best_fitness <= self._target

    def _attach(self) -> None:
        """Initialise per-member state for ``positions``; the driver calls it
        only when the population size changes, so runs of one size keep it."""

    def _members(self):
        """Member indices in order, until the run halts."""
        for i in range(len(self.positions)):
            if self.halted:
                return
            yield i

    def generation(self):
        """Advance the members one generation, yielding each candidate."""
        raise NotImplementedError

    def _candidates(self):
        if self.halted:
            return
        if len(self.positions) != self._attached_size:
            self._attach()
            self._attached_size = len(self.positions)
        for i in self._members():
            self.fitness[i] = yield self.positions[i]
        # a generation starts even if the initial pass spent the budget;
        # a later run continues the PSO personal bests and bat count it sets
        while True:
            yield from self.generation()
            if self.halted:
                return

    def run(self, positions, objective, cap: float, eval_cost: int = 1,
            target: float = 0.0) -> np.ndarray:
        """Score a copy of the (n, dim) ``positions`` once, then step
        generations until ``evaluations`` reaches ``cap`` or the best reaches
        ``target``; returns the final positions. Each objective call costs
        ``eval_cost`` units, an integer >= 1. Only what this optimizer's runs
        have scored enters its best-seen archive."""
        self.positions = np.array(positions, dtype=np.float64)
        # a run over no members, or under a NaN cap, could never halt
        if (self.positions.ndim != 2 or len(self.positions) == 0
                or self.positions.shape[1] != self.dim):
            raise ValueError(f"positions must be (n, {self.dim}) with n >= 1, "
                             f"got shape {self.positions.shape}")
        if (isinstance(eval_cost, bool) or not isinstance(eval_cost, Integral)
                or not (eval_cost >= 1 and cap >= 0)):
            raise ValueError("need an integer eval_cost >= 1 and a cap >= 0, "
                             f"got {eval_cost!r} and {cap!r}")
        self.fitness = np.full(len(self.positions), np.nan)
        self.cap, self.eval_cost, self._target = cap, int(eval_cost), target
        self.evaluations = 0
        candidates = self._candidates()
        value = None
        while True:
            try:
                candidate = candidates.send(value)
            except StopIteration:
                return self.positions
            self.evaluations += self.eval_cost
            value = float(objective(candidate))
            if not np.isfinite(value):
                raise ValueError(f"objective returned {value}, not finite")
            if value < self.best_fitness:
                self.best_fitness = value
                self.best_position = np.array(candidate, dtype=np.float64)
