"""Bacterial foraging: chemotaxis with tumble/swim moves and cell-to-cell
swarming, periodic reproduction of the healthier half, and random
elimination-dispersal events.

One :meth:`step` performs a single chemotaxis sweep over the population;
reproduction and dispersal fire on schedule between sweeps. The schedule
wraps around if the budget outlasts a full dispersal cycle.

``ed_s``, the published number of elimination-dispersal events, is kept as
a parameter but has no effect: the FE budget ends every run, and dispersal
keeps firing on schedule until it does.
"""

from __future__ import annotations

import numpy as np

from .base import FeBudget, Optimizer, Population

REPRODUCTIONS_PER_DISPERSAL = 2


class BacterialForaging(Optimizer):
    name = "bfo"

    def __init__(self, dim, bounds, seed, ed_s=2, c_i=0.2, p_ed=0.25, n_c=4,
                 n_s=4, d_a=0.1, w_a=0.2, h_r=0.1, w_r=10.0):
        super().__init__(dim, bounds, seed)
        self.ed_s = int(ed_s)
        self.c_i = float(c_i)
        self.p_ed = float(p_ed)
        self.n_c = int(n_c)
        self.n_s = int(n_s)
        self.d_a = float(d_a)
        self.w_a = float(w_a)
        self.h_r = float(h_r)
        self.w_r = float(w_r)
        self._health = None
        self._chem = 0
        self._repro = 0

    def _attach(self, pop: Population) -> None:
        if self._health is None or len(self._health) != pop.size:
            self._health = np.zeros(pop.size)

    def _swarming(self, position, pop: Population) -> float:
        d2 = np.sum((pop.positions - position) ** 2, axis=1)
        attract = -self.d_a * np.exp(-self.w_a * d2).sum()
        repel = self.h_r * np.exp(-self.w_r * d2).sum()
        return float(attract + repel)

    def _tumble_direction(self) -> np.ndarray:
        delta = self.rng.uniform(-1.0, 1.0, size=self.dim)
        norm = np.linalg.norm(delta)
        if norm == 0.0:
            return np.zeros(self.dim)
        return delta / norm

    def _chemotaxis_sweep(self, pop, objective, budget) -> None:
        for i in range(pop.size):
            if self.halted(budget):
                return
            j_last = pop.fitness[i] + self._swarming(pop.positions[i], pop)
            self._health[i] += j_last
            direction = self._tumble_direction()
            # the tumble move is always taken; improvement only decides
            # whether swimming continues in the same direction
            pop.positions[i] = self.reflect(pop.positions[i] + self.c_i * direction)
            pop.fitness[i] = self.evaluate(pop.positions[i], objective, budget)
            j_new = pop.fitness[i] + self._swarming(pop.positions[i], pop)
            self._health[i] += j_new
            swims = 0
            while swims < self.n_s and j_new < j_last and not self.halted(budget):
                j_last = j_new
                pop.positions[i] = self.reflect(
                    pop.positions[i] + self.c_i * direction)
                pop.fitness[i] = self.evaluate(pop.positions[i], objective, budget)
                j_new = pop.fitness[i] + self._swarming(pop.positions[i], pop)
                self._health[i] += j_new
                swims += 1

    def _reproduce(self, pop: Population) -> None:
        order = np.argsort(self._health, kind="stable")
        half = pop.size // 2
        winners, losers = order[:half], order[pop.size - half:]
        pop.positions[losers] = pop.positions[winners]
        pop.fitness[losers] = pop.fitness[winners]
        self._health[:] = 0.0

    def _disperse(self, pop, objective, budget) -> None:
        for i in range(pop.size):
            if self.halted(budget):
                return
            if self.rng.uniform() < self.p_ed:
                pop.positions[i] = self.rng.uniform(self.lower, self.upper,
                                                    size=self.dim)
                pop.fitness[i] = self.evaluate(pop.positions[i], objective, budget)

    def step(self, pop: Population, objective, budget: FeBudget) -> None:
        self._attach(pop)
        self.ensure_evaluated(pop, objective, budget)
        self.sync_archive(pop)
        if self.halted(budget):
            return
        self._chemotaxis_sweep(pop, objective, budget)
        self._chem += 1
        if self._chem < self.n_c:
            return
        self._chem = 0
        self._reproduce(pop)
        self._repro += 1
        if self._repro < REPRODUCTIONS_PER_DISPERSAL:
            return
        self._repro = 0
        self._disperse(pop, objective, budget)
