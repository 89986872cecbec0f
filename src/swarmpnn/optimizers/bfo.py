"""Bacterial foraging: chemotaxis with tumble/swim moves and cell-to-cell
swarming, periodic reproduction of the healthier half, and random
elimination-dispersal events.

One :meth:`generation` performs a single chemotaxis sweep over the population
and counts it in ``_chem``, the one schedule counter, which keeps counting
across runs. Reproduction follows every ``n_c``-th sweep, and dispersal
every ``REPRODUCTIONS_PER_DISPERSAL``-th reproduction.
"""

from __future__ import annotations

import numpy as np

from .base import Optimizer

REPRODUCTIONS_PER_DISPERSAL = 2


class BacterialForaging(Optimizer):
    name = "bfo"
    defaults = {"c_i": 0.2, "p_ed": 0.25, "n_c": 4, "n_s": 4, "d_a": 0.1,
                "w_a": 0.2, "h_r": 0.1, "w_r": 10.0}
    _chem = 0

    def __init__(self, *args, **params):
        super().__init__(*args, **params)
        if self.n_c < 1 or self.n_s < 0:
            raise ValueError("bad parameters for bfo: need n_c >= 1 and "
                             f"n_s >= 0, got {self.n_c} and {self.n_s}")

    def _attach(self) -> None:
        self._health = np.zeros(len(self.positions))

    def _swarming(self, i: int) -> float:
        d2 = np.sum((self.positions - self.positions[i]) ** 2, axis=1)
        attract = -self.d_a * np.exp(-self.w_a * d2).sum()
        repel = self.h_r * np.exp(-self.w_r * d2).sum()
        return float(attract + repel)

    def _tumble_direction(self) -> np.ndarray:
        delta = self.rng.uniform(-1.0, 1.0, size=self.dim)
        norm = np.linalg.norm(delta)
        if norm == 0.0:
            return np.zeros(self.dim)
        return delta / norm

    def _chemotaxis_sweep(self):
        for i in self._members():
            j_new = self.fitness[i] + self._swarming(i)
            self._health[i] += j_new
            direction = self._tumble_direction()
            # move 0, the tumble, is always taken; each of up to n_s swims
            # follows only a move that improved and left the run going
            for _ in range(self.n_s + 1):
                j_last = j_new
                self.positions[i] = self.reflect(
                    self.positions[i] + self.c_i * direction)
                self.fitness[i] = yield self.positions[i]
                j_new = self.fitness[i] + self._swarming(i)
                self._health[i] += j_new
                if j_new >= j_last or self.halted:
                    break

    def _reproduce(self) -> None:
        order = np.argsort(self._health, kind="stable")
        half = len(self.positions) // 2
        winners, losers = order[:half], order[len(self.positions) - half:]
        self.positions[losers] = self.positions[winners]
        self.fitness[losers] = self.fitness[winners]
        self._health[:] = 0.0

    def _disperse(self):
        for i in self._members():
            if self.rng.uniform() < self.p_ed:
                self.positions[i] = self.rng.uniform(
                    self.lower, self.upper, size=self.dim)
                self.fitness[i] = yield self.positions[i]

    def generation(self):
        if self.halted:
            return
        yield from self._chemotaxis_sweep()
        self._chem += 1
        if self._chem % self.n_c:
            return
        self._reproduce()
        if self._chem % (self.n_c * REPRODUCTIONS_PER_DISPERSAL):
            return
        yield from self._disperse()
