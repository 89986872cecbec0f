"""Bat-inspired search: frequency-tuned velocities, loudness-gated greedy
acceptance and a loudness-scaled local walk around the best solution."""

from __future__ import annotations

import numpy as np

from .base import Optimizer


class BatSearch(Optimizer):
    name = "bat"
    defaults = {"loudness": 10.0, "alpha": 0.9, "gamma": 0.9, "min_f": 0.0,
                "max_f": 1.0}
    _generation = 0

    def _attach(self) -> None:
        self._velocities = np.zeros_like(self.positions)
        self._loudness = np.full(len(self.positions), self.loudness)
        self._pulse0 = self.rng.uniform(size=len(self.positions))
        self._pulse = self._pulse0.copy()

    def generation(self):
        positions, fitness = self.positions, self.fitness
        self._generation += 1
        mean_loudness = float(self._loudness.mean())
        for i in self._members():
            beta = self.rng.uniform()
            freq = self.min_f + (self.max_f - self.min_f) * beta
            self._velocities[i] += (positions[i] - self.best_position) * freq
            candidate = positions[i] + self._velocities[i]
            if self.rng.uniform() > self._pulse[i]:
                walk = self.rng.uniform(-1.0, 1.0, size=self.dim)
                candidate = self.best_position + walk * mean_loudness
            candidate = self.reflect(candidate)
            value = yield candidate
            if value <= fitness[i] and self.rng.uniform() < self._loudness[i]:
                positions[i] = candidate
                fitness[i] = value
                self._loudness[i] *= self.alpha
                self._pulse[i] = self._pulse0[i] * (
                    1.0 - np.exp(-self.gamma * self._generation))
