"""Flower pollination: Levy-flight moves toward the best solution with
probability ``switch_p``, otherwise local mixing of two random members."""

from __future__ import annotations

import math

import numpy as np

from .base import Optimizer

LEVY_BETA = 1.5
LEVY_SIGMA = (
    math.gamma(1.0 + LEVY_BETA) * math.sin(math.pi * LEVY_BETA / 2.0)
    / (math.gamma((1.0 + LEVY_BETA) / 2.0) * LEVY_BETA
       * 2.0 ** ((LEVY_BETA - 1.0) / 2.0))
) ** (1.0 / LEVY_BETA)


class FlowerPollination(Optimizer):
    name = "fpa"
    defaults = {"switch_p": 0.8}

    def _levy_steps(self) -> np.ndarray:
        u = self.rng.normal(0.0, LEVY_SIGMA, size=self.dim)
        v = self.rng.normal(0.0, 1.0, size=self.dim)
        return u / np.abs(v) ** (1.0 / LEVY_BETA)

    def generation(self):
        positions, fitness = self.positions, self.fitness
        for i in self._members():
            if self.rng.uniform() < self.switch_p:
                steps = self._levy_steps()
                candidate = positions[i] + steps * (
                    self.best_position - positions[i])
            else:
                a, b = self.rng.choice(len(positions), size=2, replace=False)
                eps = self.rng.uniform()
                candidate = positions[i] + eps * (positions[a] - positions[b])
            candidate = self.reflect(candidate)
            value = yield candidate
            if value < fitness[i]:
                positions[i] = candidate
                fitness[i] = value
