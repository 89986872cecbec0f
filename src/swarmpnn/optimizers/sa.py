"""Simulated annealing over a population of independent annealers sharing
one temperature schedule with Boltzmann acceptance."""

from __future__ import annotations

import numpy as np

from .base import Optimizer


class SimulatedAnnealing(Optimizer):
    name = "sa"
    defaults = {"temperature": 100.0, "alpha": 0.9, "s_t": 1e-8, "d": 0.01}

    def __init__(self, *args, **params):
        super().__init__(*args, **params)
        self.initial_temperature = self.temperature

    def generation(self):
        sigma = self.d * (self.upper - self.lower)
        for i in self._members():
            step = self.rng.normal(0.0, sigma, size=self.dim)
            proposal = self.reflect(self.positions[i] + step)
            value = yield proposal
            delta = value - self.fitness[i]
            if delta <= 0.0 or self.rng.uniform() < np.exp(-delta / self.temperature):
                self.positions[i] = proposal
                self.fitness[i] = value
            if i == len(self.positions) - 1:  # only a complete sweep cools
                self.temperature *= self.alpha
                if self.temperature < self.s_t:
                    # restart the cooling schedule while budget remains
                    self.temperature = self.initial_temperature
