"""Particle swarm optimization, canonical global-best formulation."""

from __future__ import annotations

import numpy as np

from .base import Optimizer, Population

OMEGA_END = 0.4  # inertia floor reached when the FE budget runs out


class ParticleSwarm(Optimizer):
    name = "pso"
    defaults = {"omega": 1.0, "c1": 0.5, "c2": 1.0, "adjust_omega": True}

    def _attach(self, pop: Population) -> None:
        self._velocities = np.zeros_like(pop.positions)
        self._pbest = pop.positions.copy()
        self._pbest_fit = np.full(pop.size, np.inf)

    def _current_omega(self) -> float:
        # run starts no generation at a cap <= 0; an infinite cap gives 0
        if not self.adjust_omega:
            return self.omega
        progress = min(1.0, self._budget.used / self._budget.cap)
        return self.omega + (OMEGA_END - self.omega) * progress

    def generation(self, pop: Population):
        improved = pop.fitness < self._pbest_fit
        self._pbest[improved] = pop.positions[improved]
        self._pbest_fit[improved] = pop.fitness[improved]
        omega = self._current_omega()
        for i in self._members(pop):
            r1 = self.rng.uniform(size=self.dim)
            r2 = self.rng.uniform(size=self.dim)
            self._velocities[i] = (
                omega * self._velocities[i]
                + self.c1 * r1 * (self._pbest[i] - pop.positions[i])
                + self.c2 * r2 * (self.best_position - pop.positions[i])
            )
            pop.positions[i] = self.reflect(pop.positions[i] + self._velocities[i])
            pop.fitness[i] = yield pop.positions[i]
            if pop.fitness[i] < self._pbest_fit[i]:
                self._pbest[i] = pop.positions[i].copy()
                self._pbest_fit[i] = pop.fitness[i]
