"""Particle swarm optimization, canonical global-best formulation."""

from __future__ import annotations

import numpy as np

from .base import Optimizer

OMEGA_END = 0.4  # inertia floor reached when the FE budget runs out


class ParticleSwarm(Optimizer):
    name = "pso"
    defaults = {"omega": 1.0, "c1": 0.5, "c2": 1.0, "adjust_omega": True}

    def _attach(self) -> None:
        self._velocities = np.zeros_like(self.positions)
        self._pbest = self.positions.copy()
        self._pbest_fit = np.full(len(self.positions), np.inf)

    def _current_omega(self) -> float:
        # run starts no generation at a cap <= 0; an infinite cap gives 0
        if not self.adjust_omega:
            return self.omega
        progress = min(1.0, self.evaluations / self.cap)
        return self.omega + (OMEGA_END - self.omega) * progress

    def generation(self):
        positions, fitness = self.positions, self.fitness
        improved = fitness < self._pbest_fit
        self._pbest[improved] = positions[improved]
        self._pbest_fit[improved] = fitness[improved]
        omega = self._current_omega()
        for i in self._members():
            r1 = self.rng.uniform(size=self.dim)
            r2 = self.rng.uniform(size=self.dim)
            self._velocities[i] = (
                omega * self._velocities[i]
                + self.c1 * r1 * (self._pbest[i] - positions[i])
                + self.c2 * r2 * (self.best_position - positions[i])
            )
            positions[i] = self.reflect(positions[i] + self._velocities[i])
            fitness[i] = yield positions[i]
            if fitness[i] < self._pbest_fit[i]:
                self._pbest[i] = positions[i].copy()
                self._pbest_fit[i] = fitness[i]
