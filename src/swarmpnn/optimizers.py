"""Five population methods behind one budget-aware interface.

An optimizer holds its population and budget: :meth:`Optimizer.run` keeps
the (n, dim) starting positions, with their fitness, beside the method's
per-member state, counts the evaluations it spends against a cap and
returns the final positions. Each method declares its published
parameterization once, in its class's ``defaults`` table, which
:class:`Optimizer` checks, types and sets; override any through ``params``.

Budget convention: every objective call costs ``eval_cost`` evaluation units
(one unit per sample the objective classifies internally). The cap is checked
before every objective call, so a run overshoots it by less than one call's
cost.
"""

from __future__ import annotations

import math
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


OMEGA_END = 0.4  # inertia floor reached when the FE budget runs out


class ParticleSwarm(Optimizer):
    """Particle swarm optimization, canonical global-best formulation."""

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


class BatSearch(Optimizer):
    """Bat-inspired search: frequency-tuned velocities, loudness-gated greedy
    acceptance and a loudness-scaled local walk around the best solution."""

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


REPRODUCTIONS_PER_DISPERSAL = 2


class BacterialForaging(Optimizer):
    """Bacterial foraging: chemotaxis with tumble/swim moves and cell-to-cell
    swarming, periodic reproduction of the healthier half, and random
    elimination-dispersal events.

    One :meth:`generation` performs a single chemotaxis sweep over the
    population and counts it in ``_chem``, the one schedule counter, which
    keeps counting across runs. Reproduction follows every ``n_c``-th sweep,
    and dispersal every ``REPRODUCTIONS_PER_DISPERSAL``-th reproduction.
    """

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


class SimulatedAnnealing(Optimizer):
    """Simulated annealing over a population of independent annealers sharing
    one temperature schedule with Boltzmann acceptance."""

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


LEVY_BETA = 1.5
LEVY_SIGMA = (
    math.gamma(1.0 + LEVY_BETA) * math.sin(math.pi * LEVY_BETA / 2.0)
    / (math.gamma((1.0 + LEVY_BETA) / 2.0) * LEVY_BETA
       * 2.0 ** ((LEVY_BETA - 1.0) / 2.0))
) ** (1.0 / LEVY_BETA)


class FlowerPollination(Optimizer):
    """Flower pollination: Levy-flight moves toward the best solution with
    probability ``switch_p``, otherwise local mixing of two random members."""

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


OPTIMIZERS = {
    cls.name: cls
    for cls in (ParticleSwarm, BatSearch, BacterialForaging,
                SimulatedAnnealing, FlowerPollination)
}

METHOD_NAMES = tuple(OPTIMIZERS)


def make_optimizer(method: str, dim: int, bounds, seed, params=None) -> Optimizer:
    """Build a freshly initialized optimizer.

    ``method`` is one of ``pso``, ``bat``, ``bfo``, ``sa``, ``fpa``;
    ``params`` overrides entries of that class's ``defaults``.
    """
    if method not in OPTIMIZERS:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[method](dim, bounds, seed, **(params or {}))
