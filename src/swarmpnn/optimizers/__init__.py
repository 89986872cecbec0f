"""Population optimizers behind one budget-aware interface.

Defaults follow the published parameterizations used for the benchmark runs;
override any of them through ``params``.
"""

import math
from numbers import Real

from .base import FeBudget, Optimizer, Population, reflect
from .bat import BatSearch
from .bfo import BacterialForaging
from .fpa import FlowerPollination
from .pso import ParticleSwarm
from .sa import SimulatedAnnealing

OPTIMIZERS = {
    cls.name: cls
    for cls in (ParticleSwarm, BatSearch, BacterialForaging,
                SimulatedAnnealing, FlowerPollination)
}

METHOD_NAMES = tuple(OPTIMIZERS)


def make_optimizer(method: str, dim: int, bounds, seed, params=None) -> Optimizer:
    """Build a freshly initialized optimizer.

    ``method`` is one of ``pso``, ``bat``, ``bfo``, ``sa``, ``fpa``;
    ``params`` overrides the method defaults and rejects unknown keys and
    values that are not finite numbers.
    """
    try:
        cls = OPTIMIZERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {sorted(OPTIMIZERS)}") from None
    for key, value in (params or {}).items():
        if not (isinstance(value, Real) and math.isfinite(value)):
            raise ValueError(f"bad parameters for {method}: {key} must be a "
                             f"finite number, got {value!r}")
    try:
        return cls(dim, bounds, seed, **(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for {method}: {exc}") from None


__all__ = [
    "FeBudget", "Optimizer", "Population", "reflect",
    "OPTIMIZERS", "METHOD_NAMES", "make_optimizer",
    "ParticleSwarm", "BatSearch", "BacterialForaging", "SimulatedAnnealing",
    "FlowerPollination",
]
