"""Five population methods behind one budget-aware interface.

An optimizer holds its population and budget: :meth:`Optimizer.run` keeps
the (n, dim) starting positions, with their fitness, beside the method's
per-member state, counts the evaluations it spends against a cap and
returns the final positions. Each method declares its published
parameterization once, in its class's ``defaults`` table, which
:class:`Optimizer` checks, types and sets; override any through ``params``.
"""

from .base import Optimizer, reflect
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
    ``params`` overrides entries of that class's ``defaults``.
    """
    if method not in OPTIMIZERS:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[method](dim, bounds, seed, **(params or {}))


__all__ = [
    "Optimizer", "reflect",
    "OPTIMIZERS", "METHOD_NAMES", "make_optimizer",
    "ParticleSwarm", "BatSearch", "BacterialForaging", "SimulatedAnnealing",
    "FlowerPollination",
]
