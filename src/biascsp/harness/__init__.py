from .rng import rng_for, child_seed
from .mc import McRun, mc_run

__all__ = [
    "rng_for",
    "child_seed",
    "McRun",
    "mc_run",
]
