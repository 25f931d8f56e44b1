"""Entangled quantum sensors that identify which-path information in one shot.

Subsystems, roughly bottom-up:

- ``rng``      counter-based uniform streams (reproducible, order-independent)
- ``qcore``    dense statevectors, bit weights, symmetrized basis, ket JSON
- ``trajset``  trajectory families and the phase matrix of their rotations
- ``simplex``  phase-1 feasibility: a float solve's exact rational bracket
- ``solver``   sensing-state construction, closed-form and LP routes
- ``discrim``  optimal discrimination, failure curves, repetition analysis
- ``beam``     four-atom beam-crossing scenario, entangled vs unentangled
- ``qec``      error-channel recoverability and stabilizer/transversality checks
- ``cli``      command-line front end over the above
"""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = [
    "rng",
    "qcore",
    "trajset",
    "simplex",
    "solver",
    "discrim",
    "beam",
    "qec",
    "cli",
]

# Each layer but cli (`python -m` runs it) runs on first use: `import trajsense.cli`
# runs qcore and trajset, and a command adds the layers it touches.
for _name in __all__[:-1]:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
