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
