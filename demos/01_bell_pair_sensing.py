"""Smallest possible trajectory sensor: two qubits, one particle.

A particle crosses exactly one of two qubits and rotates it by theta.
Which qubit was hit?  With the right entangled state the two possible
post-interaction states are exactly orthogonal, so a single projective
measurement answers with certainty — even though each qubit on its own
picks up only a partial phase.
"""
import math

import numpy as np

from trajsense import discrim, qcore, solver, trajset

theta = math.pi / 2
family = trajset.gen_symmetric(2, 1)
print("candidate trajectories:", [set(t.qubits) for t in family.members])

# ask the solver for a sensing state at theta = pi/2
cert = solver.solve_symmetric(2, 1, theta)
psi = cert.witness_state
print("\nsolver witness amplitudes:")
for j, a in enumerate(psi.amps):
    if abs(a) > 1e-12:
        print(f"  |{qcore.bitstring(2, j)}>  {a.real:+.4f}")

# the two outputs are orthogonal...
report = discrim.verify_ts(psi, family, theta)
print(f"\noutput Gram residual: {report.max_residual:.2e}  (sensing state: {report.is_ts})")

# ...so the measurement in the output basis never errs
ens = discrim.make_ensemble(psi, family, theta)
res = discrim.pgm(ens)
print(f"single-shot failure probability: {res.p_fail:.2e}")
print("confusion matrix:\n", np.round(res.confusion, 12))

# a product state cannot do this at theta = pi/2
plus = qcore.make_ket(2, [("00", 1), ("01", 1), ("10", 1), ("11", 1)])
res_plus = discrim.pgm(discrim.make_ensemble(plus, family, theta))
print(f"\nbest collective measurement on |+>|+>: p_fail = {res_plus.p_fail:.4f}"
      f"  (PGM, certified minimum-error: {res_plus.optimal})")
print("entanglement buys exact identification; the product sensor guesses.")
