"""Sensing states are code states.

A state whose post-trajectory outputs are orthogonal does more than
sense: the random trajectory acts as a correctable error channel, since
the receiver can identify which rotation happened and undo it.  The
four-qubit window state is simultaneously a stabilizer code state, and
the seven-qubit CSS code turns a per-qubit quarter turn into the inverse
logical quarter turn — the building block for sensing with protected
logical qubits.
"""
import math

import numpy as np

from trajsense import qcore, qec, solver, trajset

# the window state is stabilized by the quoted generator set
state = qec.window_code_state()
group = qec.window_code_group()
rep = qec.stabilizer_check(state, group)
print("four-qubit window state vs stabilizer generators:")
for g, r in rep.residuals.items():
    print(f"  {g:>6}: residual {r:.1e}")
print(f"all +1 eigenstate: {rep.all_plus_one}")

built = solver.build_cyclic(4, 2, math.pi / 2).witness_state
print(f"matches the solver's constructed witness: "
      f"{np.allclose(np.abs(built.amps), np.abs(state.amps))}")

# the random-window channel is perfectly correctable on this state
windows = trajset.gen_cyclic(4, 2)
kl = qec.kl_verify(state, windows, math.pi / 2)
print(f"\nerror-channel matrix M_ij = <psi|K_i^dag K_j|psi>, "
      f"verdict: {kl.verdict}")
print(np.round(kl.matrix.real, 10))

# a product state fails the orthogonality half of the test
plus = qcore.from_vector(4, np.full(16, 0.25))
plus_kl = qec.kl_verify(plus, windows, math.pi / 2)
print(f"|+>^4 verdict: {plus_kl.verdict} "
      f"(off-diagonals up to {plus_kl.max_offdiag:.3f})")

# transversal quarter turn on the seven-qubit code
good = qec.transversal_rotation_check(math.pi / 2)
print(f"\nseven-qubit code, per-qubit quarter turn:")
print(f"  codespace preserved to {good.codespace_residual:.1e}")
print(f"  equals inverse logical quarter turn to {good.logical_residual:.1e}")
print(f"  verdict: {'pass' if good.passed else 'fail'}")

control = qec.transversal_rotation_check(math.pi / 3)
print(f"per-qubit pi/3 turn (control): {'pass' if control.passed else 'fail'} "
      f"— {control.detail}, leak {control.codespace_residual:.2f}")
print("\nonly the quarter turn is transversal here; arbitrary angles leave")
print("the codespace and cannot be read as logical rotations.")
