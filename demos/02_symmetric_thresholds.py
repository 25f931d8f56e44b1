"""Where does perfect sensing become possible?

For the family of all m-qubit subsets of n qubits, perfect single-shot
identification is possible only when the interaction angle is large
enough.  This script sweeps the angle for balanced families, showing the
sharp onset at (n-1)/n of a half turn, and inspects the witness weights
for the 4-choose-2 case — their ratios follow simple trigonometric laws.
"""
import json
import math

import numpy as np

from trajsense import solver, trajset

print("feasibility onset for balanced families (m = n/2):")
for n in (2, 4, 6, 8):
    m = n // 2
    th = solver.threshold_sym(n, m)
    probe = {}
    for d in (-0.02, 0.0, +0.02):
        cert = solver.solve_symmetric(n, m, th.theta + d)
        probe[d] = "feasible" if cert.feasible else "infeasible"
    frac = f"({n-1})pi/{n}"
    print(f"  n={n}: threshold {frac} = {th.theta:.4f} rad; "
          f"below {probe[-0.02]}, at {probe[0.0]}, above {probe[0.02]}")

print("\nwitness weight ratios for the 4-qubit pair family:")
print(f"  {'theta/pi':>9} {'w0/w2':>10} {'cos(2t)':>10} {'w1/w2':>10} {'-cos(t)':>10}")
for theta in np.linspace(3 * math.pi / 4, math.pi, 6):
    cert = solver.solve_symmetric(4, 2, float(theta))
    c0, c1, c2 = cert.cbar_sq
    print(f"  {theta/math.pi:9.4f} {c0/c2:10.6f} {math.cos(2*theta):10.6f} "
          f"{c1/c2:10.6f} {-math.cos(theta):10.6f}")

# below the onset the solver hands back a certificate of impossibility:
# the unique candidate direction needs a negative weight
cert = solver.solve_symmetric(4, 2, 0.7 * math.pi)
print(f"\nat 0.70pi: feasible = {cert.feasible}; "
      f"sign-violating weights at classes {cert.sign_violations}")
print("certificate JSON snippet:")
print("\n".join(json.dumps(cert.to_dict(), indent=2, sort_keys=True).splitlines()[:8])
      + "\n  ...")

# the independent linear-programming route agrees everywhere
theta = 0.72 * math.pi
ts = trajset.gen_symmetric(4, 2)
lp = solver.solve_lp(solver.TSProblem(ts, theta))
closed = solver.solve_symmetric(4, 2, theta)
print(f"\ncross-check at 0.72pi: closed-form {closed.feasible}, LP {lp.feasible}")
