"""Failure probability across the full angle range, and the shot-count story.

Above the onset angle an entangled sensor identifies the trajectory in a
single shot.  Below it, failure is unavoidable — but the entangled sensor
still beats every product strategy.  And when shots can be repeated, the
product sensor needs a stack of measurements growing like log(1/epsilon)
to match what entanglement does in one.
"""
import math

import numpy as np

from trajsense import discrim, solver, trajset

ts = trajset.gen_symmetric(4, 2)
grid = np.linspace(0.0, math.pi, 13)

curve = discrim.failure_curve(ts, grid)

print("single-shot failure probability (6 hypotheses, 4 qubits):")
print(f"  {'theta/pi':>9} {'entangled':>12} {'product |+>':>12}")
for pt in curve:
    print(f"  {pt.theta/math.pi:9.3f} {pt.p_fail_quantum:12.6f} {pt.p_fail_classical:12.6f}")
print("  both start at 5/6 (pure guessing among six), the entangled curve")
print("  hits zero at 3/4 pi and stays there.")

table = discrim.curve_csv(curve)
print(f"\nCSV export: {len(table.splitlines())} lines")

# repeated shots at the onset angle
theta = 3 * math.pi / 4
eps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
per_shot = discrim.classical_baseline(ts, theta)
print(f"\nproduct sensor at 3pi/4: per-shot failure {per_shot.p_fail:.5f}")
reps = discrim.repetition_analysis(per_shot, eps)
cert = solver.solve_symmetric(4, 2, theta)
q_shot = discrim.pgm(discrim.make_ensemble(cert.witness_state, ts, theta))
q_reps = discrim.repetition_analysis(q_shot, eps)

print(f"  {'epsilon':>9} {'product shots':>14} {'entangled shots':>16}")
for e, r, qr in zip(eps, reps, q_reps):
    print(f"  {e:9.0e} {r.r:14} {qr.r:16}")

x = np.log(1 / np.array(eps))
rs = [r.r for r in reps]
slope, icept = np.polyfit(x, rs, 1)
print(f"\nfit: shots = {slope:.3f} * log(1/eps) {icept:+.3f}")
print("logarithmic growth for the product sensor; always one for entangled.")
