"""A laser line sweeps a 2x2 atom array: which edge did it favor?

Unlike the idealized model where a particle hits a crisp subset of
qubits, a Gaussian beam rotates every atom a little, by an amount
falling off with distance.  The task: name the nearest edge of the
square.  At zero beam amplitude any strategy is a 1-in-4 guess; as the
amplitude grows, the entangled window sensor pulls ahead of per-atom
measurements — linearly in the amplitude, and inversely with the square
of the beam width.
"""
import math

from trajsense import beam

# zero amplitude: pure guessing, failure exactly 3/4
q = beam.compare_sensors(beam.BeamScenario(0.0, 10.0), grid=(128, 128))
for sensor, p_fail in (("entangled_ts", q.p_fail_entangled),
                       ("unentangled_plus", q.p_fail_unentangled)):
    print(f"theta0 = 0, {sensor:18s}: failure = {p_fail:.6f}")

# a weak, wide beam: tiny but perfectly resolvable advantage
sc = beam.BeamScenario(0.05, 10.0)
row = beam.compare_sensors(sc, "mc", 100_000, seed=7)
mean, err = row.advantage, row.stderr
print(f"\ntheta0=0.05, w=10: advantage {mean:.3e} +/- {err:.1e} "
      f"({mean/err:.0f} sigma)")
print("(each sampled line contributes its exact conditional failure for")
print(" both sensors, so the tiny gap is measured with almost no noise)")

# scaling in amplitude and width
print("\nadvantage across the (theta0, w) grid:")
sweep = beam.beam_sweep([0.02, 0.05, 0.08, 0.11], [5.0, 10.0, 20.0],
                        grid=(256, 256))
print(f"  {'theta0':>7} {'w':>5} {'advantage':>12}")
for row in sweep.rows:
    print(f"  {row.theta0:7.2f} {row.w:5.1f} {row.advantage:12.3e}")

print("\nlinear fits, advantage vs theta0:")
for w in (5.0, 10.0, 20.0):
    fit = sweep.fits_vs_theta0[w]
    print(f"  w={w:4.0f}: slope {fit.slope:.3e}  (R^2 = {fit.r2:.5f})")

r1 = sweep.fits_vs_theta0[5.0].slope / sweep.fits_vs_theta0[10.0].slope
r2 = sweep.fits_vs_theta0[10.0].slope / sweep.fits_vs_theta0[20.0].slope
print(f"\ndoubling the width divides the slope by {r1:.2f} and {r2:.2f} (~4):")
print("the advantage scales as theta0 / w^2.")
coeff = sum(sweep.measured_coefficient(w) for w in (5.0, 10.0, 20.0)) / 3
print(f"rescaled coefficient: {coeff:.3f} for this square geometry and "
      f"line ensemble\n(reference value for a related setup: "
      f"{sweep.reference_coefficient:.3f}; the constant depends on geometry).")
