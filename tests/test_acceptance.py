"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
quantities, then asserts.  Criterion 4 brackets the product-state baseline
between two bounds computed from the output overlaps alone: a pairwise
Helstrom floor, strictly positive below theta = pi, and the failure of
reading each qubit in the X basis.  A flat 1% floor up to 0.95*pi cannot
hold for any correct optimum, since the per-qubit X readout already fails
only 0.82% (symmetric) and 0.61% (cyclic) there.
"""
import itertools
import math
import time

import numpy as np
import pytest

from trajsense import beam, discrim, qcore, qec, solver, trajset


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_balanced_thresholds():
    """Both routes place the feasibility onset exactly at (n-1)pi/n."""
    t0 = time.time()
    worst_res = 0.0
    for n in (2, 4, 6, 8, 10):
        m = n // 2
        th = solver.threshold_sym(n, m).theta
        ts = trajset.gen_symmetric(n, m)
        for theta, want in ((th - 0.01, False), (th, True), (th + 0.01, True)):
            closed = solver.solve_symmetric(n, m, theta)
            lp = solver.solve_lp(solver.TSProblem(ts, theta))
            assert closed.feasible == want, (n, theta, "closed")
            assert lp.feasible == want, (n, theta, "lp")
            if want:
                res = solver.max_gram_residual(closed.witness_state, ts, theta)
                worst_res = max(worst_res, res)
                assert res < 1e-8, (n, theta, res)
    dt = time.time() - t0
    ok = dt < 60 and worst_res < 1e-8
    _report(1, ok, f"n up to 10 onsets exact both routes, worst witness "
                   f"residual {worst_res:.2e}, {dt:.1f}s")


def test_criterion_2_weight_ratio_identities():
    """(4,2) witness weights satisfy the cos(2t) and -cos(t) ratios."""
    worst = 0.0
    for theta in np.linspace(3 * math.pi / 4, math.pi, 50):
        cert = solver.solve_symmetric(4, 2, float(theta))
        assert cert.feasible
        c0, c1, c2 = cert.cbar_sq
        worst = max(worst,
                    abs(c0 / c2 - math.cos(2 * theta)),
                    abs(c1 / c2 - (-math.cos(theta))))
    ok = worst < 1e-10
    _report(2, ok, f"50-point grid, max ratio deviation {worst:.2e}")


def test_criterion_3_cyclic_thresholds():
    """Window families are feasible at arccos(-1 + 1/ceil(kappa/2)).

    A sufficient angle: for kappa >= 4 the true onset lies lower.
    """
    t0 = time.time()
    worst = 0.0
    cases = 0
    for kappa in (2, 3, 4):
        for m in (1, 2, 3):
            n = kappa * m
            if n > 12:
                continue
            theta = solver.threshold_cyc(kappa)
            cert = solver.build_cyclic(n, m, theta)
            assert cert.feasible, (kappa, m)
            ts = trajset.gen_cyclic(n, m)
            res = solver.max_gram_residual(cert.witness_state, ts, theta)
            worst = max(worst, res)
            assert res < 1e-8, (kappa, m, res)
            lp = solver.solve_lp(solver.TSProblem(ts, theta))
            assert lp.feasible, (kappa, m, "lp")
            cases += 1
    dt = time.time() - t0
    ok = dt < 120 and worst < 1e-8
    _report(3, ok, f"{cases} (kappa,m) cases at threshold, worst residual "
                   f"{worst:.2e}, {dt:.1f}s")


#: disjoint member pairs of the (4,2) families, each at Hamming distance 2
_CRITERION_4_PAIRS = {
    "sym": (({1, 2}, {1, 3}), ({1, 4}, {2, 4}), ({2, 3}, {3, 4})),
    "cyc": (({1, 2}, {2, 3}), ({3, 4}, {4, 1})),
}


def _plus_overlap(a, b, theta: float) -> float:
    """|<psi_a|psi_b>| for |+>^n rotated on a and on b: |cos(theta/2)|^|a^b|."""
    return abs(math.cos(theta / 2)) ** len(set(a) ^ set(b))


def _pairwise_helstrom_floor(label: str, members, theta: float) -> float:
    """Lower bound on any measurement's failure, from disjoint pairs.

    A measurement that sorts all N states also sorts each pair, so each pair
    of prior 1/N costs at least (2/N) times its equal-prior Helstrom error.
    """
    pairs = _CRITERION_4_PAIRS[label]
    used = [q for pair in pairs for q in pair]
    assert all(q in members for q in used)
    assert len({frozenset(q) for q in used}) == len(used)
    return sum((1 - math.sqrt(1 - _plus_overlap(a, b, theta) ** 2)) / len(members)
               for a, b in pairs)


def _x_readout_failure(n: int, members, theta: float) -> float:
    """Exact failure of reading every qubit of |+>^n in the X basis and
    guessing the most likely trajectory: a qubit outside T always reads +,
    one inside T reads + with probability |<+|R_Z(theta)|+>|^2."""
    plus = _plus_overlap({1}, set(), theta) ** 2
    win = 0.0
    for r in range(n + 1):
        for minus in itertools.combinations(range(1, n + 1), r):
            S = set(minus)
            win += max((1 - plus) ** len(S) * plus ** len(T - S) if S <= T else 0.0
                       for T in members)
    return 1 - win / len(members)


def test_criterion_4_classical_floor():
    """Product baseline sits between the pairwise floor and the X readout.

    For |+>^4 on the (4,2) families, the optimal measurement's failure is
    bounded below by the disjoint-pair Helstrom floor, which is positive
    for every theta < pi (a product sensor is never error-free in one shot
    there), and above by the per-qubit X readout with a most-likely guess
    (the collective measurement never does worse).  Both bounds come from
    the overlaps |cos(theta/2)|^|T^T'| alone.  At theta = pi the outputs
    are orthogonal and the failure vanishes.

    A 1% floor up to 0.95*pi is not checked: it cannot hold, since the X
    readout itself fails only 0.82% (sym) and 0.61% (cyc) at 0.95*pi.
    """
    results = {}
    bounds_ok = True
    for label, ts in (("sym", trajset.gen_symmetric(4, 2)),
                      ("cyc", trajset.gen_cyclic(4, 2))):
        members = [set(t.qubits) for t in ts.members]
        grid = np.linspace(0.05 * math.pi, 0.95 * math.pi, 19)
        fails = [discrim.classical_baseline(ts, float(t)).p_fail for t in grid]
        floors = [_pairwise_helstrom_floor(label, members, float(t)) for t in grid]
        ceilings = [_x_readout_failure(ts.n, members, float(t)) for t in grid]
        bounds_ok &= all(0 < lo <= p <= hi
                         for lo, p, hi in zip(floors, fails, ceilings))
        at_pi = discrim.classical_baseline(ts, math.pi).p_fail
        results[label] = (min(fails), float(grid[int(np.argmin(fails))]), at_pi,
                          min(p / lo for p, lo in zip(fails, floors)),
                          min(hi / p for p, hi in zip(fails, ceilings)))
    endpoint_ok = all(v[2] < 1e-9 for v in results.values())
    detail = ", ".join(
        f"{k}: min p_fail {v[0]:.2e} at theta={v[1]/math.pi:.3f}pi, "
        f"p_fail/floor >= {v[3]:.2f}, ceiling/p_fail >= {v[4]:.2f}, "
        f"p_fail(pi)={v[2]:.1e}" for k, v in results.items())
    _report(4, bounds_ok and endpoint_ok, detail)


def test_criterion_5_curve_properties():
    """Quantum curve dominates, vanishes above 3pi/4, and starts at 5/6."""
    ts = trajset.gen_symmetric(4, 2)
    grid = np.linspace(0.0, math.pi, 21)     # includes 3pi/4 at index 15
    curve = discrim.failure_curve(ts, grid)
    worst_gap = max(pt.p_fail_quantum - pt.p_fail_classical for pt in curve)
    tail = max(pt.p_fail_quantum for pt in curve if pt.theta >= 3 * math.pi / 4 - 1e-12)
    start_q, start_c = curve[0].p_fail_quantum, curve[0].p_fail_classical
    ok = (worst_gap <= 1e-9 and tail < 1e-9
          and abs(start_q - 5 / 6) < 1e-12 and abs(start_c - 5 / 6) < 1e-12)
    _report(5, ok, f"dominance margin {worst_gap:.1e}, max tail p_fail "
                   f"{tail:.1e}, p_fail(0) = {start_q:.6f}")


def test_criterion_6_repetition_scaling():
    """Classical shots grow like log(1/eps); entangled sensing needs one."""
    t0 = time.time()
    ts = trajset.gen_symmetric(4, 2)
    theta = 3 * math.pi / 4
    eps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    classical = discrim.repetition_analysis(
        discrim.classical_baseline(ts, theta), eps)
    cert = solver.solve_symmetric(4, 2, theta)
    quantum = discrim.repetition_analysis(
        discrim.pgm(discrim.make_ensemble(cert.witness_state, ts, theta)), eps)
    assert all(rep.r == 1 for rep in quantum)
    rs = [rep.r for rep in classical]
    assert all(isinstance(r, int) for r in rs)
    x = np.log(1.0 / np.array(eps))
    slope, intercept = np.polyfit(x, rs, 1)
    pred = slope * x + intercept
    ss_res = float(((rs - pred) ** 2).sum())
    ss_tot = float(((rs - np.mean(rs)) ** 2).sum())
    r2 = 1 - ss_res / ss_tot
    dt = time.time() - t0
    ok = r2 > 0.95 and slope > 0 and dt < 60
    _report(6, ok, f"classical r = {rs}, fit r = {slope:.3f}*log(1/eps)"
                   f"{intercept:+.3f}, R^2 = {r2:.3f}; quantum r = 1; {dt:.1f}s")


def test_criterion_7_beam_advantage():
    """Quadrature baseline, 5-sigma advantage, linear and 1/w^2 scaling."""
    t0 = time.time()
    q0 = beam.compare_sensors(beam.BeamScenario(0.0, 10.0))
    base = [q0.p_fail_entangled, q0.p_fail_unentangled]
    base_ok = all(abs(b - 0.75) <= 1e-3 for b in base)

    mc = beam.compare_sensors(beam.BeamScenario(0.05, 10.0), "mc", 200_000, 2024)
    mean, err = mc.advantage, mc.stderr
    sig = mean / err
    sig_ok = mean > 0 and sig > 5

    sweep = beam.beam_sweep([0.02, 0.04, 0.06, 0.08, 0.10], [5.0, 10.0, 20.0])
    lin_ok = all(sweep.fits_vs_theta0[w].r2 > 0.98 for w in (5.0, 10.0, 20.0))
    ratios = [sweep.fits_vs_theta0[w].slope / sweep.fits_vs_theta0[2 * w].slope
              for w in (5.0, 10.0)]
    ratio_ok = all(abs(r - 4.0) <= 0.8 for r in ratios)
    coeffs = {w: sweep.measured_coefficient(w) for w in (5.0, 10.0, 20.0)}
    dt = time.time() - t0
    ok = base_ok and sig_ok and lin_ok and ratio_ok and dt < 300
    _report(7, ok,
            f"p_fail(0) = {base[0]:.4f}/{base[1]:.4f}, advantage "
            f"{mean:.2e} at {sig:.0f} sigma, R^2 >= "
            f"{min(sweep.fits_vs_theta0[w].r2 for w in (5.0, 10.0, 20.0)):.4f}, "
            f"w-doubling ratios {ratios[0]:.2f}/{ratios[1]:.2f}; measured "
            f"coefficient {np.mean(list(coeffs.values())):.3f} "
            f"(reference 8/pi^2 = {sweep.reference_coefficient:.3f}, "
            f"geometry-dependent, not asserted); {dt:.0f}s")


def test_criterion_8_code_checks():
    """Stabilizers, discrimination-as-correction, transversal quarter turn."""
    t0 = time.time()
    stab = qec.stabilizer_check(qec.window_code_state(), qec.window_code_group())
    assert stab.all_plus_one

    kl_count = 0
    for ts, thetas in (
        (trajset.gen_symmetric(4, 2), (3 * math.pi / 4, 2.5, math.pi)),
        (trajset.gen_symmetric(2, 1), (math.pi / 2, 2.0, math.pi)),
        (trajset.gen_symmetric(6, 3), (5 * math.pi / 6, 3.0)),
        (trajset.gen_cyclic(4, 2), (math.pi / 2, 2.0, math.pi)),
        (trajset.gen_cyclic(6, 2), (2 * math.pi / 3, 2.5)),
    ):
        for theta in thetas:
            cert = solver.solve(solver.TSProblem(ts, float(theta)))
            if not cert.feasible:
                continue
            verdict = qec.kl_verify(cert.witness_state, ts, float(theta)).verdict
            assert verdict == "discriminating code", (ts.family, ts.n, theta)
            kl_count += 1
    assert kl_count >= 10

    trans = qec.transversal_rotation_check(math.pi / 2)
    control = qec.transversal_rotation_check(math.pi / 3)
    assert trans.passed
    assert max(trans.codespace_residual, trans.logical_residual) < 1e-9
    assert not control.passed
    dt = time.time() - t0
    ok = dt < 60
    _report(8, ok, f"window stabilizers +1, {kl_count} feasible witnesses all "
                   f"discriminating codes, quarter-turn residual "
                   f"{max(trans.codespace_residual, trans.logical_residual):.1e}, "
                   f"pi/3 control fails ({control.detail}); {dt:.1f}s")


def test_criterion_9_route_equivalence():
    """Closed-form and LP verdicts agree everywhere; PGM is exact on
    orthogonal ensembles."""
    t0 = time.time()
    grid = np.linspace(0.12, math.pi, 25)
    checked = 0
    pgm_checked = 0
    worst_pgm = 0.0
    for n in range(2, 9):
        for m in range(0, n + 1):
            ts = trajset.gen_symmetric(n, m)
            for theta in grid:
                theta = float(theta)
                closed = solver.solve_symmetric(n, m, theta)
                lp = solver.solve_lp(solver.TSProblem(ts, theta))
                assert closed.feasible == lp.feasible, (n, m, theta)
                checked += 1
                # PGM on the witness ensemble must be a perfect sorter
                if closed.feasible and len(ts) > 1 and theta in grid[::6]:
                    ens = discrim.make_ensemble(closed.witness_state, ts, theta)
                    p = discrim.pgm(ens).p_fail
                    worst_pgm = max(worst_pgm, p)
                    assert p < 1e-10, (n, m, theta, p)
                    pgm_checked += 1
    dt = time.time() - t0
    ok = checked == 25 * sum(n + 1 for n in range(2, 9))
    _report(9, ok, f"{checked} verdict pairs agree, {pgm_checked} PGM runs "
                   f"max p_fail {worst_pgm:.1e}, {dt:.1f}s")
