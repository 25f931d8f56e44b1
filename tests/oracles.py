"""Oracles the tests share: bit placement, Born sampling, the beam's sampled
and statevector routes, and dense measurements.

Bit placement reads every qubit's bit from its own column of a bit table, so
`tensor` and `compose_cyclic` check the package's kron-and-transpose
composition by an independent route.  `sample_measurement` draws projective
outcomes from the counter-based streams of `trajsense.rng`.

The beam oracles check `beam`'s line kernel.  `line_failures` is the per-line
pipeline on whole arrays: atom distances from the normal's projections, the
nearest edge by a stable argsort, the closed-form outcome probabilities, and
the vote as pattern-major (16, L) products; the kernel must match it bit for
bit.  `entangled_outcome_probs_statevector` rotates the window TS state and
projects it on its own rotated outputs, `unentangled_win_prob_rows` sums the
vote's 16 weighted outcome patterns as one (L, 16) row per line, and
`run_beam_trials` draws each trial's measurement outcome on the same lines
that `beam.compare_sensors` scores by exact conditional failure.

`discrim` stores every POVM element as a rank-one factor m_j (P_j = |m_j><m_j|),
and its one measurement is the PGM with a minimum-error certificate.  The
reference here keeps the stacked (k, d, d) elements: the PGM as
rho^(-1/2) G_j rho^(-1/2), the Jezek-Rehacek-Fiurasek fixed point
P_j <- L G_j P_j G_j L (PRA 65, 060301 (2002)), which reaches the minimum
error on any ensemble, custom families and product inputs included, and the
optimality test as one `eigvalsh` of Gamma - G_j per element (`kkt_residual`).
Like `discrim`'s, its measurements take the outputs' k x k Gram S S^H, and its
results are `discrim.DiscriminationResult`s, so it can stand in for
`discrim.pgm` and for the certified minimum-error measurement.

`ket_to_dict` is the state file's {"n": n, "amps": {bitstring: (re, im)}}
map as a plain dict, built one key at a time; `json.dumps` of it with sorted
keys and a two-space indent is the byte reference for the text that
`qcore.indented_json` writes from a Ket's arrays.

`plurality_win_dp` is the vote tail DP with one convolution per category
and tie count; `discrim._plurality_win_dp` carries the tie count as an array
axis, one matrix product per category, and must match it.

`exact_phase1` is a Bland's-rule rational simplex on the elastic phase-1
program of `simplex.certified_phase1`; its exact optimum is what the
certified bracket must contain.  `nonneg_solution` is the symmetric closed
form's earlier decision rule: a search over column supports for a
nonnegative solution of the class rows, with its own residual and sign
tolerances.
"""
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from trajsense import beam, discrim, rng, solver, trajset
from trajsense.qcore import Ket, _check_n, inner
from trajsense.trajset import Trajectory


# ---------------------------------------------------------------------------
# bit placement and sampling

def bit_table(n):
    """(2**n, n) uint8 array; column k-1 holds the bit of qubit k."""
    idx = np.arange(1 << n, dtype=">u4")       # big-endian: qubit 1's bit comes first
    return np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - n:]


def ket_to_dict(k):
    """{"n": n, "amps": {bitstring: (re, im)}} over the nonzero amplitudes, in index order."""
    idx = np.flatnonzero(k.amps)
    kept = k.amps[idx]
    keys = [format(j, f"0{k.n}b") for j in idx.tolist()]
    return {"n": k.n, "amps": dict(zip(keys, zip(kept.real.tolist(), kept.imag.tolist())))}


def _gather(bits, positions):
    """Index of the sub-register on the given 1-based positions, for every row."""
    powers = 1 << np.arange(len(positions) - 1, -1, -1)
    return bits[:, [p - 1 for p in positions]].astype(np.int64) @ powers


def tensor(a, b, place_a=None, place_b=None):
    """Tensor product with explicit qubit placement.

    ``place_a[i]`` is the output position (1-based) of qubit i+1 of ``a``;
    likewise for ``b``.  The two placements must be disjoint and together
    cover 1..(a.n+b.n).  Default is ``a`` on the leading positions.
    """
    n_out = a.n + b.n
    _check_n(n_out)
    if place_a is None and place_b is None:
        return Ket(n_out, np.kron(a.amps, b.amps))  # qubit 1 of `a` is the output MSB
    if place_a is None or place_b is None:
        raise ValueError("give both placements or neither")
    pa, pb = list(place_a), list(place_b)
    if len(pa) != a.n or len(pb) != b.n:
        raise ValueError("placement length must match qubit count")
    if sorted(pa + pb) != list(range(1, n_out + 1)):
        raise ValueError(f"placements must cover 1..{n_out} exactly, got {sorted(pa + pb)}")
    bits = bit_table(n_out)
    return Ket(n_out, a.amps[_gather(bits, pa)] * b.amps[_gather(bits, pb)])


def compose_cyclic(phi, n, m):
    """m copies of the kappa-qubit `phi`, copy r (1-based) on positions r, r+m, r+2m, ..."""
    kappa = n // m
    bits = bit_table(n)
    amps = np.ones(1 << n, dtype=complex)
    for r in range(1, m + 1):
        amps *= phi.amps[_gather(bits, [r + s * m for s in range(kappa)])]
    return amps


def product_input(alphas, phis=None):
    """The product of cos(a/2)|0> + e^{i phi} sin(a/2)|1> over the qubits'
    Bloch angles (phis default to 0), qubit 1 as the most significant bit."""
    phis = [0.0] * len(alphas) if phis is None else phis
    amps = np.ones(1, dtype=complex)
    for alpha, phi in zip(alphas, phis):
        amps = np.kron(amps, [math.cos(alpha / 2), np.exp(1j * phi) * math.sin(alpha / 2)])
    return Ket(len(alphas), amps)


def gram(states):
    """Matrix of pairwise inner products <s_i|s_j>."""
    mat = np.stack([s.amps for s in states])
    return mat.conj() @ mat.T


def uniform_at(seed, stream, index, slot=0):
    """Single uniform for one (sample index, slot) address."""
    return float(rng.uniforms(seed, stream, index, 1, slots=slot + 1)[0, slot])


def sample_measurement(k, basis, rng_seed, sample_index=0, stream=0):
    """Draw one projective outcome; index len(basis) is the complement.

    Outcomes follow the Born probabilities |<basis_i|k>|^2, with whatever
    probability remains assigned to an implicit complement outcome.  The draw
    is addressed by (rng_seed, stream, sample_index), so repeated calls with
    distinct sample indices are reproducible in any order.
    """
    g = gram(basis)
    off = np.abs(g - np.eye(len(basis)))
    if off.size and off.max() > 1e-8:
        raise ValueError(f"basis not orthonormal: max |G - I| entry = {off.max():.3e}")
    probs = np.abs([inner(b, k) for b in basis]) ** 2
    # complement outcome absorbs whatever probability the basis misses
    cdf = np.concatenate([np.cumsum(probs), [max(probs.sum(), 1.0)]])
    return int(np.searchsorted(cdf, uniform_at(rng_seed, stream, sample_index), side="right"))


# ---------------------------------------------------------------------------
# beam: sampled outcomes and the statevector route

# RNG streams of the sampled outcomes; stream 1 holds `beam`'s lines
_STREAM_MEAS = 2       # slots: one (entangled) or four (per-qubit)
_STREAM_TIE = 3


def sample_lines(trials, seed):
    """The first ``trials`` Monte Carlo lines of ``seed``, as `beam.compare_sensors` draws them."""
    beam._check_trials(trials)
    phi, offset = beam._lines(seed, 0, trials)
    return phi, offset[:, 0]


def distances(phi, offset):
    """Perpendicular distances of the four atoms to the line(s).

    Accepts scalars or equal-length arrays; returns shape (..., 4).
    """
    phi = np.asarray(phi, dtype=float)
    offset = np.asarray(offset, dtype=float)
    pos = np.asarray(beam.ATOM_POSITIONS)              # (4, 2)
    nx, ny = -np.sin(phi), np.cos(phi)                 # unit normal
    proj = np.multiply.outer(nx, pos[:, 0]) + np.multiply.outer(ny, pos[:, 1])
    return np.abs(proj - offset[..., None])


def nearest_indices(d):
    """Edge index minimizing its two atoms' distance sum (first wins ties), tied flag.

    ``d`` holds the four atom distances of each line, shape (..., 4).
    """
    sums = np.stack([d[..., i - 1] + d[..., j - 1] for i, j in beam.EDGES], axis=-1)
    order = np.argsort(sums, axis=-1, kind="stable")
    two = np.take_along_axis(sums, order[..., :2], -1)     # smallest, second
    return order[..., 0], (two[..., 1] - two[..., 0]) <= 1e-12


def beam_angles(scenario, beam_line):
    """Rotation angles theta0 * exp(-d^2/w^2) for a (phi, offset) line."""
    phi, offset = beam_line
    d = distances(phi, offset)
    return scenario.theta0 * np.exp(-(d ** 2) / scenario.w ** 2)


def entangled_outcome_probs(angles):
    """Probabilities of the four basis outcomes given per-atom angles.

    Closed form for the pi/2 window TS state: with A = (t1+t2-t3-t4)/2 and
    B = (t1-t2-t3+t4)/2 the amplitudes onto the rotated-output basis are
    (sinA+cosB)/2, (cosA-sinB)/2, (cosB-sinA)/2, (cosA+sinB)/2; they already
    exhaust the norm, so the complement outcome has probability zero here.
    """
    t = np.asarray(angles, dtype=float)
    A = 0.5 * (t[..., 0] + t[..., 1] - t[..., 2] - t[..., 3])
    B = 0.5 * (t[..., 0] - t[..., 1] - t[..., 2] + t[..., 3])
    sA, cA, sB, cB = np.sin(A), np.cos(A), np.sin(B), np.cos(B)
    amp = np.stack([sA + cB, cA - sB, cB - sA, cA + sB], axis=-1)
    return 0.25 * amp ** 2


def unentangled_flip_probs(angles):
    """P(X measurement reads minus) per qubit: sin^2(theta_i/2)."""
    return np.sin(np.asarray(angles) / 2.0) ** 2


def unentangled_win_prob(q, true_idx):
    """Exact success probability of the vote rule given flip probs (L,4).

    Pattern-major (16, L) products ((f1*f2)*f3)*f4 of f_i in {1 - q_i, q_i}, added
    in numpy's pairwise order for a 16-wide row: an (L, 16) row sum, bit for bit.
    """
    qT = np.atleast_2d(q).T                            # (4, L)
    pb = np.stack([1.0 - qT[0], qT[0]])
    for qi in qT[1:]:
        pb = (pb[:, None] * np.stack([1.0 - qi, qi])).reshape(-1, qi.size)
    t = pb * beam._WIN_WEIGHT[:, true_idx]
    r = t[:8] + t[8:]
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))


def line_failures(scenario, phi, offset):
    """`beam.line_failures` from the per-line formulas above, on all lines at once."""
    d = distances(np.ravel(phi), np.ravel(offset))
    angles = scenario.theta0 * np.exp(-(d ** 2) / scenario.w ** 2)
    true_idx, tied = nearest_indices(d)
    probs = entangled_outcome_probs(angles)
    leftover = np.clip(1.0 - probs.sum(axis=-1), 0.0, None)
    win = np.take_along_axis(probs, true_idx[:, None], -1)[:, 0] + leftover / 4
    return 1.0 - win, 1.0 - unentangled_win_prob(unentangled_flip_probs(angles), true_idx), tied


#: (16, 4) bit table of the X-outcome patterns; column i holds qubit i+1's bit
BITS4 = bit_table(4)


def unentangled_win_prob_rows(q, true_idx):
    """`unentangled_win_prob` as a row sum over an (L, 16) pattern table."""
    q = np.atleast_2d(q)
    pb = np.ones((q.shape[0], 16))
    for i in range(4):
        pb *= np.where(BITS4[:, i], q[:, i:i + 1], 1.0 - q[:, i:i + 1])
    return (pb * beam._WIN_WEIGHT.T[true_idx]).sum(axis=1)


def ts_sensor_state():
    """The window TS state at theta=pi/2 (equal weights on the four edges)."""
    return solver.build_cyclic(4, 2, math.pi / 2).witness_state


def measurement_basis():
    """Rotated outputs R^(T)(pi/2)|psi> in window order."""
    outs = (trajset.phase_matrix(trajset.gen_cyclic(4, 2).members, 4, math.pi / 2)
            * ts_sensor_state().amps)
    return [Ket(4, row) for row in outs]


def entangled_outcome_probs_statevector(angles):
    """`entangled_outcome_probs` via explicit statevectors."""
    amps = ts_sensor_state().amps
    for i, th in enumerate(angles, start=1):
        amps = amps * trajset.phase_matrix([Trajectory((i,))], 4, float(th))[0]
    return np.array([abs(np.vdot(b.amps, amps)) ** 2 for b in measurement_basis()])


def sample_outcomes(scenario, sensor, trials, seed):
    """Sampled (true_idx, guess_idx, complement_mask, tied) for each trial."""
    if sensor not in ("entangled_ts", "unentangled_plus"):
        raise ValueError(f"unknown sensor {sensor!r}")
    phi, offset = sample_lines(trials, seed)
    d = distances(phi, offset)
    angles = scenario.theta0 * np.exp(-(d ** 2) / scenario.w ** 2)
    true_idx, tied = nearest_indices(d)
    tie_u = rng.uniforms(seed, _STREAM_TIE, 0, trials)[:, 0]
    if sensor == "entangled_ts":
        cdf = np.cumsum(entangled_outcome_probs(angles), axis=1)
        u = rng.uniforms(seed, _STREAM_MEAS, 0, trials)[:, 0]
        outcome = np.sum(u[:, None] >= cdf, axis=1)     # 4 = complement
        complement = outcome >= 4
        guess = np.where(complement, (tie_u * 4).astype(int), outcome)
    else:
        u4 = rng.uniforms(seed, _STREAM_MEAS, 0, trials, slots=4)
        flips = (u4 < unentangled_flip_probs(angles)).astype(int)
        scores = np.stack([flips[:, i - 1] + flips[:, j - 1] for i, j in beam.EDGES],
                          axis=1)
        mx = scores.max(axis=1, keepdims=True)
        n_win = (scores == mx).sum(axis=1)
        # uniform pick among tied edges via one uniform
        pick = (tie_u * n_win).astype(int)
        guess = np.array([np.nonzero(row)[0][p] for row, p in
                          zip(scores == mx, pick)])
        complement = np.zeros(trials, dtype=bool)
    return true_idx, guess, complement, tied


def run_beam_trials(scenario, sensor, trials, seed):
    """Monte Carlo failure over random beam lines with sampled measurements: (p_fail, stderr).

    Same lines as `beam.compare_sensors`, but each trial draws its measurement
    outcome instead of contributing its exact conditional failure (same
    estimand, far larger variance).
    """
    true_idx, guess, _, _ = sample_outcomes(scenario, sensor, trials, seed)
    mean = float((guess != true_idx).mean())
    return mean, float(math.sqrt(max(mean * (1 - mean), 1e-300) / trials))


# ---------------------------------------------------------------------------
# dense measurements


def span_coords(gram):
    """Row i is state i in the basis of the span that `discrim`'s factors use:
    V lam^(1/2) over the Gram's eigenvalues lam > `discrim._SPAN_CUT` lam_max."""
    lam, vecs = np.linalg.eigh(np.asarray(gram, dtype=np.complex128))
    keep = lam > lam[-1] * discrim._SPAN_CUT
    keep[-1] = True
    return vecs[:, keep] * np.sqrt(lam[keep])


def elements(m):
    """(k, d, d) stack of |m_j><m_j| from the (k, d) factors."""
    return m[:, :, None] * m[:, None, :].conj()


def _hermitize(M):
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def _inv_sqrt(M, cut):
    vals, vecs = np.linalg.eigh(M)
    keep = vals > max(vals.max(), 0.0) * cut
    return (vecs[:, keep] * (vals[keep] ** -0.5)) @ vecs[:, keep].conj().T


def _weighted(coords):
    """G_j = |c_j><c_j|/k, stacked."""
    return (1.0 / len(coords)) * elements(coords)


def kkt_residual(coords, povm):
    """max(0, -min_j lambda_min(Gamma - G_j)), Gamma = sum_j G_j P_j hermitized."""
    G = _weighted(coords)
    gamma = _hermitize((G @ povm).sum(axis=0))
    return max(0.0, -float(np.linalg.eigvalsh(gamma - G).min()))


def _result(coords, povm, method, **kw):
    k = len(coords)
    confusion = np.einsum("jib,ib->ij", coords.conj() @ povm, coords).real
    abstain = np.clip(1.0 - confusion.sum(axis=1), 0.0, None)
    confusion = np.clip(confusion + abstain[:, None] / k, 0.0, 1.0)
    p_fail = float(max(0.0, 1.0 - np.full(k, 1.0 / k) @ confusion.diagonal().copy()))
    return discrim.DiscriminationResult(povm, p_fail, method, confusion, **kw)


def _pgm_elements(coords):
    """rho^(-1/2) from the SVD of the coordinates, rho = Wh^T diag(sv**2) conj(Wh)/k,
    so its small eigenvalues keep their relative accuracy: `eigh` of rho would
    square the condition number of the coordinates."""
    G = _weighted(coords)
    _, sv, wh = np.linalg.svd(coords, full_matrices=False)
    keep = sv ** 2 > sv[0] ** 2 * 1e-12
    inv = math.sqrt(len(coords)) * (wh[keep].T / sv[keep]) @ wh[keep].conj()
    return G, inv @ G @ inv


def pgm(gram):
    """Dense square-root measurement."""
    coords = span_coords(gram)
    return _result(coords, _pgm_elements(coords)[1], "pgm")


#: the fixed point stops once Gamma - G_j >= -FP_TOL for every j, or after FP_MAX_ITER steps
FP_TOL = 1e-9
FP_MAX_ITER = 10_000


def optimal_measurement(gram):
    """Dense fixed point seeded from the PGM, stopped by the `eigvalsh` test; the
    result is `optimal` where it passed that test, and its note counts the steps."""
    coords = span_coords(gram)
    G, povm = _pgm_elements(coords)

    def success(p):
        return float(np.einsum("kab,kba->", G, p).real)

    best, best_succ = povm, success(povm)
    resid = kkt_residual(coords, povm)
    it = 0
    while resid > FP_TOL and it < FP_MAX_ITER:
        L = _inv_sqrt(_hermitize((G @ povm @ G).sum(axis=0)), 1e-14)
        povm = _hermitize(L @ G @ povm @ G @ L)
        s = success(povm)
        if s > best_succ:
            best_succ, best = s, povm
        resid = kkt_residual(coords, povm)
        it += 1
    optimal = resid <= FP_TOL
    return _result(coords, povm if optimal else best, "fixed_point_optimal", optimal=optimal,
                   note=f"{it} iterations")


def helstrom_pair(gram):
    """Two-state minimum error: project on the positive part of (|a><a| - |b><b|)/2.

    Its p_fail should be the closed form (1 - sqrt(1 - |<a|b>|^2))/2.
    """
    coords = span_coords(gram)
    a, b = coords
    vals, vecs = np.linalg.eigh(0.5 * (np.outer(a, a.conj()) - np.outer(b, b.conj())))
    pos = vecs[:, vals > 0]
    P0 = pos @ pos.conj().T
    return _result(coords, np.stack([P0, np.eye(len(a)) - P0]), "helstrom")


# ---------------------------------------------------------------------------
# plurality-vote tail

def plurality_win_dp(p: np.ndarray, i: int, r: int) -> float:
    """P(category i wins the plurality vote of r iid draws), one convolution
    per category and tie count t: the reference for `discrim._plurality_win_dp`."""
    k = len(p)
    if k == 1:
        return 1.0
    p = np.clip(p, 0.0, 1.0)
    pi_ = p[i]
    if pi_ <= 0.0:
        return 0.0
    q = np.delete(p, i)
    rest = q.sum()
    if rest <= 0.0:
        return 1.0
    q = q / rest
    pmf_a = [math.comb(r, a) * pi_ ** a * (1 - pi_) ** (r - a) for a in range(r + 1)]
    inv_fact = np.array([1.0 / math.factorial(u) for u in range(r + 1)])
    win = 0.0
    for a in range(1, r + 1):
        if pmf_a[a] < 1e-18:
            continue
        s = r - a
        if s == 0:
            win += pmf_a[a]
            continue
        if s > a * (k - 1):
            continue                     # someone must exceed a
        # g[u, t]: P-weight (divided by u!) that processed categories used u
        # draws, all counts <= a, t of them exactly at a
        g = np.zeros((s + 1, k))
        g[0, 0] = 1.0
        for qj in q:
            below = min(a - 1, s)
            pw = qj ** np.arange(below + 1) * inv_fact[:below + 1]
            new = np.zeros_like(g)
            for t in range(k):
                col = g[:, t]
                if not col.any():
                    continue
                new[:, t] += np.convolve(col, pw)[:s + 1]
                if a <= s and t + 1 < k:
                    new[a:, t + 1] += col[:s + 1 - a] * (qj ** a * inv_fact[a])
            g = new
        tail = g[s] * math.factorial(s)
        win += pmf_a[a] * sum(tail[t] / (t + 1) for t in range(k))
    return float(min(1.0, max(0.0, win)))


# ---------------------------------------------------------------------------
# exact elastic phase 1

def exact_phase1(A: Sequence[Sequence[float]], b: Sequence[float]):
    """Minimize sum |A x - b| over x >= 0, exactly.

    Returns (objective: Fraction, x: list[Fraction]).  objective == 0 iff
    the rationalized system is feasible; x is a basic (vertex) solution of
    the elastic program either way.
    """
    m = len(A)
    if m == 0:
        return Fraction(0), []
    N = len(A[0])
    rows = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        bi = Fraction(b[i])
        if bi < 0:  # keep rhs nonnegative so the s+ basis starts feasible
            row = [-v for v in row]
            bi = -bi
        elastic = [Fraction(0)] * (2 * m)
        elastic[i] = Fraction(1)        # s+ column
        elastic[m + i] = Fraction(-1)   # s- column
        rows.append(row + elastic + [bi])

    ncols = N + 2 * m
    # reduced costs for cost (0,..,0 | 1,..,1), initial basis = s+ block
    red = [Fraction(0)] * (ncols + 1)
    for j in range(ncols + 1):
        cj = Fraction(1) if N <= j < ncols else Fraction(0)
        red[j] = cj - sum(r[j] for r in rows)
    basis = list(range(N, N + m))

    while True:
        enter = -1
        for j in range(ncols):  # Bland: smallest improving index
            if red[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave, best, best_var = -1, None, None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_var):
                    leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded — malformed input")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        prow = rows[leave]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [v - f * p for v, p in zip(rows[i], prow)]
        if red[enter] != 0:
            f = red[enter]
            red = [v - f * p for v, p in zip(red, prow)]
        basis[leave] = enter

    obj = -red[ncols]
    x = [Fraction(0)] * N
    for i, jb in enumerate(basis):
        if jb < N:
            x[jb] = rows[i][ncols]
    return obj, x


# ---------------------------------------------------------------------------
# support enumeration for the symmetrized system

def nonneg_solution(A: np.ndarray, norms: np.ndarray):
    """Search for x >= 0 with A x = 0 and norms . x = 1 via basic solutions.

    Enumerates column-support subsets (largest first) and accepts the first
    exact solution that is nonnegative within BOUNDARY_TOL.  Returns
    (x or None, diagnostics).
    """
    K = len(norms)
    scale = np.abs(A).max(axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    B = np.vstack([A / scale, norms / norms.max()])
    b = np.zeros(B.shape[0])
    b[-1] = 1.0 / norms.max()
    best = None
    for size in range(K, 0, -1):
        for cols in itertools.combinations(range(K), size):
            sub = B[:, cols]
            x_s, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if np.linalg.norm(sub @ x_s - b) > solver.FEAS_TOL:
                continue
            x = np.zeros(K)
            x[list(cols)] = x_s
            if x.min() >= -solver.BOUNDARY_TOL * max(1.0, x.max()):
                return np.clip(x, 0.0, None), best
            if best is None:
                best = x
    return None, best
