"""Measurement oracles the tests share: the dense reference path and Helstrom.

`discrim` stores every POVM element as a rank-one factor m_j (P_j = |m_j><m_j|).
The reference here keeps the stacked (k, d, d) elements: the PGM as
rho^(-1/2) G_j rho^(-1/2), the Jezek-Rehacek-Fiurasek fixed point
P_j <- L G_j P_j G_j L, and the optimality test as one `eigvalsh` of
Gamma - G_j per element.  Its results are `discrim.DiscriminationResult`s, so
it can stand in for `discrim.pgm` and `discrim.optimal_measurement`.
"""
import numpy as np

from trajsense import discrim


def span_coords(states):
    """Row i is state i in the basis of the span that `discrim`'s factors use."""
    S = np.asarray(states, dtype=np.complex128)
    _, sv, vh = np.linalg.svd(S, full_matrices=False)
    d = max(1, int((sv > sv[0] * 1e-12).sum()))
    return S @ vh[:d].conj().T


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
    G = _weighted(coords)
    inv = _inv_sqrt(G.sum(axis=0), 1e-12)
    return G, inv @ G @ inv


def pgm(states):
    """Dense square-root measurement."""
    coords = span_coords(states)
    return _result(coords, _pgm_elements(coords)[1], "pgm")


def optimal_measurement(states):
    """Dense fixed point seeded from the PGM, stopped by the `eigvalsh` test."""
    coords = span_coords(states)
    G, povm = _pgm_elements(coords)

    def success(p):
        return float(np.einsum("kab,kba->", G, p).real)

    best, best_succ = povm, success(povm)
    resid = kkt_residual(coords, povm)
    it = 0
    while resid > discrim._FP_TOL and it < discrim._FP_MAX_ITER:
        L = _inv_sqrt(_hermitize((G @ povm @ G).sum(axis=0)), 1e-14)
        povm = _hermitize(L @ G @ povm @ G @ L)
        s = success(povm)
        if s > best_succ:
            best_succ, best = s, povm
        resid = kkt_residual(coords, povm)
        it += 1
    return _result(coords, best, "fixed_point_optimal",
                   converged=resid <= discrim._FP_TOL, iterations=it)


def helstrom_pair(states):
    """Two-state minimum error: project on the positive part of (|a><a| - |b><b|)/2.

    Its p_fail should be the closed form (1 - sqrt(1 - |<a|b>|^2))/2.
    """
    coords = span_coords(states)
    a, b = coords
    vals, vecs = np.linalg.eigh(0.5 * (np.outer(a, a.conj()) - np.outer(b, b.conj())))
    pos = vecs[:, vals > 0]
    P0 = pos @ pos.conj().T
    return _result(coords, np.stack([P0, np.eye(len(a)) - P0]), "helstrom")
