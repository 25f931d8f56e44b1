"""Output checks that do not trust the package.

A certificate's witness is re-verified with this module's own numpy: the
outputs R(T)|psi> of every member T (or of a fixed sample when the dense
check would pass 128 MiB) must have a Gram matrix within 1e-8 of the
identity.  Curve, beam and qec outputs are compared with reference values in
reference.json (written by make_reference.py) within the tolerances below.

Every command ends in one of three ways:

* verified: its output passed, and it adds `results` to the throughput;
* failed:   it exited 2, crashed or timed out, or its output did not pass;
* wrong:    a failure that is also a wrong answer or an unexpected refusal.
            Any wrong command makes the run's `correct` false.

An exit 2 on one of the inputs known to fail when this benchmark was added
counts as failed but not wrong; the known reason is reported with it.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

GRAM_TOL = 1e-8
#: |T| * 2^n above which the Gram check uses a fixed sample of members
GRAM_CELLS = 1 << 23
CURVE_ATOL = 1e-7
BEAM_QUAD_RTOL = 1e-9
#: Monte Carlo p_fail vs quadrature (1e6 lines, per-line std < 0.5)
BEAM_MC_ATOL = 2e-3
QEC_ATOL = 1e-9


@dataclass
class Outcome:
    results: int = 0
    failed: bool = False
    wrong: bool = False
    known: str | None = None     # known-failure reason, when this is one
    note: str = ""


def _angle(text: str) -> float:
    """Same grammar as the CLI: radians or '3pi/4'-style pi fractions."""
    s = text.strip().lower()
    if "pi" not in s:
        return float(s)
    num, _, den = s.partition("pi")
    num = float(num.rstrip("*").strip() or 1.0)
    den = float(den.strip().lstrip("/") or 1.0)
    return num * math.pi / den


def _members(family: str, n: int, m: int) -> list[tuple[int, ...]]:
    """0-based qubit sets: all m-subsets (sym) or the n ring windows (cyc)."""
    if family == "sym":
        return list(itertools.combinations(range(n), m))
    return [tuple((s + o) % n for o in range(m)) for s in range(n)]


def _amps(state: dict) -> tuple[int, np.ndarray]:
    n = int(state["n"])
    amps = np.zeros(1 << n, dtype=complex)
    for bits, (re, im) in state["amps"].items():
        amps[int(bits, 2)] = complex(re, im)
    return n, amps


def gram_residual(state: dict, family: str, m: int, theta: float) -> float:
    """max |G - I| for the outputs exp(i theta w_T) psi, w_T = ones of T.

    R(T) differs from this by a global phase per T, which moves no entry of
    |G - I|.  Qubit 1 is the most significant bit.  The sum over basis states
    runs in chunks, so this process stays far below the memory of any CLI
    call: a child's max-RSS reading starts from this process's high-water
    mark, as Linux carries it across fork and exec.
    """
    n, amps = _amps(state)
    members = _members(family, n, m)
    cap = max(16, GRAM_CELLS >> n)
    if len(members) > cap:
        members = sorted(random.Random(0).sample(members, cap))
    masks = np.array([sum(1 << (n - 1 - q) for q in t) for t in members])
    probs = np.abs(amps) ** 2
    gram = np.zeros((len(members), len(members)), dtype=complex)
    chunk = max(1, (1 << 16) // len(members))
    for lo in range(0, 1 << n, chunk):
        idx = np.arange(lo, min(lo + chunk, 1 << n))
        phases = np.exp(1j * theta * np.bitwise_count(idx[None, :] & masks[:, None]))
        gram += (phases.conj() * probs[idx]) @ phases.T
    return float(np.abs(gram - np.eye(len(members))).max())


def _close(actual, expected, atol: float, rtol: float = 0.0) -> bool:
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(_close(actual[k], expected[k], atol, rtol) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(_close(a, e, atol, rtol) for a, e in zip(actual, expected)))
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        return actual == expected or abs(actual - expected) <= atol + rtol * abs(expected)
    return actual == expected


def parse_output(kind: str, stdout: str):
    """The machine-readable part of a command's stdout."""
    if kind in ("curve", "inset"):
        rows = list(csv.reader(io.StringIO(stdout)))
        return [r for r in rows[1:] if r]
    return json.loads(stdout)


def _check_solve(cmd, rc: int, stdout: str, stderr: str) -> Outcome:
    exp = cmd.expect
    known = exp.get("known_failure")
    if rc == 2:
        if known is None:
            return Outcome(failed=True, wrong=True, note="unexpected exit 2: "
                           + stderr.strip()[-200:])
        matched = exp["reason"] in stderr
        return Outcome(failed=True, known=known,
                       note=f"known failure ({known})" +
                       ("" if matched else "; message changed: " + stderr.strip()[-200:]))
    if rc not in (0, 1):
        return Outcome(failed=True, wrong=True, note=f"exit {rc}: " + stderr.strip()[-200:])
    cert = json.loads(stdout)
    n, m, family = exp["n"], exp["m"], exp["family"]
    theta = _angle(exp["theta"])
    if abs(cert["theta"] - theta) > 1e-12 or cert["feasible"] != (rc == 0):
        return Outcome(failed=True, wrong=True,
                       note="certificate angle or verdict does not match the exit code")
    if rc == 0:
        resid = gram_residual(cert["witness_state"], family, m, theta)
        if not resid <= GRAM_TOL:
            return Outcome(failed=True, wrong=True,
                           note=f"witness Gram residual {resid:.3e} > {GRAM_TOL:g}")
        return Outcome(results=1, note=f"witness residual {resid:.1e}")
    if family == "sym" and m in (n // 2, (n + 1) // 2):
        # half weight: (n-1)pi/n is necessary, so infeasible needs theta below it
        if theta >= (n - 1) * math.pi / n:
            return Outcome(failed=True, wrong=True,
                           note="infeasible at or above the necessary threshold")
    elif exp["verdict"] != "infeasible":
        return Outcome(failed=True, wrong=True, note="infeasible where a witness is known")
    return Outcome(results=1, note="infeasible verdict consistent with threshold")


def check(cmd, rc: int, stdout: str, stderr: str, reference: dict,
          states: dict) -> Outcome:
    """Judge one command's exit code and output."""
    try:
        return _judge(cmd, rc, stdout, stderr, reference, states)
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(failed=True, wrong=True, note=f"malformed output: {exc!r}")


def _judge(cmd, rc, stdout, stderr, reference, states) -> Outcome:
    if cmd.kind == "solve":
        return _check_solve(cmd, rc, stdout, stderr)
    want_rc = 1 if cmd.kind == "verify" and not cmd.expect["is_ts"] else 0
    if rc != want_rc:
        return Outcome(failed=True, wrong=True,
                       note=f"exit {rc}, expected {want_rc}: " + stderr.strip()[-200:])
    out = parse_output(cmd.kind, stdout)
    if cmd.kind == "verify":
        exp = cmd.expect
        own = gram_residual(states[exp["state"]], exp["family"], exp["m"],
                            _angle(exp["theta"]))
        ok = (out["is_ts"] == exp["is_ts"] == (own < GRAM_TOL)
              and abs(out["max_residual"] - own) <= 1e-9)
        return Outcome(results=int(ok), failed=not ok, wrong=not ok,
                       note=f"residual {out['max_residual']:.3e}, own {own:.3e}")
    if cmd.kind == "beam_mc":
        quad = reference.get(cmd.expect["quadrature"])
        if quad is None:
            return Outcome(failed=True, wrong=True, note="no quadrature reference")
        ok = (abs(out["p_fail_entangled"] - quad["p_fail_entangled"]) <= BEAM_MC_ATOL
              and abs(out["p_fail_unentangled"] - quad["p_fail_unentangled"]) <= BEAM_MC_ATOL
              and abs(out["advantage"] - quad["advantage"]) <= 6 * out["stderr"] + 1e-5)
        return Outcome(results=int(ok), failed=not ok, wrong=not ok,
                       note=f"advantage {out['advantage']:.4e} vs {quad['advantage']:.4e}")
    ref = reference.get(cmd.reference_key())
    if ref is None:
        return Outcome(failed=True, wrong=True, note="no reference value")
    if cmd.kind in ("curve", "inset"):
        # a curve's fourth column names the route, which may change; numbers may not
        ok = _close([[float(v) for v in r[:3]] for r in out],
                    [[float(v) for v in r[:3]] for r in ref], CURVE_ATOL)
        rows = len(out) * (2 if cmd.kind == "curve" else 1)
        return Outcome(results=rows if ok else 0, failed=not ok, wrong=not ok,
                       note=f"{len(out)} rows" + ("" if ok else " differ from reference"))
    if cmd.kind == "beam_quad":
        ok = all(_close(out[k], ref[k], 1e-15, BEAM_QUAD_RTOL)
                 for k in ("p_fail_entangled", "p_fail_unentangled", "advantage"))
    else:
        ok = _close(out, ref, QEC_ATOL)
    return Outcome(results=int(ok), failed=not ok, wrong=not ok,
                   note="" if ok else "differs from reference")
