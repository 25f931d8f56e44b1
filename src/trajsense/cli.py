"""Command-line front end.

Subcommands map onto the library layers: `solve` (feasibility certificates),
`curve` (failure-probability sweeps and the repetition inset), `beam` (the
Gaussian-beam comparison), `qec` (code checks), and `verify` (test a state
file against a trajectory family).  Exit codes: 0 success/feasible,
1 infeasible or failed check, 2 usage or input error.

Angles may be given in radians ("2.356") or as exact pi fractions ("3pi/4"),
so threshold boundaries don't depend on decimal rounding.  Commands that
sample take a mandatory --seed; a fixed seed and config reproduces output
files byte for byte.  With --out DIR the primary artifacts land in DIR next
to a manifest recording the configuration; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import datetime
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import beam, discrim, qcore, qec, solver, trajset

_ANGLE_RE = re.compile(r"^(\d+(?:\.\d+)?)?\s*\*?\s*pi(?:\s*/\s*(\d+(?:\.\d+)?))?$",
                       re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Radians from '2.356', '3pi/4', 'pi/2', '0.95pi', or 'pi'."""
    s = text.strip()
    m = _ANGLE_RE.match(s)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        return num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


#: --family choices and the generator each one names
_FAMILIES = {"sym": trajset.gen_symmetric, "cyc": trajset.gen_cyclic}


def _git_describe() -> str:
    """`git describe` of the checkout this package runs from, else "unknown"."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _json(obj) -> str:
    """The text of every JSON artifact: sorted keys, two-space indent, one final newline."""
    return qcore.indented_json(obj) + "\n"


def _write_manifest(outdir: Path, args: argparse.Namespace) -> None:
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "git_describe": _git_describe(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (outdir / "manifest.json").write_text(_json(manifest))


def _emit(args, payload, filename: str, summary: str) -> None:
    """Write a primary artifact (and the manifest) only under --out.

    `payload()` returns the artifact: a dict for a .json file, which `_json`
    writes, or the finished text of a .csv file.  It runs only when the
    artifact is written or printed: a large witness takes seconds to
    serialize.  Stdout gets a JSON artifact itself under --format json, else
    the summary.
    """
    is_json = filename.endswith(".json")
    printed = args.format == "json" and is_json
    if printed or args.out is not None:
        text = _json(payload()) if is_json else payload()
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / filename).write_text(text, newline="")
        _write_manifest(outdir, args)
    sys.stdout.write(text if printed else summary + "\n")


# ---------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    theta = parse_angle(args.theta)
    ts = _FAMILIES[args.family](args.n, args.m)
    problem = solver.TSProblem(ts, theta)
    # "closed" = the family's constructive route (symmetrized closed form
    # for sym, tensor composition for cyc, the LP where neither applies);
    # "lp" = the independent check
    if args.method == "lp":
        cert = solver.solve_lp(problem)
    else:
        cert = solver.solve(problem)
        if args.method == "both" and cert.method != "lp":
            lp = solver.solve_lp(problem)
            if bool(cert.feasible) != bool(lp.feasible):
                print(f"internal disagreement: constructive={cert.feasible} "
                      f"lp={lp.feasible}", file=sys.stderr)
                return 2
            cert.detail = (cert.detail + "; " if cert.detail else "") + "lp route agrees"
    summary = (f"{args.family}({args.n},{args.m}) at theta={theta:.6f}: "
               f"{'feasible' if cert.feasible else 'infeasible'}"
               + (" (marginal)" if cert.marginal else ""))
    _emit(args, cert.to_dict, "certificate.json", summary)
    return 0 if cert.feasible else 1


# ---------------------------------------------------------------- curve

def cmd_curve(args) -> int:
    ts = _FAMILIES[args.family](args.n, args.m)
    if args.inset:
        theta = parse_angle(args.theta) if args.theta else 3 * math.pi / 4
        eps = [float(e) for e in args.epsilons.split(",")]
        if any(not 0 < e < 1 for e in eps):
            raise ValueError("epsilons must lie in (0,1)")
        classical = discrim.classical_baseline(ts, theta)
        cert = solver.solve(solver.TSProblem(ts, theta))
        if not cert.feasible:
            raise ValueError(f"no feasible sensing state at theta={theta:.4f}")
        quantum = discrim.optimal_measurement(
            discrim.make_ensemble(cert.witness_state, ts, theta))
        table = discrim.repetition_csv(eps, discrim.repetition_analysis(classical, eps),
                                       discrim.repetition_analysis(quantum, eps))
        filename, what = "inset.csv", "repetition table"
    else:
        lo = parse_angle(args.theta_min) if args.theta_min else 0.0
        hi = parse_angle(args.theta_max) if args.theta_max else math.pi
        if not (0.0 <= lo < hi <= math.pi):
            raise ValueError(f"theta grid [{lo:.4f}, {hi:.4f}] must sit inside [0, pi]")
        if args.points < 1:
            raise ValueError(f"--points must be at least 1, got {args.points}")
        grid = np.linspace(lo, hi, args.points)
        table = discrim.curve_csv(discrim.failure_curve(ts, "solver_witness", grid),
                                  discrim.failure_curve(ts, "classical_plus", grid))
        filename, what = "curve.csv", f"{len(grid)}-point failure curve"
    if args.format == "csv":
        # the file keeps csv's \r\n rows; stdout gets plain newlines
        summary = table.replace("\r\n", "\n").rstrip("\n")
    elif args.out is not None:
        summary = f"{what} written to {Path(args.out) / filename}"
    else:
        summary = f"{what} computed; --out DIR writes it, --format csv prints it"
    _emit(args, lambda: table, filename, summary)
    return 0


# ----------------------------------------------------------------- beam

def cmd_beam(args) -> int:
    scenario = beam.BeamScenario(args.theta0, args.w)
    if args.mode == "mc" and args.seed is None:
        raise ValueError("--seed is required for --mode mc")
    row = beam.compare_sensors(scenario, args.mode, args.trials, args.seed)
    ent, un, adv, err = (row.p_fail_entangled, row.p_fail_unentangled,
                         row.advantage, row.stderr)
    report = {
        "theta0": args.theta0, "w": args.w, "mode": args.mode,
        "trials": None if args.mode == "quadrature" else args.trials,
        "seed": None if args.mode == "quadrature" else args.seed,
        "p_fail_entangled": ent, "p_fail_unentangled": un,
        "advantage": adv, "stderr": err,
    }
    summary = (f"theta0={args.theta0} w={args.w}: entangled {ent:.6f}, "
               f"unentangled {un:.6f}, advantage {adv:.3e}"
               + (f" +/- {err:.1e}" if err else ""))
    _emit(args, lambda: report, "beam.json", summary)
    return 0


# ------------------------------------------------------------------ qec

def cmd_qec(args) -> int:
    checks: dict[str, dict] = {}
    if args.check in ("window", "all"):
        state = qec.window_code_state()
        stab = qec.stabilizer_check(state, qec.window_code_group())
        built = solver.build_cyclic(4, 2, math.pi / 2).witness_state
        kl = qec.kl_verify(state, trajset.gen_cyclic(4, 2), math.pi / 2)
        checks["window"] = {
            "stabilized": stab.all_plus_one,
            "matches_builder": qcore.equal_up_to_phase(built, state),
            "kl_verdict": kl.verdict,
            "passed": (stab.all_plus_one
                       and qcore.equal_up_to_phase(built, state)
                       and kl.verdict == "discriminating code"),
        }
    if args.check in ("steane", "all"):
        good = qec.transversal_rotation_check(math.pi / 2)
        control = qec.transversal_rotation_check(math.pi / 3)
        checks["steane"] = {
            "quarter_turn": good.to_dict(),
            "negative_control_fails": not control.passed,
            "passed": good.passed and not control.passed,
        }
    if not checks:
        raise ValueError(f"unknown check {args.check!r}")
    passed = all(c["passed"] for c in checks.values())
    _emit(args, lambda: {"checks": checks, "passed": passed}, "qec.json",
          f"qec {args.check}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


# --------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    theta = parse_angle(args.theta)
    path = Path(args.state)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read state file {path}: {exc}") from None
    try:
        psi = qcore.ket_from_json(text)
    except (KeyError, ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"malformed state file {path}: {exc}") from None
    ts = _FAMILIES[args.family](args.n, args.m)
    if psi.n != ts.n:
        raise ValueError(f"state has {psi.n} qubits but family needs {ts.n}")
    rep = discrim.verify_ts(psi, ts, theta)
    summary = (f"{path.name} vs {args.family}({args.n},{args.m}) at "
               f"theta={theta:.6f}: "
               + ("TS state" if rep.is_ts else
                  f"not a TS state (residual {rep.max_residual:.3e})"))
    _emit(args, rep.to_dict, "verify.json", summary)
    return 0 if rep.is_ts else 1


# ----------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trajsense",
                                description="trajectory-sensing toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, artifact="json"):
        sp.add_argument("--out", default=None, help="directory for artifacts")
        sp.add_argument("--format", default="text", choices=["text", artifact],
                        help=f"{artifact} prints the artifact to stdout")

    sp = sub.add_parser("solve", help="feasibility certificate for a family")
    sp.add_argument("--family", required=True, choices=_FAMILIES)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--method", default="both", choices=["closed", "lp", "both"])
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("curve", help="failure-probability sweep or inset table")
    sp.add_argument("--family", default="sym", choices=_FAMILIES)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--theta-min", default=None)
    sp.add_argument("--theta-max", default=None)
    sp.add_argument("--points", type=int, default=25)
    sp.add_argument("--classical", default="classical_plus",
                    choices=["classical_plus", "classical_best"],
                    help="both run |+>^n, the optimal unentangled input "
                         "(discrim.classical_baseline); classical_best stays "
                         "accepted for commands that still pass it")
    sp.add_argument("--inset", action="store_true",
                    help="emit repetition counts instead of the curve")
    sp.add_argument("--theta", default=None, help="inset angle")
    sp.add_argument("--epsilons", default="1e-1,1e-2,1e-3,1e-4")
    common(sp, "csv")
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("beam", help="entangled vs unentangled beam sensing")
    sp.add_argument("--theta0", type=float, required=True)
    sp.add_argument("--w", type=float, required=True)
    sp.add_argument("--mode", default="quadrature", choices=["quadrature", "mc"])
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_beam)

    sp = sub.add_parser("qec", help="stabilizer and transversality checks")
    sp.add_argument("--check", default="all", choices=["window", "steane", "all"])
    common(sp)
    sp.set_defaults(func=cmd_qec)

    sp = sub.add_parser("verify", help="test a state file against a family")
    sp.add_argument("--state", required=True)
    sp.add_argument("--family", required=True, choices=_FAMILIES)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--theta", required=True)
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
