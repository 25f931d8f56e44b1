"""The three benchmark workloads as lists of `trajsense` command lines.

Each workload makes one layer do most of the work and bypasses the layers the
other two lean on (see README.md for the full layer -> metric map):

* solve-mix   exact LP (`simplex`), closed form and Gram checks (`solver`,
              `qcore`); never reaches `discrim` or `beam`.
* curve-sweep span reduction, PGM, fixed point and vote tails (`discrim`);
              `solver` runs only small closed forms and `simplex` never runs.
* cli-short   many short commands, so import and `cli` set-up dominate;
              `beam`, `rng` and `qec` do the rest.

The case list and the sizes are fixed.  The workload seed sets the order of
the commands, the `beam --seed` value and, for solve cases, the angle within
the case's band (above, below or at its threshold).  Curve grids and inset
angles stay fixed because the work per point moves steeply with the angle.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("solve-mix", "curve-sweep", "cli-short")

INSET_EPSILONS = "1e-1,1e-3,1e-6,1e-9,1e-12"

#: (theta0, w) pairs for the quadrature grid of cli-short.  Seven, so that
#: the median command of cli-short falls among the quadrature runs, not on
#: the edge between them and the quicker qec/verify/solve commands.
BEAM_GRID = ((0.05, 1.0), (0.05, 10.0), (0.3, 1.0), (0.3, 3.0), (0.3, 10.0),
             (1.0, 1.0), (1.0, 10.0))
#: the pair the Monte Carlo run samples; its quadrature value is the reference
BEAM_MC_PAIR = (0.3, 1.0)
BEAM_MC_TRIALS = 1_000_000


@dataclass
class Command:
    """One CLI invocation and what its output is checked against."""

    label: str
    argv: list[str]                 # arguments after `trajsense`, without --out
    kind: str                       # solve | curve | inset | beam_quad | beam_mc | qec | verify
    expect: dict = field(default_factory=dict)

    def reference_key(self) -> str:
        return " ".join(self.argv)


def _angle(rng: random.Random, lo_pi: float, hi_pi: float) -> float:
    """Uniform angle in [lo_pi*pi, hi_pi*pi]."""
    return rng.uniform(lo_pi, hi_pi) * math.pi


def _solve(family: str, n: int, m: int, theta, verdict: str, band: str,
           known_failure: str | None = None, reason: str | None = None,
           method: str | None = None) -> Command:
    text = theta if isinstance(theta, str) else repr(theta)
    argv = ["solve", "--family", family, "--n", str(n), "--m", str(m),
            "--theta", text, "--format", "json"]
    if method:
        argv += ["--method", method]
    return Command(f"solve {family}({n},{m}) {band} theta={text}", argv, "solve",
                   {"family": family, "n": n, "m": m, "theta": text,
                    "verdict": verdict, "known_failure": known_failure,
                    "reason": reason})


def solve_mix(rng: random.Random) -> list[Command]:
    return [
        _solve("sym", 4, 2, "3pi/4", "feasible", "at"),
        _solve("sym", 8, 4, _angle(rng, 0.90, 0.98), "feasible", "above 7pi/8"),
        _solve("sym", 8, 4, _angle(rng, 0.80, 0.86), "infeasible", "below 7pi/8"),
        _solve("sym", 10, 5, "9pi/10", "feasible", "at"),
        # 2^16 closed form plus a dense 120-member Gram
        _solve("sym", 16, 2, _angle(rng, 0.90, 0.92), "feasible", "above 0.9pi"),
        _solve("cyc", 9, 3, "2pi/3", "feasible", "at"),
        _solve("cyc", 12, 3, "2pi/3", "feasible", "at"),
        _solve("cyc", 12, 4, "2pi/3", "feasible", "at"),
        _solve("cyc", 10, 5, _angle(rng, 0.47, 0.49), "infeasible", "below pi/2"),
        # Inputs that fail today.  They stay in the workload so that
        # `failed` shows them; each carries the reason it failed when this
        # benchmark was added and a fragment of the message it exits 2 with.
        _solve("sym", 2, 1, math.pi / 2 - rng.uniform(1.1e-9, 1.9e-9), "infeasible",
               "just below pi/2", "tolerance",
               "internal disagreement: constructive=True lp=False"),
        _solve("sym", 12, 6, "11pi/12", "feasible", "at", "size cap",
               "pairwise verification too large"),
        _solve("sym", 16, 8, _angle(rng, 0.94, 0.99), "feasible", "above 15pi/16",
               "size cap", "pairwise verification too large"),
        _solve("cyc", 8, 2, _angle(rng, 0.64, 0.66), "feasible", "below 2pi/3",
               "route disagreement",
               "internal disagreement: constructive=False lp=True"),
    ]


def _curve(family: str, n: int, m: int, points: int, classical: str | None = None) -> Command:
    argv = ["curve", "--family", family, "--n", str(n), "--m", str(m),
            "--points", str(points), "--format", "csv"]
    if classical:
        argv += ["--classical", classical]
    return Command(f"curve {family}({n},{m}) {points} points"
                   + (f" {classical}" if classical else ""), argv, "curve")


def _inset(family: str, n: int, m: int, theta: str) -> Command:
    argv = ["curve", "--inset", "--family", family, "--n", str(n), "--m", str(m),
            "--theta", theta, "--epsilons", INSET_EPSILONS, "--format", "csv"]
    return Command(f"inset {family}({n},{m}) theta={theta}", argv, "inset")


def curve_sweep(rng: random.Random) -> list[Command]:
    return [
        _curve("sym", 6, 3, 25),
        _curve("sym", 4, 2, 40),
        _curve("cyc", 8, 2, 13),
        _curve("sym", 3, 1, 5, "classical_best"),     # product-grid search
        _inset("sym", 4, 2, "3pi/4"),                 # k=6: enumeration voting
        _inset("cyc", 8, 2, "0.7pi"),                 # k=8: vote-tail DP
    ]


def _beam(theta0: float, w: float, seed: int | None = None) -> Command:
    argv = ["beam", "--theta0", repr(theta0), "--w", repr(w), "--format", "json"]
    if seed is None:
        return Command(f"beam quadrature theta0={theta0} w={w}",
                       argv + ["--mode", "quadrature"], "beam_quad")
    return Command(f"beam mc theta0={theta0} w={w} seed={seed}",
                   argv + ["--mode", "mc", "--trials", str(BEAM_MC_TRIALS),
                           "--seed", str(seed)], "beam_mc",
                   {"quadrature": " ".join(argv + ["--mode", "quadrature"])})


def cli_short(rng: random.Random, state_dir: str) -> list[Command]:
    cmds = [_beam(t0, w) for t0, w in BEAM_GRID]
    cmds.append(_beam(*BEAM_MC_PAIR, seed=rng.randrange(1, 2**31)))
    cmds += [Command(f"qec {c}", ["qec", "--check", c, "--format", "json"], "qec")
             for c in ("all", "window", "steane")]
    for name, is_ts in (("bell", True), ("plus", False)):
        cmds.append(Command(
            f"verify {name} sym(2,1) theta=pi/2",
            ["verify", "--state", f"{state_dir}/{name}.json", "--family", "sym",
             "--n", "2", "--m", "1", "--theta", "pi/2", "--format", "json"],
            "verify", {"state": name, "is_ts": is_ts, "family": "sym", "n": 2,
                       "m": 1, "theta": "pi/2"}))
    cmds.append(_solve("sym", 2, 1, _angle(rng, 0.55, 0.95), "feasible",
                       "above pi/2", method="closed"))
    return cmds


def build(name: str, seed: int, state_dir: str) -> list[Command]:
    """The workload's commands for this seed, in the seeded order."""
    rng = random.Random(f"{name}:{seed}")
    if name == "solve-mix":
        cmds = solve_mix(rng)
    elif name == "curve-sweep":
        cmds = curve_sweep(rng)
    elif name == "cli-short":
        cmds = cli_short(rng, state_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(cmds)
    return cmds


def verify_states() -> dict[str, dict]:
    """State files for `verify`: a sensing state and a product state that is not one."""
    h = 0.5 ** 0.5
    return {
        "bell": {"n": 2, "amps": {"01": [h, 0.0], "10": [h, 0.0]}},
        "plus": {"n": 2, "amps": {b: [0.5, 0.0] for b in ("00", "01", "10", "11")}},
    }
