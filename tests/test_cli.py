"""CLI behavior: exit codes, file outputs, determinism, error paths."""
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import trajsense
from trajsense import beam, cli, discrim, qcore, simplex, solver, trajset


#: the directory the package is imported from, for subprocesses
_SRC = str(Path(trajsense.__file__).resolve().parents[1])


def run(argv):
    return cli.main(argv)


# ------------------------------------------------------------ angle parsing

@pytest.mark.parametrize("text,value", [
    ("3pi/4", 3 * math.pi / 4),
    ("pi/2", math.pi / 2),
    ("pi", math.pi),
    ("2pi/3", 2 * math.pi / 3),
    ("0.95pi", 0.95 * math.pi),
    ("1.25", 1.25),
    ("PI/2", math.pi / 2),
])
def test_parse_angle(text, value):
    assert cli.parse_angle(text) == pytest.approx(value, abs=0)


def test_parse_angle_rejects_garbage():
    for bad in ("", "pie", "pi/0", "3pi/4/5", "two"):
        with pytest.raises(ValueError):
            cli.parse_angle(bad)


def test_boundary_angle_is_exact():
    # the whole point of fraction syntax: no decimal rounding at thresholds
    assert cli.parse_angle("3pi/4") == 3 * math.pi / 4


# ------------------------------------------------------------------- solve

def test_solve_feasible_exit_zero(tmp_path, capsys):
    code = run(["solve", "--family", "sym", "--n", "4", "--m", "2",
                "--theta", "3pi/4", "--out", str(tmp_path)])
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["feasible"] is True
    assert "lp route agrees" in cert["detail"]
    assert (tmp_path / "manifest.json").exists()


def test_solve_infeasible_exit_one(capsys):
    assert run(["solve", "--family", "sym", "--n", "4", "--m", "2",
                "--theta", "2.0"]) == 1


def test_solve_cyclic_at_threshold(capsys):
    assert run(["solve", "--family", "cyc", "--n", "4", "--m", "2",
                "--theta", "pi/2"]) == 0


def test_solve_json_on_stdout(capsys):
    code = run(["solve", "--family", "sym", "--n", "3", "--m", "1",
                "--theta", "2pi/3", "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["feasible"] is True


def test_solve_text_never_builds_the_certificate_json(capsys, monkeypatch):
    """Without --out or --format json nothing reads the artifact, so it is not built."""
    calls = []
    to_dict = solver.FeasibilityCertificate.to_dict
    monkeypatch.setattr(solver.FeasibilityCertificate, "to_dict",
                        lambda self: calls.append(1) or to_dict(self))
    argv = ["solve", "--family", "sym", "--n", "4", "--m", "2", "--theta", "3pi/4"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "sym(4,2) at theta=2.356194: feasible\n"
    assert calls == []
    assert run(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert calls == [1]


def test_solve_lp_only_method(capsys):
    assert run(["solve", "--family", "sym", "--n", "4", "--m", "2",
                "--theta", "3pi/4", "--method", "lp"]) == 0


def test_undecided_lp_verdict_exits_2(capsys, monkeypatch):
    """A bracket that straddles FEAS_TOL is no verdict: exit 2, nothing on stdout."""
    monkeypatch.setattr(simplex, "_float_phase1", lambda A, b: None)
    assert run(["solve", "--family", "sym", "--n", "4", "--m", "2",
                "--theta", "3pi/4", "--method", "lp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: LP verdict undecided: exact phase-1 infeasibility in "
                   "[0.000e+00, 1.000e+00] straddles FEAS_TOL = 1e-09\n")


@pytest.mark.parametrize("method", [[], ["--method", "closed"]], ids=["both", "closed"])
def test_just_below_the_necessary_threshold_is_infeasible(method, capsys):
    """sym(2,1) 1.5e-9 below pi/2: the closed form's certified bracket says
    infeasible, as the LP's does, so the routes agree and nothing goes to stderr."""
    assert run(["solve", "--family", "sym", "--n", "2", "--m", "1",
                "--theta", "1.5707963252948966"] + method) == 1
    out, err = capsys.readouterr()
    assert out == "sym(2,1) at theta=1.570796: infeasible\n"
    assert err == ""


def test_both_runs_the_lp_once_where_it_is_the_only_route(capsys, monkeypatch):
    """Where `solve` itself ends in the LP there is nothing for the LP to agree with:
    cyc(5,2) has no constructive route (5 mod 2 != 0), and cyc(8,2) at 0.65pi lies
    below threshold_cyc(4), where the composition does not decide."""
    solve_lp = solver.solve_lp
    for n, m, theta in (("5", "2", "pi"), ("8", "2", "0.65pi")):
        calls = []
        monkeypatch.setattr(solver, "solve_lp",
                            lambda problem: calls.append(1) or solve_lp(problem))
        code = run(["solve", "--family", "cyc", "--n", n, "--m", m, "--theta", theta,
                    "--format", "json"])
        cert = json.loads(capsys.readouterr().out)
        assert code == (0 if cert["feasible"] else 1)
        assert calls == [1]
        assert cert["method"] == "lp"
        assert "lp route agrees" not in cert["detail"]
    assert cert["feasible"] and cert["max_residual"] < 1e-12


def test_usage_errors_exit_two(capsys):
    assert run(["solve", "--family", "sym", "--n", "4", "--theta", "1"]) == 2
    assert run(["bogus"]) == 2
    capsys.readouterr()
    # --family takes sym or cyc on every command that builds a family
    for argv in (["solve", "--family", "nope", "--n", "4", "--m", "2", "--theta", "1"],
                 ["curve", "--family", "nope"],
                 ["verify", "--state", "bell.json", "--family", "nope", "--n", "2",
                  "--m", "1", "--theta", "1"]):
        assert run(argv) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,refused,valid", [
    (["solve", "--family", "sym", "--n", "2", "--m", "1", "--theta", "pi/2"], "csv", "json"),
    (["curve", "--points", "3"], "json", "csv"),
    (["beam", "--theta0", "0.3", "--w", "1.0"], "csv", "json"),
    (["qec", "--check", "window"], "csv", "json"),
    (["verify", "--state", "{state}", "--family", "sym", "--n", "2", "--m", "1",
      "--theta", "pi/2"], "csv", "json"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_format_takes_only_the_artifact_format(argv, refused, valid, tmp_path, capsys):
    """--format is text or the one format the command's artifact has; argparse names both."""
    argv = [a.format(state=bell_file(tmp_path)) for a in argv]
    assert run(argv + ["--format", refused]) == 2
    assert (f"invalid choice: '{refused}' (choose from 'text', '{valid}')"
            in capsys.readouterr().err)
    assert run(argv + ["--format", valid]) == 0


def test_cyclic_width_of_the_whole_register_exits_two(capsys):
    """At m = n > 1 every window is the whole register; the message names m < n."""
    assert run(["solve", "--family", "cyc", "--n", "3", "--m", "3", "--theta", "pi"]) == 2
    assert "needs window width 1 <= m < n (m = 1 for n = 1), got m=3, n=3" \
        in capsys.readouterr().err


@pytest.mark.parametrize("n,m,theta", [(12, 6, "11pi/12"), (16, 8, "0.96pi")])
def test_solve_certifies_beyond_the_dense_cap(n, m, theta, capsys):
    """|T|^2 * 2^n is above 2e9 here; the witness passes a Gram check done in the test."""
    assert run(["solve", "--family", "sym", "--n", str(n), "--m", str(m),
                "--theta", theta, "--format", "json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["feasible"] is True and cert["max_residual"] <= 1e-12
    amps = np.zeros(1 << n, dtype=complex)
    for bits, (re, im) in cert["witness_state"]["amps"].items():
        amps[int(bits, 2)] = complex(re, im)
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    members = random.Random(0).sample(list(itertools.combinations(range(n), m)), 40)
    outs = np.exp(1j * cli.parse_angle(theta) * bits[:, members].sum(axis=2)).T * amps
    gram = outs.conj() @ outs.T
    assert np.abs(gram - np.eye(len(members))).max() < 1e-8


@pytest.mark.parametrize("family,m,theta", [("sym", 10, "0.97pi"), ("cyc", 4, "0.8pi")])
def test_default_solve_certifies_at_n_max(family, m, theta, capsys, monkeypatch):
    """sym(20,10) has 184,756 members and cyc(20,4) is a 2^20 LP: both routes
    certify their witness, read from the certificates the default solve makes."""
    certs = []
    for name in ("solve", "solve_lp"):
        route = getattr(solver, name)
        monkeypatch.setattr(solver, name,
                            lambda problem, route=route: certs.append(route(problem)) or certs[-1])
    argv = ["solve", "--family", family, "--n", str(qcore.N_MAX), "--m", str(m), "--theta", theta]
    assert run(argv) == 0
    assert capsys.readouterr().out.endswith(": feasible\n")
    assert [c.method for c in certs] == [
        "closed_form" if family == "sym" else "tensor_composition", "lp"]
    assert all(c.feasible and c.max_residual <= 1e-12 for c in certs)


# ------------------------------------------------------------------- curve

def test_curve_writes_two_columns(tmp_path, capsys):
    code = run(["curve", "--family", "sym", "--n", "4", "--m", "2",
                "--points", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "theta,p_fail_quantum,p_fail_classical,method"
    assert len(lines) == 6
    # theta = 0 row: both arms at the random-guess rate 5/6
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(5 / 6)
    assert float(first[2]) == pytest.approx(5 / 6)
    # last row is theta = pi: quantum exactly solvable
    last = lines[-1].split(",")
    assert float(last[1]) < 1e-9


def test_curve_grid_bounds_rejected(capsys):
    assert run(["curve", "--theta-max", "3.5"]) == 2
    assert run(["curve", "--theta-min", "-0.1"]) == 2
    for points in ("0", "-3"):
        capsys.readouterr()
        assert run(["curve", "--points", points, "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--points must be at least 1, got {points}" in err


def test_curve_points_over_the_phase_cap_exits_2(capsys, monkeypatch):
    """A grid of more than PHASE_CAP points is refused before `np.linspace`
    allocates it (1e11 points once raised numpy's _ArrayMemoryError)."""
    def no_grid(*args, **kwargs):
        raise AssertionError("allocated the grid")
    monkeypatch.setattr(np, "linspace", no_grid)
    for points in (str(trajset.PHASE_CAP + 1), "100000000000"):
        assert run(["curve", "--points", points, "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--points {points} > PHASE_CAP = {trajset.PHASE_CAP}" in err


def test_curve_over_the_screen_cap_exits_2(capsys, monkeypatch):
    """The below-onset screen holds C <= n//2 + 2 generator Grams and a block of
    C candidate Grams, 2 C k^2 entries; `curve` refuses more than PHASE_CAP of
    them before any work.  Of the sym and cyc families with n <= N_MAX inside
    the phase cap, that refuses sym(14, 5..9) alone, whose Grams at C = 9
    would take 3.4 GB for sym(14,7).  The inset, which has no screen, is not
    refused by it."""
    def no_work(*args, **kwargs):
        raise AssertionError("worked before the cap check")
    monkeypatch.setattr(np, "linspace", no_work)
    monkeypatch.setattr(discrim, "failure_curve", no_work)
    assert run(["curve", "--family", "sym", "--n", "14", "--m", "7", "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: below-onset screen too large: 2 x 9 Grams of 3432^2 "
                                 f"entries > PHASE_CAP = {trajset.PHASE_CAP} elements\n")
    monkeypatch.setattr(discrim, "classical_baseline", no_work)
    with pytest.raises(AssertionError, match="worked"):
        run(["curve", "--inset", "--family", "sym", "--n", "14", "--m", "7"])
    monkeypatch.undo()
    monkeypatch.setattr(discrim, "failure_curve", lambda ts, grid: [])
    refused = []
    for family, n in itertools.product(("sym", "cyc"), range(1, qcore.N_MAX + 1)):
        for m in range(0, n + 1) if family == "sym" else range(1, max(n, 2)):
            if run(["curve", "--family", family, "--n", str(n), "--m", str(m)]) == 2:
                err = capsys.readouterr().err
                assert "phase matrix too large" in err or "screen too large" in err
                refused += [(family, n, m)] if "screen too large" in err else []
    assert refused == [("sym", 14, m) for m in range(5, 10)]


@pytest.mark.parametrize("argv", [["--points", "2"], ["--inset"]], ids=["curve", "inset"])
def test_curve_over_the_phase_cap_exits_2(argv, capsys, monkeypatch):
    """sym(16,8) needs a 12870 x 2^16 phase matrix; it is refused before any solve."""
    def no_solve(problem):
        raise AssertionError("solved before the cap check")
    monkeypatch.setattr(solver, "solve", no_solve)
    for n, m, k in [(16, 8, 12870), (20, 10, 184756)]:
        assert run(["curve", "--family", "sym", "--n", str(n), "--m", str(m), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: phase matrix too large: {k} trajectories x 2^{n}")
        assert "PHASE_CAP" in err


def test_curve_inset_table(tmp_path, capsys):
    code = run(["curve", "--inset", "--theta", "3pi/4",
                "--epsilons", "1e-1,1e-2,1e-3", "--out", str(tmp_path),
                "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "epsilon,r_classical,r_quantum"
    rows = [line.split(",") for line in out[1:]]
    # quantum sensor needs one shot at every epsilon
    assert all(r[2] == "1" for r in rows)
    # classical count grows with the accuracy demand
    assert int(rows[-1][1]) >= int(rows[0][1])
    assert (tmp_path / "inset.csv").exists()


def test_classical_flag_spellings_print_the_same_bytes(capsys):
    """Both --classical choices run |+>^n, the optimal unentangled input, also
    at n >= 11, where a product-grid search once refused to run."""
    for argv in (["curve", "--family", "sym", "--n", "3", "--m", "1", "--points", "5"],
                 ["curve", "--inset", "--family", "sym", "--n", "4", "--m", "2",
                  "--theta", "3pi/4"],
                 ["curve", "--inset", "--family", "sym", "--n", "12", "--m", "1",
                  "--theta", "11pi/12"]):
        outs = []
        for flag in ([], ["--classical", "classical_plus"],
                     ["--classical", "classical_best"]):
            assert run(argv + ["--format", "csv"] + flag) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].count("\n") > 1 and outs[1:] == outs[:1] * 2


@pytest.mark.parametrize("family,n,m,theta,r_classical", [
    ("sym", "4", "2", "3pi/4", [1, 3, 7, 11, 14]),
    ("cyc", "8", "2", "0.7pi", [1, 4, 8, 13, 17]),
], ids=["sym42", "cyc82"])
def test_benchmark_insets_pinned(capsys, family, n, m, theta, r_classical):
    """The two curve-sweep insets, byte for byte: one shot quantum, log(1/eps) classical."""
    eps = ["0.1", "0.001", "1e-06", "1e-09", "1e-12"]
    assert run(["curve", "--inset", "--family", family, "--n", n, "--m", m,
                "--theta", theta, "--epsilons", "1e-1,1e-3,1e-6,1e-9,1e-12",
                "--format", "csv"]) == 0
    assert capsys.readouterr().out == "epsilon,r_classical,r_quantum\n" + "".join(
        f"{e},{r},1\n" for e, r in zip(eps, r_classical))


_INSET_EPS = ["--epsilons", "1e-1,1e-3,1e-6,1e-9,1e-12", "--format", "csv"]


@pytest.mark.parametrize("argv,digest", [
    (["--family", "sym", "--n", "6", "--m", "3", "--points", "25", "--format", "csv"],
     "171915b1f186529fccac9c343c47361f5015695f9b1f6371ff570a44e27e1b0a"),
    (["--family", "sym", "--n", "4", "--m", "2", "--points", "40", "--format", "csv"],
     "7b065c7410108eb2245142cab47e08ee688aa87561abed898d5f2ffafdf3e018"),
    (["--family", "cyc", "--n", "8", "--m", "2", "--points", "13", "--format", "csv"],
     "e8347ec02216d5f9a110c11218f3e38dc1f3011f0b2d7b61a3a10df585a65230"),
    (["--family", "sym", "--n", "3", "--m", "1", "--points", "5", "--format", "csv",
      "--classical", "classical_best"],
     "1c3221cc881e584966e817133b29404c66d0e15811b131cf3c79ba93daed5a8d"),
    (["--inset", "--family", "sym", "--n", "4", "--m", "2", "--theta", "3pi/4"] + _INSET_EPS,
     "e54c012afe2789a43b3bc67a96a64ff72034ecaccd7a5b0f24d2df2b976c94b1"),
    (["--inset", "--family", "cyc", "--n", "8", "--m", "2", "--theta", "0.7pi"] + _INSET_EPS,
     "c4cc2d4d04402d390e410e3ff8d89e6047e8c0eb854c1f0386d1fca88f15a1f4"),
    (["--inset", "--family", "sym", "--n", "8", "--m", "4", "--theta", "7pi/8",
      "--epsilons", "1e-6,1e-9", "--format", "csv"],      # 1e-06,5,1 and 1e-09,7,1
     "5c4896994cc0df3f5a2745a9e9f2c9a29dc9c4a3ec7b403d53aa84a81554afee"),
], ids=["sym63", "sym42", "cyc82", "sym31-best", "inset-sym42", "inset-cyc82", "inset-sym84"])
def test_curve_sweep_stdout_pinned(argv, digest, capsys):
    """The benchmark's curve-sweep commands print these bytes (sha256 of stdout), and
    a 70-category inset, where the vote tail DP has the most categories."""
    assert run(["curve"] + argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,n,m", [("cyc", "1", "1"), ("sym", "3", "0"),
                                          ("sym", "3", "3")])
def test_single_member_curve_and_inset(tmp_path, capsys, family, n, m):
    # cyc(1,1) has kappa = 1: no tensor composition, solve takes the LP route
    base = ["curve", "--family", family, "--n", n, "--m", m, "--out", str(tmp_path)]
    assert run(base + ["--points", "3"]) == 0
    capsys.readouterr()
    assert run(base + ["--inset", "--theta", "pi/2", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[1:] for row in rows] == [["1", "1"]] * 4      # one shot


def test_curve_inset_bad_epsilons(capsys):
    assert run(["curve", "--inset", "--epsilons", "0.5,2.0"]) == 2


def test_curve_without_out_writes_no_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["curve", "--points", "3", "--format", "csv"]) == 0
    curve = capsys.readouterr().out
    assert run(["curve", "--inset", "--epsilons", "1e-1,1e-2", "--format", "csv"]) == 0
    inset = capsys.readouterr().out
    assert run(["curve", "--points", "3"]) == 0
    assert "--out" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert curve.splitlines()[0] == "theta,p_fail_quantum,p_fail_classical,method"
    assert len(curve.splitlines()) == 4 and "\r" not in curve
    assert inset.splitlines()[0] == "epsilon,r_classical,r_quantum"
    assert len(inset.splitlines()) == 3 and "\r" not in inset


def test_curve_out_file_is_stdout_table_with_crlf(tmp_path, capsys):
    assert run(["curve", "--points", "3", "--format", "csv", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    data = (tmp_path / "curve.csv").read_bytes()
    assert data.count(b"\r\n") == 4
    assert data.replace(b"\r\n", b"\n") == out.encode()
    assert (tmp_path / "manifest.json").exists()


# -------------------------------------------------------------------- beam

def test_beam_quadrature_reports_positive_advantage(tmp_path, capsys):
    code = run(["beam", "--theta0", "0.05", "--w", "10",
                "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["advantage"] > 0
    assert rep["mode"] == "quadrature"
    assert json.loads((tmp_path / "beam.json").read_text()) == rep


def test_beam_quadrature_reports_no_seed(capsys):
    # quadrature draws nothing, so a --seed it was given is not reported
    assert run(["beam", "--theta0", "0.3", "--w", "1.0", "--seed", "7",
                "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["mode"] == "quadrature"
    assert rep["seed"] is None and rep["trials"] is None


def test_beam_mc_requires_seed(capsys):
    assert run(["beam", "--theta0", "0.1", "--w", "5", "--mode", "mc",
                "--trials", "1000"]) == 2


def test_beam_mc_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["beam", "--theta0", "0.1", "--w", "5", "--mode", "mc",
                    "--trials", "2000", "--seed", "9", "--out", str(d)]) == 0
    assert (a / "beam.json").read_bytes() == (b / "beam.json").read_bytes()
    c = tmp_path / "c"
    assert run(["beam", "--theta0", "0.1", "--w", "5", "--mode", "mc",
                "--trials", "2000", "--seed", "10", "--out", str(c)]) == 0
    assert (a / "beam.json").read_bytes() != (c / "beam.json").read_bytes()


# (argv, reported floats) of seeded --format json runs, recorded before the
# two sensors shared one blocked pass over the lines; the bytes must not move
_BEAM_PINNED = [
    (["--theta0", "0.05", "--w", "10", "--mode", "mc", "--trials", "100000",
      "--seed", "7"],
     {"advantage": 0.00010907590351865511, "p_fail_entangled": 0.7498881418602008,
      "p_fail_unentangled": 0.7499972177637195, "stderr": 2.0283931762883558e-07}),
    (["--theta0", "0.05", "--w", "10", "--mode", "quadrature"],
     {"advantage": 0.00010925198582090179, "p_fail_entangled": 0.7498879612902655,
      "p_fail_unentangled": 0.7499972132760864, "stderr": 0.0}),
    (["--theta0", "0.3", "--w", "1.0", "--mode", "mc", "--trials", "1000000",
      "--seed", "12345"],
     {"advantage": 0.04182188897987825, "p_fail_entangled": 0.7035108173063833,
      "p_fail_unentangled": 0.7453327062862616, "stderr": 2.437651276905639e-05}),
]


@pytest.mark.parametrize("argv,floats", _BEAM_PINNED,
                         ids=["readme-mc", "readme-quadrature", "mc-1e6"])
def test_beam_seeded_json_stdout_pinned(argv, floats, capsys):
    assert run(["beam", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    opts = dict(zip(argv[::2], argv[1::2]))
    mc = opts["--mode"] == "mc"
    want = {"theta0": float(opts["--theta0"]), "w": float(opts["--w"]),
            "mode": opts["--mode"], "trials": int(opts["--trials"]) if mc else None,
            "seed": int(opts["--seed"]) if mc else None, **floats}
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("trials", ["0", "1", "10000001"])
def test_beam_mc_rejects_too_few_trials(trials, capsys, monkeypatch):
    """Trial counts outside [2, MC_TRIALS_MAX] exit 2 before any line is drawn."""
    def no_draws(*args, **kwargs):
        raise AssertionError("lines drawn before the trial count was checked")
    monkeypatch.setattr(beam.rng, "uniforms", no_draws)
    assert run(["beam", "--theta0", "0.1", "--w", "5", "--mode", "mc",
                "--trials", trials, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = "at least 2 trials" if int(trials) < 2 else f"at most {beam.MC_TRIALS_MAX} trials"
    assert limit in captured.err


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_beam_mc_rejects_out_of_range_seed(seed, capsys):
    assert run(["beam", "--theta0", "0.1", "--w", "5", "--mode", "mc",
                "--trials", "100", "--seed", seed]) == 2
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err


def test_beam_rejects_bad_scenario(capsys):
    assert run(["beam", "--theta0", "-1", "--w", "5"]) == 2


# --------------------------------------------------------------------- qec

def test_qec_all_checks_pass(tmp_path, capsys):
    code = run(["qec", "--check", "all", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "qec.json").read_text())
    assert rep["passed"] is True
    assert rep["checks"]["window"]["kl_verdict"] == "discriminating code"
    assert rep["checks"]["steane"]["negative_control_fails"] is True


def test_qec_single_check(capsys):
    assert run(["qec", "--check", "steane"]) == 0
    assert run(["qec", "--check", "window"]) == 0


# ------------------------------------------------------------------ verify

def bell_file(tmp_path):
    bell = qcore.make_ket(2, [("01", 1), ("10", 1)])
    p = tmp_path / "bell.json"
    p.write_text(json.dumps(oracles.ket_to_dict(bell)))
    return p


def test_verify_ts_state(tmp_path, capsys):
    p = bell_file(tmp_path)
    code = run(["verify", "--state", str(p), "--family", "sym", "--n", "2",
                "--m", "1", "--theta", "pi/2", "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["is_ts"] is True


def test_verify_rejects_wrong_angle(tmp_path, capsys):
    p = bell_file(tmp_path)
    assert run(["verify", "--state", str(p), "--family", "sym", "--n", "2",
                "--m", "1", "--theta", "0.3"]) == 1


@pytest.mark.parametrize("text,n,names", [
    ("{this is not json", "2", None),
    ('{"n": 2, "amps": [1, 2]}', "2", None),
    ('{"n": 2, "amps": {"01": [NaN, 0], "10": [1, 0]}}', "2", None),
    ('{"n": 2, "amps": {"01": [1e200, 0], "10": [1e200, 0]}}', "2", None),   # the norm overflows
    ('{"n": true, "amps": {"1": [1, 0]}}', "1", None),
    ('{"n": 2, "amps": {"01": [true, 0], "10": [1, 0]}}', "2", "'01'"),
    ('{"n": 2, "amps": {"01": ["1", 0], "10": [1, 0]}}', "2", "'01'"),
    ('{"n": 2, "amps": {"10": [1, 0], "01": [1]}}', "2", "'01'"),
    ('{"n": 2, "amps": {"01": [1, 0, 0], "10": [1, 0]}}', "2", "'01'"),
    ('{"n": 2, "amps": {"01": null, "10": [1, 0]}}', "2", "'01'"),
    ('{"n": 2, "amps": {"01": "ab", "10": [1, 0]}}', "2", "'01'"),
    ('{"n": 2, "amps": {"01": {"re": 1}, "10": [1, 0]}}', "2", "'01'"),
    ('{"n": 2, "amps": {"01": [1, 0], "10": [1%s, 0]}}' % ("0" * 400), "2",  # beyond a float
     "too large"),
    ('{"n": 2, "amps": {"01": [1, 0], "-1": [1, 0]}}', "2", "'-1'"),
    ('{"n": 2, "amps": {"01": [1, 0], "+1": [1, 0]}}', "2", "'+1'"),
    ('{"n": 3, "amps": {"011": [1, 0], "1_0": [1, 0]}}', "3", "'1_0'"),
    ('{"n": 2, "amps": {"01": [1, 0], "10": [1, 0], "01": [0, 0]}}', "2", "'01'"),
], ids=["not-json", "amps-list", "nan", "norm-overflow", "bool-n", "bool-amp", "str-amp",
        "one-part", "three-parts", "null-amp", "str-pair", "dict-amp", "int-overflow",
        "minus-key", "plus-key", "underscore-key", "repeated-key"])
def test_verify_malformed_file(tmp_path, capsys, text, n, names):
    p = tmp_path / "broken.json"
    p.write_text(text)
    code = run(["verify", "--state", str(p), "--family", "sym", "--n", n,
                "--m", "1", "--theta", "pi/2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "broken.json" in err
    assert names is None or names in err


def test_verify_non_utf8_file_names_it(tmp_path, capsys):
    p = tmp_path / "bin.json"
    p.write_bytes(b"\xff\xfe\x00")
    assert run(["verify", "--state", str(p), "--family", "sym", "--n", "2",
                "--m", "1", "--theta", "pi/2"]) == 2
    assert f"cannot read state file {p}" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert run(["verify", "--state", "/no/such/file.json", "--family", "sym",
                "--n", "2", "--m", "1", "--theta", "pi/2"]) == 2


def test_verify_qubit_mismatch(tmp_path, capsys):
    p = bell_file(tmp_path)
    assert run(["verify", "--state", str(p), "--family", "sym", "--n", "4",
                "--m", "2", "--theta", "pi/2"]) == 2


def test_verify_refusal_names_the_dense_cap(tmp_path, capsys):
    """A state that is not constant on weight classes needs the dense Gram check."""
    p = tmp_path / "one.json"
    p.write_text(json.dumps(oracles.ket_to_dict(qcore.make_ket(12, [("000000000001", 1)]))))
    assert run(["verify", "--state", str(p), "--family", "sym", "--n", "12",
                "--m", "6", "--theta", "pi/2"]) == 2
    err = capsys.readouterr().err
    assert "|T|^2*2^n = 924^2*2^12 = 3.5e+09 > 2e+09" in err


@pytest.mark.parametrize("argv", [
    ["--family", "sym", "--n", "30", "--m", "15", "--theta", "pi"],
    ["--family", "cyc", "--n", "40", "--m", "2", "--theta", "pi", "--method", "lp"],
])
def test_solve_over_the_size_limit_exits_2(capsys, argv):
    """Refused before any member is built: C(30,15) members would take minutes."""
    assert run(["solve", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: qubit count ") and "exceeds N_MAX=20" in err


# ------------------------------------------------------------ json writer

@pytest.mark.parametrize("argv", [
    ["solve", "--family", "sym", "--n", "4", "--m", "2", "--theta", "3pi/4"],
    ["beam", "--theta0", "0.3", "--w", "1.0", "--mode", "mc", "--trials", "100",
     "--seed", "5"],
    ["qec", "--check", "all"],
    ["verify", "--state", "{state}", "--family", "sym", "--n", "2", "--m", "1",
     "--theta", "pi/2"],
], ids=lambda argv: argv[0])
def test_json_artifact_is_stdout_with_one_final_newline(argv, tmp_path, capsys):
    """One writer: sorted two-space JSON and one newline, on stdout and in --out alike."""
    state = bell_file(tmp_path)
    argv = [a.format(state=state) for a in argv]
    out_dir = tmp_path / "out"
    assert run(argv + ["--format", "json", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    artifact, = (f for f in out_dir.iterdir() if f.name != "manifest.json")
    assert artifact.read_bytes() == out.encode()
    manifest = (out_dir / "manifest.json").read_text()
    assert manifest.endswith("}\n") and json.loads(manifest)["command"] == argv[0]


def test_cyc16_curve_runs_in_one_gib():
    """The 3-point cyc(16,4) curve, whose 0.5pi angle lies below the onset,
    screens its 3,004 sweep candidates and the onset witness under a 1 GiB
    address-space limit: it holds them as weights over the 9 weight-class
    indicators and the witness's |psi|^2, so nothing of size P * 2^n (1.47 GiB
    as a (65536, 3004) array) is allocated."""
    import resource

    def limit():          # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    r = subprocess.run([sys.executable, "-m", "trajsense.cli", "curve", "--family", "cyc",
                        "--n", "16", "--m", "4", "--points", "3", "--format", "csv"],
                       capture_output=True, preexec_fn=limit,
                       env={**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": "1",
                            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == \
        "6813e1e78427363c6ab0e429ffc13ee53e239c3e367b237448b1e9e8437184a4"


@pytest.mark.parametrize("argv,digest", [
    (["--family", "sym", "--n", "16", "--m", "8", "--theta", "3.066556304490821"],
     "9f032e408fd3b693fdd3d315730512890a939f7a10e3182a4fe65bfb975fa987"),
    (["--family", "sym", "--n", "16", "--m", "2", "--theta", "2.872244334927023"],
     "f99448b724d0ad014eb2fe04b76e3387098f86da42f861a9b8c72c2cf88fa0c0"),
    (["--family", "cyc", "--n", "12", "--m", "4", "--theta", "2pi/3"],
     "7f787d5e3b2ad1e92cd25496faf8fffcbc3c47fe36bd882433ba71e82d60734a"),
    (["--family", "sym", "--n", "10", "--m", "5", "--theta", "9pi/10", "--method", "lp"],
     "a4364c240e87589aef804771fbd20e2ef02f610623300aa7e2eed44d0bda1a60"),
], ids=["sym16-8", "sym16-2", "cyc12-4", "lp-sym10-5"])
def test_solve_json_stdout_pinned(argv, digest):
    """sha256 of `solve --format json` stdout: solve-mix's sym(16,8) and sym(16,2) at
    their seed-1 angles, a certificate with both a witness and `p`, and a 2^10-entry `p`.
    With one BLAS thread, as the benchmark runs."""
    r = subprocess.run([sys.executable, "-m", "trajsense.cli", "solve", *argv, "--format", "json"],
                       capture_output=True, env={**os.environ, "PYTHONPATH": _SRC,
                                                 "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                                 "MKL_NUM_THREADS": "1"})
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["curve", "--family", "sym", "--n", "8", "--m", "4", "--points", "9", "--format", "csv"],
    ["solve", "--family", "sym", "--n", "16", "--m", "8", "--theta", "3.066556304490821",
     "--format", "json"],
    ["verify", "--state", "{state}", "--family", "sym", "--n", "14", "--m", "7",
     "--theta", "0.97pi", "--format", "json"],
], ids=["curve-sym84", "solve-sym16-8", "verify-sym14-7"])
def test_stdout_bytes_do_not_depend_on_the_blas_thread_count(argv, tmp_path, capsys):
    """The same bytes at one and two BLAS threads: the Gram residual sums in numpy's
    pairwise order, the candidate Grams in numpy's loops and `Ket.norm` in numpy's
    pairwise sum, not in BLAS's.  The sym(14,7) witness is the smallest sym(n, n/2)
    one whose `verify` residual moved with the thread count under a BLAS norm."""
    if "{state}" in argv:
        assert run(["solve", "--family", "sym", "--n", "14", "--m", "7", "--theta", "0.97pi",
                    "--format", "json", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        state = tmp_path / "state.json"
        state.write_text(json.dumps(json.loads(
            (tmp_path / "certificate.json").read_text())["witness_state"]))
        argv = [a.format(state=state) for a in argv]
    outs = []
    for threads in ("1", "2"):
        r = subprocess.run([sys.executable, "-m", "trajsense.cli", *argv], capture_output=True,
                           env={**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": threads,
                                "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads})
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv,code,line", [
    (["--n", "16", "--m", "4", "--theta", "0.50015pi"], 1,
     "cyc(16,4) at theta=1.571268: infeasible"),
    (["--n", "16", "--m", "8", "--theta", "1.5707963167948966"], 1,
     "cyc(16,8) at theta=1.570796: infeasible"),
    (["--n", "8", "--m", "2", "--theta", "0.64pi"], 0, "cyc(8,2) at theta=2.010619: feasible"),
    (["--n", "12", "--m", "4", "--theta", "0.9pi", "--method", "lp"], 0,
     "cyc(12,4) at theta=2.827433: feasible"),
    (["--n", "6", "--m", "3", "--theta", "0.9pi", "--method", "lp"], 0,
     "cyc(6,3) at theta=2.827433: feasible"),
], ids=["cyc16-4", "cyc16-8", "cyc8-2", "lp-cyc12-4", "lp-cyc6-3"])
def test_cyc_lp_rows_one_per_unordered_pair(argv, code, line, capsys):
    """The shifts s and n - s give equal or opposite LP rows, so the cyc partners
    stop at n // 2.  With both, the float phase 1 stopped at a wrong vertex
    (cyc(16,*) exited 2 with "LP verdict undecided") or at a nonzero residual
    (the three "(marginal)" flags)."""
    assert run(["solve", "--family", "cyc", *argv]) == code
    assert capsys.readouterr().out == line + "\n"


def test_manifest_describes_the_package_checkout_not_the_cwd(tmp_path, monkeypatch, capsys):
    """git describe runs in the package's directory: a repository at the cwd is not recorded."""
    git = shutil.which("git")
    if git is None:
        pytest.skip("git not on PATH")
    repo = tmp_path / "elsewhere"
    repo.mkdir()
    env = {**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
    for cmd in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "x"]):
        subprocess.run([git, *cmd], cwd=repo, env=env, check=True, capture_output=True)
    cwd_describe = subprocess.run([git, "describe", "--always", "--dirty"], cwd=repo,
                                  capture_output=True, text=True, check=True).stdout.strip()
    monkeypatch.chdir(repo)
    assert run(["qec", "--check", "window", "--out", str(tmp_path / "out")]) == 0
    recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())["git_describe"]
    assert recorded != cwd_describe


# ----------------------------------------------------------- console script

def _python(code, *argv):
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _SRC})


def test_cli_import_skips_scipy_stats_and_optimize():
    """No scipy module loads, on import or after an LP solve has run."""
    code = ("import sys, trajsense.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "trajsense.cli.main(['solve', '--family', 'sym', '--n', '4', '--m', '2', "
            "'--theta', '0.9pi', '--method', 'lp']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = _python(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[]", "sym(4,2) at theta=2.827433: feasible", "[]"]


def test_solve_runs_with_scipy_blocked():
    """With `import scipy` made to fail, the LP and the default route still settle."""
    code = ("import sys; sys.modules['scipy'] = None; from trajsense import cli; "
            "a = cli.main(['solve', '--family', 'cyc', '--n', '12', '--m', '4', "
            "'--theta', '2pi/3', '--method', 'lp']); "
            "b = cli.main(['solve', '--family', 'sym', '--n', '8', '--m', '4', "
            "'--theta', '0.9pi']); print(a, b)")
    r = _python(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["cyc(12,4) at theta=2.094395: feasible (marginal)",
                                     "sym(8,4) at theta=2.827433: feasible", "0 0"]


def test_cli_import_runs_only_the_layers_a_command_needs():
    """`import trajsense.cli` runs qcore and trajset; a quadrature `beam` adds beam
    alone (rng waits for a draw).  The package registers every layer at once, but a
    layer's body runs on first use: until then its sys.modules entry is a
    LazyLoader placeholder, not a module."""
    code = ("import sys, types, trajsense.cli\n"
            "ran = lambda: print(sorted(m[10:] for m, v in sys.modules.items()\n"
            "                           if m.startswith('trajsense.') and type(v) is types.ModuleType))\n"
            "ran(); trajsense.cli.main(['beam', '--theta0', '0.3', '--w', '1.0']); ran()")
    r = _python(code)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == str(["cli", "qcore", "trajset"])
    assert lines[2] == str(["beam", "cli", "qcore", "trajset"])


def test_beam_process_prints_and_writes_the_in_process_bytes(tmp_path, capsys):
    """A whole `trajsense` process, exit with its frozen collector included, prints
    the in-process stdout and writes the same artifact bytes."""
    argv = ["beam", "--theta0", "0.3", "--w", "1.0", "--mode", "quadrature", "--format", "json"]
    assert run(argv + ["--out", str(tmp_path / "here")]) == 0
    r = _python("import sys; from trajsense.cli import main; sys.exit(main(sys.argv[1:]))",
                *argv, "--out", str(tmp_path / "child"))
    assert r.returncode == 0, r.stderr
    assert r.stdout == capsys.readouterr().out
    assert ((tmp_path / "child" / "beam.json").read_bytes()
            == (tmp_path / "here" / "beam.json").read_bytes())


def test_installed_entry_point():
    exe = shutil.which("trajsense")
    if exe is None:
        pytest.skip("console script not on PATH")
    r = subprocess.run([exe, "solve", "--family", "sym", "--n", "2", "--m", "1",
                        "--theta", "pi/2"], capture_output=True, text=True)
    assert r.returncode == 0
    assert "feasible" in r.stdout
