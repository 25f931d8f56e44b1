"""trajsense benchmark: CLI wall time per workload, per-layer times when traced.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; `--workload all` runs the three workloads in
turn.  With `--trace 0` every command runs as its own `trajsense` process,
one at a time, because a user pays import on every call, and the run prints
the end-to-end metrics.  With `--trace 1` the commands run in this process,
once plain and once with spans around every public function of the package,
and the run prints the per-layer metrics.  Every output is checked (see
checks.py).  The last stdout line is one JSON object: correct, attempted,
failed and metrics; the lines before it list each command, the environment
and every metric with its unit.  README.md says why each workload exists and
which end-to-end metric each layer metric should move.
"""
from __future__ import annotations

import os

# One BLAS thread: on a small shared machine, threads that wait on each other
# turn a neighbour's load into noise, and the matrices here are small.  Set
# before numpy loads, here and in every child.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse
import compileall
import ctypes
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
#: every run ends well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
IMPORT_PROBES = 3

#: the `trajsense` console script, plus a mark of when the import finished.
#: perf_counter is CLOCK_MONOTONIC, so the parent can subtract its own reading.
CHILD = ("import sys, time\n"
         "from trajsense.cli import main\n"
         "done = time.perf_counter()\n"
         "with open(sys.argv[1], 'w') as fh:\n"
         "    fh.write(repr(done))\n"
         "sys.exit(main(sys.argv[2:]))\n")

#: layers a workload must not reach; a change that moves work there shows here
BYPASS = {
    "solve-mix": ("discrim.optimal_measurement.calls",),
    "curve-sweep": ("simplex.exact_phase1.calls",),
    "cli-short": ("simplex.exact_phase1.calls",),
}

END_TO_END = (
    ("setup_s", "s"), ("cmd_p50_s", "s"), ("cmd_tail_s", "s"),
    ("peak_rss_mb", "MB"), ("results_per_s", "1/s"),
)
#: what one result is, per workload, and the name the report gives the rate
RESULT_UNIT = {
    "solve-mix": ("certs_per_s", "verified certificates"),
    "curve-sweep": ("curve_points_per_s", "theta points of both arms plus inset rows"),
    "cli-short": ("cmds_per_s", "verified commands"),
}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read from the library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(lib), fn)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_before": os.getloadavg(),
    }


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float):
    """One CLI process: (rc, stdout, stderr, wall_s, setup_s or None, max_rss_mb)."""
    out_path, err_path, mark = cwd / "stdout.txt", cwd / "stderr.txt", cwd / "mark.txt"
    mark.unlink(missing_ok=True)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, str(mark), *argv],
                                stdout=out, stderr=err, cwd=cwd, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(mark.read_text()) - start if mark.exists() else None
    stderr = err_path.read_text()
    if wall >= timeout:
        stderr += f"\ntimed out after {timeout:.0f} s"
    return (proc.returncode, out_path.read_text(), stderr, wall, setup,
            usage.ru_maxrss / 1024.0)


def describe(label: str, outcome: checks.Outcome, wall: float) -> str:
    if outcome.known:
        tag = f"known failure: {outcome.known}"
    else:
        tag = "WRONG" if outcome.wrong else ("failed" if outcome.failed else "ok")
    return f"#  {wall:8.3f} s  [{tag}] {label}  {outcome.note}"


def prepare(name: str) -> Path:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "states").mkdir(parents=True)
    for state, obj in workloads.verify_states().items():
        (work / "states" / f"{state}.json").write_text(json.dumps(obj))
    return work


def run_untraced(name: str, seed: int, seconds: float, env: dict, reference: dict) -> dict:
    """Whole passes over the workload while the next is due to end within --seconds."""
    work = prepare(name)
    cmds = workloads.build(name, seed, str(work / "states"))
    states = workloads.verify_states()
    walls, setups, rss, pass_max, lines = [], [], [], [], []
    results = attempted = failed = 0
    correct = True
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    while True:
        pass_start = time.perf_counter()
        pass_walls = []
        for i, cmd in enumerate(cmds):
            outdir = work / "out" / str(i)
            rc, out, err, wall, setup, mb = run_child(
                cmd.argv + ["--out", str(outdir)], work, env,
                max(1.0, deadline - time.perf_counter()))
            outcome = checks.check(cmd, rc, out, err, reference, states)
            attempted += 1
            failed += outcome.failed
            correct &= not outcome.wrong
            results += outcome.results
            pass_walls.append(wall)
            if setup is not None:
                setups.append(setup)
            rss.append(mb)
            lines.append(describe(cmd.label, outcome, wall))
        walls += pass_walls
        pass_max.append(max(pass_walls))
        pass_s = time.perf_counter() - pass_start
        if time.perf_counter() - start + pass_s > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "cmd_p50_s": statistics.median(walls),
        # slowest command of a pass, median over passes: each pass holds the
        # whole case list, fewer than 20 commands, so no percentile below the
        # maximum has ten samples beyond it
        "cmd_tail_s": statistics.median(pass_max),
        "peak_rss_mb": max(rss),
        "results_per_s": results / sum(walls),
    }
    rate_name, rate_what = RESULT_UNIT[name]
    notes = [
        f"# passes {len(pass_max)}, commands per pass {len(cmds)}, invocations {len(walls)}",
        f"# cmd_tail_s = p100 of each pass (n={len(cmds)}), median of {len(pass_max)} passes",
        f"# failed_ratio {failed / attempted:.4f} ratio ({failed} of {attempted})",
        f"# {rate_name} {metrics['results_per_s']:.6g} 1/s ({results} {rate_what})",
        f"# setup samples {len(setups)}",
        # a child's max-RSS starts from this process's high-water mark, which
        # must stay below the ~100 MB that importing trajsense.cli needs
        f"# benchmark process max RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB",
    ]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: (metrics[k], unit) for k, unit in END_TO_END},
            "lines": lines + notes}


def _import_probes(env: dict) -> tuple[float, dict]:
    """(median in-process import time of trajsense.cli, -X importtime cumulatives)."""
    code = ("import time; t = time.perf_counter(); import trajsense.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60, check=True)
        times.append(float(done.stdout))
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import trajsense.cli"],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return statistics.median(times), spans.parse_importtime(done.stderr)


def run_traced(name: str, seed: int, env: dict, reference: dict) -> dict:
    """Each command in-process twice: plain, then with spans; checks the traced output."""
    work = prepare(name)
    cmds = workloads.build(name, seed, str(work / "states"))
    states = workloads.verify_states()
    import_s, imports = _import_probes(env)
    sys.path.insert(0, str(SRC))
    from trajsense import cli
    tracer = spans.Tracer()
    plain = traced = 0.0
    attempted = failed = 0
    correct = True
    lines = []
    for i, cmd in enumerate(cmds):
        argv = cmd.argv + ["--out", str(work / "out" / str(i))]
        # alternate which run goes first, so that neither always meets cold caches
        for traced_run in ((False, True) if i % 2 else (True, False)):
            t0 = time.perf_counter()
            if traced_run:
                with tracer.installed(cmd.label):
                    rc, out, err = spans.run_inprocess(cli.main, argv)
                wall = time.perf_counter() - t0
                traced += wall
            else:
                spans.run_inprocess(cli.main, argv)
                plain += time.perf_counter() - t0
        outcome = checks.check(cmd, rc, out, err, reference, states)
        attempted += 1
        failed += outcome.failed
        correct &= not outcome.wrong
        lines.append(describe(cmd.label, outcome, wall))
    tracer.write(work / "spans.jsonl")
    layer = spans.layer_metrics(tracer.self_times(), tracer.counts)
    metrics = {"cli.import_s": (import_s, "s")}
    metrics.update({f"import.{m}_s": (v, "s") for m, v in imports.items()})
    metrics.update(layer)
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    for key in BYPASS[name]:
        if metrics[key][0] != 0:
            correct = False
            lines.append(f"# BYPASS VIOLATED: {key} = {metrics[key][0]:g} on {name}, predicted 0")
        else:
            lines.append(f"# bypass holds: {key} = 0 on {name}")
    lines.append(f"# spans {len(tracer.spans)} written to {work / 'spans.jsonl'}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (SRC / "trajsense" / "cli.py").is_file():
        print(f"error: no trajsense sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    compileall.compile_dir(str(SRC / "trajsense"), quiet=1)
    env = dict(os.environ, PYTHONPATH=str(SRC),
               # git describe in the manifest must not find a repository above the checkout
               GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    os.environ["GIT_CEILING_DIRECTORIES"] = env["GIT_CEILING_DIRECTORIES"]
    envinfo = environment()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            res = run_traced(name, args.seed, env, reference)
        else:
            res = run_untraced(name, args.seed, args.seconds, env, reference)
        print(f"# workload {name} seed {args.seed} trace {args.trace}")
        print("\n".join(res["lines"]))
        for key, (value, unit) in res["metrics"].items():
            print(f"{name} {key} {value:.6g} {unit}")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        combined["metrics"].update({prefix + k: {"value": v, "unit": u}
                                    for k, (v, u) in res["metrics"].items()})
    envinfo["loadavg_after"] = os.getloadavg()
    print("# env " + json.dumps(envinfo, sort_keys=True))
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"env": envinfo, **combined}, indent=1))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
