"""The benchmark's traced wrappers (`perfbench/spans.py`) over the CLI.

`perfbench/run.py --trace 1` wraps every public package function and binds
its work counters by parameter name: `solver.max_gram_residual(psi, ts,
theta)` reads `len(ts)` and `ts.n`, `solver.solve_lp(problem)` reads
`problem.trivial`.  A renamed parameter or attribute turns a traced run into
a crash, which `run_inprocess` reports as exit 99.
"""
import importlib.util
import json
from pathlib import Path

from trajsense import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_run_and_count_work(tmp_path):
    spans = _load_spans()
    state = tmp_path / "bell.json"
    h = 0.5 ** 0.5
    state.write_text(json.dumps({"n": 2, "amps": {"01": [h, 0.0], "10": [h, 0.0]}}))
    runs = [
        ["solve", "--family", "sym", "--n", "6", "--m", "3", "--theta", "0.9pi"],
        ["solve", "--family", "cyc", "--n", "8", "--m", "2", "--theta", "0.7pi"],
        ["verify", "--state", str(state), "--family", "sym", "--n", "2", "--m", "1",
         "--theta", "pi/2"],
        ["curve", "--family", "sym", "--n", "3", "--m", "1", "--points", "3",
         "--format", "csv"],
    ]
    tracer = spans.Tracer()
    for argv in runs:
        with tracer.installed(argv[0]):
            rc, _, err = spans.run_inprocess(cli.main, argv)
        assert rc != 99, err
        assert rc == 0, (argv, err)
    assert tracer.counts["solver.max_gram_residual.volume"] > 0
    assert tracer.counts["solver.solve_lp.nontrivial"] > 0
    assert tracer.counts["cli.main.calls"] == len(runs)
