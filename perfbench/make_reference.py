"""Write perfbench/reference.json: the curve, inset, beam and qec outputs the
benchmark compares against.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are trusted; the values it
records become the benchmark's expectations, so rerun it only when an output
is meant to change, and say so.  Solve and verify outputs need no reference:
checks.py verifies them from first principles.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from trajsense import cli
    out = ROOT / ".perfbench-work" / "reference"
    cmds = (workloads.curve_sweep(random.Random(0))
            + workloads.cli_short(random.Random(0), str(out)))
    reference = {}
    for cmd in cmds:
        if cmd.kind not in ("curve", "inset", "beam_quad", "qec"):
            continue
        rc, stdout, stderr = spans.run_inprocess(cli.main, cmd.argv + ["--out", str(out)])
        if rc != 0:
            print(f"error: {cmd.label} exited {rc}: {stderr}", file=sys.stderr)
            return 1
        reference[cmd.reference_key()] = checks.parse_output(cmd.kind, stdout)
        print(f"{cmd.label}: recorded")
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
