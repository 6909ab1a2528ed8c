#!/usr/bin/env python3
"""Write ``perfbench/expected.json``: each original program's stdout
and simulated cycle count, per (program, input).

The benchmark checks every output it sees against this file.  The
file is a snapshot of the simulator at the commit that added it; the
one count the repository already pins elsewhere (181.mcf/train =
15,640,398 cycles) is asserted here as a cross-check.  Rerun this only
when a change is meant to alter simulated behaviour, and say so.

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.runtime import run_program  # noqa: E402
from repro.workloads import ALL_WORKLOADS  # noqa: E402

MCF_TRAIN_CYCLES = 15_640_398


def main() -> int:
    out = {}
    for w in ALL_WORKLOADS:
        for input_set in ("train", "ref"):
            r = run_program(w.program(input_set))
            out[f"{w.name}/{input_set}"] = {"stdout": r.stdout,
                                            "cycles": r.cycles}
            print(f"{w.name}/{input_set}: {r.cycles} cycles",
                  flush=True)
    if out["181.mcf/train"]["cycles"] != MCF_TRAIN_CYCLES:
        print("181.mcf/train cycle count drifted", file=sys.stderr)
        return 1
    (HERE / "expected.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
