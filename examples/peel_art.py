#!/usr/bin/env python3
"""Structure peeling on the 179.art workload (the paper's best case).

Shows the transformation the framework performs automatically — the
f1_neuron record peeled into one dense array per field — and measures
the effect on the simulated Itanium-style memory system.

Run:  python examples/peel_art.py
"""

from repro import Session, run_program
from repro.workloads import ART


def main() -> None:
    program = ART.program("train")
    print("original type:")
    print(program.record("f1_neuron").definition())

    result = Session().compile(program)
    decision = result.decision_for("f1_neuron")
    print(f"\nheuristics decision: {decision.action} via global "
          f"pointer {decision.pointer!r}")
    print(f"pieces: {decision.groups}")

    print("\npeeled types:")
    for rec in result.transformed.record_types():
        if rec.name.startswith("f1_neuron__"):
            print(f"  struct {rec.name}: "
                  f"{', '.join(rec.field_names())} ({rec.size} bytes)")

    before = run_program(result.program)
    after = run_program(result.transformed)
    assert before.stdout == after.stdout

    print(f"\noutput     : {before.stdout.strip()}")
    print(f"before     : {before.cycles:,} cycles")
    print(f"after      : {after.cycles:,} cycles")
    print(f"gain       : "
          f"{100.0 * (before.cycles / after.cycles - 1.0):+.1f}%  "
          f"(paper: +78.2% on native hardware)")

    l2_before = before.cache_stats["L2"]
    l2_after = after.cache_stats["L2"]
    print(f"L2 misses  : {l2_before['misses']:,} -> "
          f"{l2_after['misses']:,}")


if __name__ == "__main__":
    main()
