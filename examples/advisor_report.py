#!/usr/bin/env python3
"""The advisory tool on 181.mcf (the paper's Figure 2, live).

Collects a PBO profile (edge counts + sampled d-cache events) from a
training run, compiles in analyze-only mode, and prints the annotated
structure layouts plus the §3.3 scenario advice.  Also writes the VCG
affinity graphs next to this script.

Run:  python examples/advisor_report.py
"""

from pathlib import Path

from repro import Session, advisor_report, classify_report
from repro.advisor import program_vcg
from repro.core import CompilerOptions
from repro.profit import collect_feedback
from repro.workloads import MCF


def main() -> None:
    print("collecting PBO profile (instrumented training run)...")
    feedback = collect_feedback(MCF.program("train"), pmu_period=16)
    print(f"  edges profiled : {len(feedback.edge_counts)}")
    print(f"  field samples  : {len(feedback.field_samples)}")

    print("compiling in advisory (analyze-only) mode...")
    result = Session(CompilerOptions(scheme="PBO", feedback=feedback,
                                     transform=False)
                     ).compile(MCF.program("train"))

    print()
    print(advisor_report(result, feedback=feedback))

    print("scenario advice (§3.3):")
    for name, profile in result.profiles.items():
        samples = {f: s for (r, f), s in feedback.field_samples.items()
                   if r == name}
        print(classify_report(profile, samples))
        print()

    vcg_path = Path(__file__).parent / "mcf_affinity.vcg"
    vcg_path.write_text(program_vcg(result.profiles))
    print(f"VCG affinity graphs written to {vcg_path}")


if __name__ == "__main__":
    main()
