"""Design-choice ablations DESIGN.md calls out.

- T_s sweep: the splitting threshold trades cold coverage against the
  risk of splitting out warm fields (§2.4: "subject to continuous
  tweaking");
- exponent E sweep: E=1.5 against no scaling and over-scaling (§2.3);
- peel-grouping policy: the line-traffic cost model ('auto') against
  the fixed policies, on the two workloads that want opposite answers
  (179.art: per-field; moldyn: affinity groups);
- cache-size sensitivity: the same transformation measured on the
  full-size Itanium 2 hierarchy (working sets fit, effects shrink);
- stride-prefetcher interaction (§2.4: updating stride hints had "no or
  only slightly negative effects").
"""

from conftest import once, save_result, lower_program

from repro.api import Session
from repro.core import CompilerOptions
from repro.ir import build_call_graph, find_loops
from repro.profit import (
    compute_profiles, correlation, estimate_ispbo, match_feedback,
)
from repro.runtime import run_program, ITANIUM2_FULL
from repro.runtime.cache import CacheConfig
from repro.transform import HeuristicParams
from repro.workloads import ART, MCF, MOLDYN


def gain_of(result, cache_config=None):
    kw = {"cache_config": cache_config} if cache_config else {}
    before = run_program(result.program, **kw)
    after = run_program(result.transformed, **kw)
    assert before.stdout == after.stdout
    return 100.0 * (before.cycles / after.cycles - 1.0)


# ---------------------------------------------------------------------------
# T_s sweep
# ---------------------------------------------------------------------------

def sweep_ts(session):
    out = {}
    for ts in (2.0, 7.5, 30.0, 70.0):
        params = HeuristicParams(ts_static=ts)
        res = Session(CompilerOptions(params=params)).compile(
            MCF.program("ref"))
        d = res.decision_for("node")
        out[ts] = (len(d.cold_fields), gain_of(res))
    return out


def test_ts_sweep(benchmark, session):
    results = once(benchmark, lambda: sweep_ts(session))
    lines = [f"T_s={ts:5.1f}%  split-out={n:2d}  gain={g:+7.2f}%"
             for ts, (n, g) in results.items()]
    text = "\n".join(lines)
    print("\nAblation — splitting threshold T_s on mcf\n" + text)
    save_result("ablation_ts.txt", text)

    # more aggressive thresholds split more fields out
    counts = [n for n, _ in results.values()]
    assert counts == sorted(counts)
    # the paper's operating point stays profitable
    assert results[7.5][1] > 5.0
    # crossing into the hot core (pred/mark at T_s = 70%) gives the
    # win back — hot fields must remain in the hot section (§2.4)
    assert results[70.0][1] < results[30.0][1]
    assert results[70.0][1] < results[7.5][1]


# ---------------------------------------------------------------------------
# exponent E sweep
# ---------------------------------------------------------------------------

def sweep_exponent(session):
    program = MCF.program("train")
    cfgs = lower_program(program)
    nests = {name: find_loops(cfg) for name, cfg in cfgs.items()}
    cg = build_call_graph(cfgs, program)
    fb = session.feedback(MCF, "train")
    pbo = compute_profiles(program, cfgs,
                           match_feedback(cfgs, fb), nests)
    base = pbo["node"].relative_hotness()
    out = {}
    for e in (1.0, 1.5, 2.5):
        weights = estimate_ispbo(cfgs, cg, nests, exponent=e)
        rel = compute_profiles(program, cfgs, weights,
                               nests)["node"].relative_hotness()
        out[e] = correlation(base, rel)
    return out


def test_exponent_sweep(benchmark, session):
    results = once(benchmark, lambda: sweep_exponent(session))
    lines = [f"E={e:3.1f}  r(PBO)={r:+.3f}" for e, r in results.items()]
    text = "\n".join(lines)
    print("\nAblation — ISPBO separability exponent\n" + text)
    save_result("ablation_exponent.txt", text)

    # the paper's E=1.5 beats (or at least matches) no scaling
    assert results[1.5] >= results[1.0] - 0.02
    # all choices remain strongly correlated — E is a refinement
    assert all(r > 0.6 for r in results.values())


# ---------------------------------------------------------------------------
# peel-grouping policy
# ---------------------------------------------------------------------------

def _moldyn_large():
    """A moldyn instance whose particle array is far beyond the L3:
    this is the regime where per-field peeling loses to affinity
    grouping (at Table 3's size everything is near the L3 boundary and
    the policies converge)."""
    from repro.workloads.moldyn import _TEMPLATE
    from repro.workloads.base import render
    from repro.frontend import Program
    src = render(_TEMPLATE, {"n_atoms": 4000, "n_pairs": 3000,
                             "steps": 8})
    return Program.from_source(src)


def sweep_peel_modes(session):
    out = {}
    for mode in ("auto", "per-field", "hot-cold", "affinity"):
        opts = CompilerOptions(params=HeuristicParams(peel_mode=mode))
        res = Session(opts).compile(ART.program("ref"))
        out[("179.art", mode)] = gain_of(res)
        res = Session(opts).compile(_moldyn_large())
        out[("moldyn-large", mode)] = gain_of(res)
    return out


def test_peel_mode_ablation(benchmark, session):
    results = once(benchmark, lambda: sweep_peel_modes(session))
    lines = [f"{name:14s} {mode:10s} {g:+8.2f}%"
             for (name, mode), g in results.items()]
    text = "\n".join(lines)
    print("\nAblation — peel grouping policy\n" + text)
    save_result("ablation_peelmode.txt", text)

    # art wants per-field; moldyn (at scale) wants affinity groups
    assert results[("179.art", "per-field")] > \
        results[("179.art", "hot-cold")]
    assert results[("moldyn-large", "affinity")] > \
        results[("moldyn-large", "per-field")]
    # per-field peeling actively hurts moldyn's random force loop
    assert results[("moldyn-large", "per-field")] < 2.0
    # the cost model tracks the best fixed policy per workload
    assert results[("179.art", "auto")] >= \
        results[("179.art", "per-field")] - 2.0
    assert results[("moldyn-large", "auto")] >= \
        results[("moldyn-large", "affinity")] - 2.0


# ---------------------------------------------------------------------------
# cache-size sensitivity
# ---------------------------------------------------------------------------

def sweep_cache(session):
    res = session.compiled(MCF, input_set="ref")
    scaled = gain_of(res)
    full = gain_of(res, cache_config=ITANIUM2_FULL)
    return scaled, full


def test_cache_scaling(benchmark, session):
    scaled, full = once(benchmark, lambda: sweep_cache(session))
    text = (f"scaled hierarchy: {scaled:+7.2f}%\n"
            f"full Itanium 2:   {full:+7.2f}%")
    print("\nAblation — cache-size sensitivity (mcf)\n" + text)
    save_result("ablation_cache.txt", text)

    # on the full-size hierarchy the interpreter-scale working set
    # fits in cache: the layout effect shrinks toward zero
    assert abs(full) < scaled
    assert scaled > 5.0


# ---------------------------------------------------------------------------
# stride prefetcher (§2.4)
# ---------------------------------------------------------------------------

def sweep_prefetch(session):
    from repro.runtime import ITANIUM2_SCALED
    res = session.compiled(MCF, input_set="ref")
    base = gain_of(res)
    pf_config = CacheConfig(levels=ITANIUM2_SCALED.levels,
                            memory_latency=200, prefetch=True)
    pf = gain_of(res, cache_config=pf_config)
    return base, pf


def test_prefetch_interaction(benchmark, session):
    base, pf = once(benchmark, lambda: sweep_prefetch(session))
    text = (f"no prefetch:     {base:+7.2f}%\n"
            f"stride prefetch: {pf:+7.2f}%")
    print("\nAblation — stride prefetcher interaction (mcf)\n" + text)
    save_result("ablation_prefetch.txt", text)

    # §2.4: interaction with prefetching had "no or only slightly
    # negative effects" — the transformation keeps winning either way
    assert pf > 0.0
    assert abs(pf - base) < max(10.0, 0.8 * base)
