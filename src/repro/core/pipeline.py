"""The compilation pipeline as an explicit pass DAG (§2 of the paper).

:class:`Compiler` mirrors the SYZYGY phase structure — **FE** (per
translation unit, parallelizable in the paper), **IPA** (summary
aggregation, escape analysis, weight estimation, heuristics), **BE**
(application of the planned transformations) — but the phases are no
longer a monolith: every pass is a **node** in a
:class:`~repro.core.dag.PassDAG` with explicit dependency edges,
executed by :class:`~repro.core.dag.DagScheduler`:

- per-TU parse nodes (``parse[a.c]``) fan out to a shared process
  pool, per-TU summarize nodes (``legality[a.c]``) run concurrently,
  and the IPA merges (``legality``, ``deadfields``) are barriers over
  their unit nodes;
- independent whole-program passes (callgraph/escape/points-to on one
  side, weights/profiles on the other) overlap when ``jobs > 1``;
- the BE planner appends one ``apply[TypeName]`` node per transform
  decision *while the DAG runs* (dynamic growth), chained in decision
  order.

``jobs=1`` executes nodes inline in builder order — byte-identical to
the historical phased pipeline — so parallelism stays an execution
strategy, never a semantic knob.  Per-phase wall-clock timings are
derived from per-node measurements (§2.5), and
:attr:`CompilationResult.scheduler` reports the DAG shape, critical
path, and mode of every compile.

The driver is **fault tolerant**: structure layout optimization is an
optimization, so no failure inside it may take the compilation down.
Every analysis pass runs under a containment guard — an exception, a
wall-clock budget overrun, or a summary that fails validation demotes
the affected struct types to "do not transform" with a recorded
:class:`~repro.core.diagnostics.Diagnostic`, and compilation continues
to a valid (merely more conservative) result.  Containment is
*per node*: a crashing unit summary or a single failing ``apply[T]``
demotes only its own slice of the graph, and the scheduler keeps
draining the ready queue.  With ``verify_transforms`` enabled the BE
additionally executes the original and transformed programs on the
simulated machine and *rolls back* any decision whose application
changes observable behaviour, bisecting the decision list to find the
offender — the compiler cannot emit a semantics-changing layout.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..frontend.program import Program
from ..ir.cfg import FunctionCFG, lower_program
from ..ir.callgraph import CallGraph, build_call_graph
from ..ir.loops import LoopNest, find_loops
from ..analysis.deadfields import (
    FieldRefs, FieldUsage, UnitUsage, UsageResult,
    fallback_unit_usage, merge_unit_usage, summarize_unit_usage,
)
from ..analysis.escape import EscapeResult, analyze_escapes
from ..analysis.legality import (
    ALL_REASONS, LegalityResult, TypeInfo, UnitLegality,
    fallback_unit_legality, merge_unit_legality,
    summarize_unit_legality,
)
from ..profit.affinity import TypeProfile, compute_profiles
from ..profit.feedback import FeedbackFile, match_feedback
from ..profit.weights import (
    ProgramWeights, estimate_ispbo, estimate_ispbo_w, estimate_spbo,
)
from ..transform.heuristics import (
    HeuristicParams, TransformDecision, apply_decisions,
    decide_transforms,
)
from ..transform.search import (
    ENGINES, SEARCH_DEFAULTS, search_mode, search_type,
)
from ..runtime.replay import capture_trace, precompile
from ..obs import (
    CAT_COMPILE, CAT_FE_UNIT, CAT_PHASE, MetricsPassObserver,
    MetricsRegistry, NULL_TRACER, PASS_EVENTS, PassEvent, PassProfiler,
    Tracer, TracingPassObserver,
)
from .dag import DagScheduler, PassDAG, process_pool
from .diagnostics import (
    CODE_BUDGET, CODE_CACHE, CODE_CONTAINED, CODE_CORRUPT, CODE_PARSE,
    CODE_ROLLBACK, CODE_VERIFY, DiagnosticEngine, FatalCompilerError,
)
from .faults import FAULTS, InjectedFault
from .fe import (
    FEReport, finish_assembly, parse_cached, parse_pool_width,
    plan_parses, serial_fallback,
)
from .summarycache import SummaryCache, fingerprint, open_cache

#: weight schemes the pipeline can drive transformations with
SCHEMES = ("SPBO", "ISPBO", "ISPBO.NO", "ISPBO.W", "PBO", "PPBO")

#: legality pseudo-reason marking a type demoted by fault containment
FAULT_REASON = "FAULT"

#: sentinel a per-unit summarize node returns when its source name is
#: absent from the assembled program (legacy-fallback sema skips, parse
#: failures) — the merge barrier drops these entries
_SKIP = object()


def _unit_for(program: Program, name: str, occurrence: int):
    """The ``occurrence``-th unit called ``name``, or :data:`_SKIP`."""
    seen = 0
    for u in program.units:
        if u.name == name:
            if seen == occurrence:
                return u
            seen += 1
    return _SKIP


@dataclass
class CompilerOptions:
    """Knobs for one compilation."""

    scheme: str = "ISPBO"
    feedback: FeedbackFile | None = None
    params: HeuristicParams = field(default_factory=HeuristicParams)
    #: apply the transformations (False = analyze/advise only)
    transform: bool = True
    #: tolerate CSTT/CSTF/ATKN when the field-sensitive points-to
    #: analysis proves field-sensitivity survived (§2.2's internal flag,
    #: verified instead of assumed)
    relax_legality: bool = False
    entry: str = "main"
    #: differential rollback: execute original vs transformed on the
    #: simulated machine and roll back semantics-changing decisions
    #: (the CLI enables this by default for ``transform``/``compare``)
    verify_transforms: bool = False
    #: strict mode: re-raise contained faults as FatalCompilerError
    #: instead of degrading gracefully
    strict: bool = False
    #: wall-clock budget per contained pass, seconds (None = unbounded)
    phase_budget: float | None = None
    #: iteration budget for the points-to fixpoint solver
    pointsto_max_sweeps: int = 10_000
    #: verification cycle budget for the *original* program; the
    #: transformed budget is derived from the original's measured cycles
    verify_cycle_base: int = 200_000_000
    #: transformed-run budget = original cycles * factor + slack
    verify_cycle_factor: float = 4.0
    verify_cycle_slack: int = 1_000_000
    #: pass-DAG parallelism: worker threads for the node scheduler and
    #: parse workers for the shared process pool (1 = fully serial,
    #: deterministic builder order).  The CLI/API resolve ``--jobs 0``
    #: (auto) to :func:`repro.core.dag.effective_cores` before options
    #: are built, so here the floor stays 1.
    jobs: int = 1
    #: content-addressed summary cache spec (None = off): a local
    #: directory, or ``unix:PATH`` naming a shared cache-service
    #: socket; holds per-TU parse artifacts, per-TU analysis
    #: summaries, and whole-program FE results keyed by source +
    #: options fingerprints
    cache_dir: str | Path | None = None
    #: global layout-search options (:class:`repro.api.SearchOptions`
    #: or any object with the same attributes; None = greedy
    #: heuristics only).  When set, the BE grows ``search.trace`` /
    #: ``search[T]`` nodes that refine the greedy decisions through
    #: the replay oracle.  BE-only like the verification knobs, so it
    #: is excluded from :meth:`fingerprint` and FE/IPA cache entries
    #: are shared across search configurations.
    search: Any | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"choose from {SCHEMES}")
        if self.scheme in ("PBO", "PPBO") and self.feedback is None:
            raise ValueError(f"{self.scheme} requires a feedback file")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.search is not None:
            eng = getattr(self.search, "engine", "sa")
            if eng not in ENGINES:
                raise ValueError(f"unknown search engine {eng!r}; "
                                 f"choose from {ENGINES}")

    def fingerprint(self) -> str:
        """Hash of every option that can change FE/IPA artifacts.

        Excludes ``jobs``/``cache_dir`` (execution strategy, not
        semantics) and the verification knobs (BE-only).  Used to key
        every cache tier, so changing any semantic option is a full
        cache miss.
        """
        return fingerprint(
            "options", self.scheme, self.relax_legality, self.entry,
            sorted(asdict(self.params).items()),
            self.pointsto_max_sweeps)


@dataclass
class CompilationResult:
    """Everything one compilation produced."""

    program: Program
    options: CompilerOptions
    cfgs: dict[str, FunctionCFG]
    nests: dict[str, LoopNest]
    callgraph: CallGraph
    legality: LegalityResult
    escape: EscapeResult
    usage: UsageResult
    weights: ProgramWeights
    profiles: dict[str, TypeProfile]
    decisions: list[TransformDecision]
    transformed: Program
    timings: dict[str, float] = field(default_factory=dict)
    #: per-pass wall-clock timings (finer than the fe/ipa/be aggregate)
    pass_timings: dict[str, float] = field(default_factory=dict)
    #: every diagnostic any phase emitted
    diagnostics: DiagnosticEngine = field(
        default_factory=DiagnosticEngine)
    #: type names whose transforms verification rolled back
    rolled_back: list[str] = field(default_factory=list)
    #: how the front end ran (compile_sources only; None otherwise)
    fe_report: FEReport | None = None
    #: per-pass profile (wall ms, peak-RSS growth, diagnostics emitted);
    #: populated only when the compile ran with tracing enabled
    pass_profile: dict[str, dict] = field(default_factory=dict)
    #: trace id of the compile's span tree (None when tracing was off)
    trace_id: str | None = None
    #: how the pass DAG ran: mode, jobs, node count, wall, critical path
    scheduler: dict = field(default_factory=dict)
    #: per-type layout-search stats keyed by type name, plus a
    #: ``_trace`` entry describing the captured access trace; empty
    #: when the compile ran without :attr:`CompilerOptions.search`
    search: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics were recorded."""
        return not self.diagnostics.has_errors

    @property
    def degraded(self) -> bool:
        """True when any fault was contained or any transform rolled
        back — the result is valid but more conservative than planned."""
        return bool(self.diagnostics.contained()
                    or self.diagnostics.rollbacks())

    def decision_for(self, type_name: str) -> TransformDecision | None:
        for d in self.decisions:
            if d.type_name == type_name:
                return d
        return None

    def transformed_types(self) -> list[TransformDecision]:
        return [d for d in self.decisions if d.transformed]

    def table1_row(self) -> tuple[int, int, int]:
        """(types, legal, relaxed) — one row of Table 1."""
        return self.legality.counts()

    def table3_row(self) -> tuple[int, int, int]:
        """(types, transformed types, fields split-out+dead)."""
        transformed = self.transformed_types()
        return (len(self.legality.types), len(transformed),
                sum(d.fields_affected for d in transformed))


class PhaseGuard:
    """Runs one pass under fault containment.

    A pass that raises, overruns its wall-clock budget, or returns a
    summary the validator rejects is replaced by its conservative
    fallback, with a diagnostic naming the contained failure.  In
    ``strict`` mode the original exception is re-raised as
    :class:`FatalCompilerError` instead.

    ``ctx`` tags this guard's :class:`~repro.obs.PassEvent`s with the
    owning compilation, so observers can attribute events correctly
    when DAG nodes run on scheduler worker threads.
    """

    def __init__(self, diags: DiagnosticEngine, *, strict: bool = False,
                 budget: float | None = None,
                 timings: dict[str, float] | None = None,
                 ctx: Any = None):
        self.diags = diags
        self.strict = strict
        self.budget = budget
        self.timings = timings if timings is not None else {}
        self.ctx = ctx

    def run(self, name: str, fn: Callable[[], Any],
            fallback: Callable[[], Any]) -> Any:
        events = PASS_EVENTS
        if events:
            # published before the containment boundary: a process
            # fault firing here (SIGKILL, simulated OOM) must not be
            # containable in-process
            events.publish(PassEvent(name, "enter",
                                     diags=len(self.diags),
                                     ctx=self.ctx))
        t0 = time.perf_counter()
        try:
            FAULTS.fire(name)        # injection point (raise / stall)
            result = fn()
        except Exception as exc:     # containment boundary
            elapsed = time.perf_counter() - t0
            self.timings[name] = elapsed
            if events:                # before _contain: strict re-raises
                events.publish(PassEvent(
                    name, "fail", elapsed=elapsed,
                    error=f"{type(exc).__name__}: {exc}",
                    diags=len(self.diags), ctx=self.ctx))
            return self._contain(name, exc, fallback)
        elapsed = time.perf_counter() - t0
        self.timings[name] = elapsed
        if events:
            events.publish(PassEvent(name, "exit", elapsed=elapsed,
                                     diags=len(self.diags),
                                     ctx=self.ctx))
        if self.budget is not None and elapsed > self.budget:
            # the pass finished but blew its budget: its result is
            # suspect (a stalled analysis may have been wedged), so the
            # conservative fallback replaces it
            if self.strict:
                raise FatalCompilerError(
                    name, f"pass exceeded {self.budget:.3f}s budget "
                          f"({elapsed:.3f}s)")
            self.diags.warning(
                name, f"pass exceeded its {self.budget:.3f}s budget "
                      f"({elapsed:.3f}s); conservative fallback "
                      f"substituted", code=CODE_BUDGET,
                action="raise phase_budget or investigate the stall")
            return fallback()
        return FAULTS.corrupt(name, result)   # injection point (corrupt)

    def _contain(self, name: str, exc: Exception,
                 fallback: Callable[[], Any]) -> Any:
        if self.strict:
            if isinstance(exc, FatalCompilerError):
                raise exc            # already named its failing pass
            raise FatalCompilerError(name, str(exc), cause=exc) from exc
        kind = "injected fault" if isinstance(exc, InjectedFault) \
            else f"{type(exc).__name__}"
        self.diags.warning(
            name, f"pass failed ({kind}: {exc}); conservative fallback "
                  f"substituted", code=CODE_CONTAINED,
            action="affected types will not be transformed")
        return fallback()


class _CompileGraph:
    """Builds the pass DAG for one compilation.

    Each node gets its own :class:`DiagnosticEngine`, pass-timing
    fragment, and :class:`PhaseGuard` — so containment, budgets and
    diagnostics stay correct when nodes run on different threads.  The
    driver merges the per-node engines in node (= historical serial)
    order after the run, so rendered diagnostics are independent of
    execution order.
    """

    def __init__(self, compiler: "Compiler", *, token: Any,
                 cache: SummaryCache | None, opts_fp: str,
                 sources: list[tuple[str, str]] | None):
        self.c = compiler
        self.opts = compiler.options
        self.token = token
        self.cache = cache
        self.opts_fp = opts_fp
        self.sources = sources
        self.unit_sources = dict(sources) \
            if sources is not None and cache is not None else None
        self.dag = PassDAG()
        self.engines: dict[str, DiagnosticEngine] = {}
        self.node_timings: dict[str, dict[str, float]] = {}
        #: guard name -> phase, for re-parenting pass spans emitted on
        #: scheduler worker threads (parallel mode)
        self.pass_phase: dict[str, str] = {}
        self.state: dict[str, Any] = {}
        self.rolled_back: list[str] = []
        self.pool_width = 1

    # -- node plumbing -----------------------------------------------------

    def _spec(self, name: str, fn, *, deps=(), phase: str = "",
              group: str = "", budget: float | None = None,
              guard_names: tuple[str, ...] = ()) -> dict:
        engine = DiagnosticEngine()
        timings: dict[str, float] = {}
        guard = PhaseGuard(engine, strict=self.opts.strict,
                           budget=budget, timings=timings,
                           ctx=self.token)
        self.engines[name] = engine
        self.node_timings[name] = timings
        for g in guard_names:
            self.pass_phase[g] = phase
        return {"name": name,
                "fn": lambda ctx, fn=fn, e=engine, g=guard: fn(ctx, e, g),
                "deps": tuple(deps), "phase": phase, "group": group}

    def _add(self, name: str, fn, **kw) -> None:
        spec = self._spec(name, fn, **kw)
        self.dag.add(spec["name"], spec["fn"], deps=spec["deps"],
                     phase=spec["phase"], group=spec["group"])

    # -- FE: parse + assemble ----------------------------------------------

    def build_fe_sources(self) -> None:
        c, opts, sources = self.c, self.opts, self.sources
        n_units = max(len(sources), 1)
        unit_budget = opts.phase_budget / n_units \
            if opts.phase_budget is not None else None
        report = FEReport(jobs=opts.jobs)
        plan_error = ""
        try:
            tasks, prescans = plan_parses(sources, unit_budget)
        except Exception as exc:                   # pragma: no cover
            tasks, prescans = None, None
            plan_error = f"typedef pre-scan failed: {exc}"

        parse_nodes: list[str] = []
        if tasks is not None:
            self.pool_width = parse_pool_width(opts.jobs, len(tasks))
            counts: dict[str, int] = {}
            for task in tasks:
                raw = task[0]
                occ = counts.get(raw, 0)
                counts[raw] = occ + 1
                node = f"parse[{raw}]" if occ == 0 \
                    else f"parse[{raw}#{occ}]"

                def parse_fn(ctx, engine, guard, task=task):
                    pool = process_pool(self.pool_width) \
                        if self.pool_width > 1 else None
                    return parse_cached(task, self.cache, self.opts_fp,
                                        pool=pool)

                self._add(node, parse_fn, phase="fe", group="fe.parse")
                parse_nodes.append(node)

        def assemble(ctx, engine, guard):
            if tasks is None:
                program, rep = serial_fallback(sources, True, report,
                                               plan_error)
            else:
                triples = [ctx[n] for n in parse_nodes]
                report.parse_cache_hits = sum(
                    1 for t in triples if not t[2])
                program, rep = finish_assembly(
                    sources, [t[0] for t in triples],
                    [t[1] for t in triples], [t[2] for t in triples],
                    prescans, True, report, self.cache)
            self.state["fe_report"] = rep
            c._fe_report_diags(rep, engine, unit_budget)
            c._parse_diags(program, engine)
            if self.cache is not None:
                self.state["iface_fp"] = c._interface_fingerprint(program)
            return program

        self._add("fe.assemble", assemble, deps=tuple(parse_nodes),
                  phase="fe", group="fe.parse")

    # -- FE: analyses --------------------------------------------------------

    def build_fe_analyses(self, unit_names: list[str]) -> None:
        c, opts = self.c, self.opts
        pb = opts.phase_budget
        self._add(
            "lower",
            lambda ctx, e, g: g.run(
                "lower", lambda: lower_program(ctx["fe.assemble"]),
                dict),
            deps=("fe.assemble",), phase="fe", budget=pb,
            guard_names=("lower",))
        self._add(
            "loops",
            lambda ctx, e, g: g.run(
                "loops",
                lambda: {name: find_loops(cfg)
                         for name, cfg in ctx["lower"].items()},
                dict),
            deps=("lower",), phase="fe", budget=pb,
            guard_names=("loops",))
        leg = self._unit_family(
            "legality", unit_names, summarize=summarize_unit_legality,
            unit_fallback=fallback_unit_legality,
            summary_type=UnitLegality)
        self._merge_node("legality", leg, merge=merge_unit_legality,
                         fallback=c._fallback_legality,
                         validate=c._validate_legality)
        dead = self._unit_family(
            "deadfields", unit_names, summarize=summarize_unit_usage,
            unit_fallback=fallback_unit_usage, summary_type=UnitUsage)
        self._merge_node("deadfields", dead, merge=merge_unit_usage,
                         fallback=c._fallback_usage,
                         validate=c._validate_usage)

    def _unit_family(self, kind: str, unit_names: list[str], *,
                     summarize, unit_fallback,
                     summary_type) -> list[str]:
        """One summarize node per unit (``legality[a.c]``), each with a
        proportional share of the phase budget and its own summary-cache
        probe — the FE/IPA split of §2, now genuinely concurrent."""
        opts = self.opts
        n = max(len(unit_names), 1)
        share = opts.phase_budget / n \
            if opts.phase_budget is not None else None
        nodes: list[str] = []
        counts: dict[str, int] = {}
        for raw in unit_names:
            occ = counts.get(raw, 0)
            counts[raw] = occ + 1
            gname = f"{kind}[{raw}]"
            node = gname if occ == 0 else f"{kind}[{raw}#{occ}]"

            def unit_fn(ctx, engine, guard, raw=raw, occ=occ,
                        gname=gname):
                program = ctx["fe.assemble"]
                u = _unit_for(program, raw, occ)
                if u is _SKIP:
                    return _SKIP
                cache = self.cache
                key = None
                if cache is not None and self.unit_sources is not None \
                        and raw in self.unit_sources:
                    key = cache.key_for(
                        "summary", kind, raw, self.unit_sources[raw],
                        self.state.get("iface_fp", ""), self.opts_fp)
                    got = cache.load("summary", key)
                    if isinstance(got, summary_type):
                        return got
                    if got is not None:
                        with cache.lock:
                            cache.hits -= 1
                            cache._event("corrupt", "summary", key,
                                         "artifact has the wrong type")
                        cache._discard("summary", key)
                s = guard.run(gname, lambda: summarize(u),
                              lambda: unit_fallback(raw))
                if key is not None and isinstance(s, summary_type) \
                        and not s.demote_all:
                    cache.store("summary", key, s)
                return s

            self._add(node, unit_fn, deps=("fe.assemble",), phase="fe",
                      budget=share, guard_names=(gname,))
            nodes.append(node)
        return nodes

    def _merge_node(self, kind: str, unit_nodes: list[str], *,
                    merge, fallback, validate) -> None:
        """The IPA merge barrier over one unit family."""
        pb = self.opts.phase_budget

        def merge_fn(ctx, engine, guard):
            program = ctx["fe.assemble"]
            summaries = [s for n in unit_nodes
                         if (s := ctx[n]) is not _SKIP]
            res = guard.run(kind, lambda: merge(program, summaries),
                            lambda: fallback(program))
            return validate(program, res, engine)

        self._add(kind, merge_fn,
                  deps=("fe.assemble",) + tuple(unit_nodes),
                  phase="fe", budget=pb, guard_names=(kind,))

    def build_fe_finish(self, fe_key: str) -> None:
        """Store the whole-FE artifact once every FE node is clean.

        Only clean front ends are cached: a contained fault or a budget
        overrun must be recomputed (and re-reported), not replayed
        silently from disk.  The engine snapshot below covers exactly
        the FE nodes built before this one.  ``escape`` depends on this
        node so the stored legality cannot be mutated mid-pickle.
        """
        c, cache = self.c, self.cache
        snapshot = list(self.engines.values())

        def finish_fn(ctx, engine, guard):
            program = ctx["fe.assemble"]
            if not program.frontend_errors \
                    and not any(e.contained() for e in snapshot):
                cache.store("fe", fe_key,
                            (program, ctx["lower"], ctx["loops"],
                             ctx["legality"], ctx["deadfields"]))
            c._cache_diags(cache, engine)
            return None

        self._add("fe.finish", finish_fn,
                  deps=("fe.assemble", "lower", "loops", "legality",
                        "deadfields"),
                  phase="fe")

    # -- IPA + BE ------------------------------------------------------------

    def build_ipa_be(self, has_finish: bool) -> None:
        c, opts = self.c, self.opts
        pb = opts.phase_budget
        self._add(
            "callgraph",
            lambda ctx, e, g: g.run(
                "callgraph",
                lambda: build_call_graph(ctx["lower"],
                                         ctx["fe.assemble"]),
                lambda: CallGraph(cfgs={})),
            deps=("fe.assemble", "lower"), phase="ipa", budget=pb,
            guard_names=("callgraph",))
        # escape mutates legality (ESCP/FAULT reasons), so the whole-FE
        # store must have happened first when a cache is in play
        esc_deps = ("fe.assemble", "legality") \
            + (("fe.finish",) if has_finish else ())
        self._add(
            "escape",
            lambda ctx, e, g: g.run(
                "escape",
                lambda: analyze_escapes(ctx["fe.assemble"],
                                        ctx["legality"]),
                lambda: c._fallback_escape(ctx["legality"])),
            deps=esc_deps, phase="ipa", budget=pb,
            guard_names=("escape",))
        heur_deps = ["fe.assemble", "legality", "deadfields", "escape",
                     "weights", "profiles"]
        if opts.relax_legality:
            self._add(
                "pointsto",
                lambda ctx, e, g: c._relax(ctx["fe.assemble"],
                                           ctx["legality"], g, e),
                deps=("fe.assemble", "legality", "escape"),
                phase="ipa", budget=pb, guard_names=("pointsto",))
            heur_deps.append("pointsto")
        self._add(
            "weights",
            lambda ctx, e, g: g.run(
                "weights",
                lambda: c._weights(ctx["lower"], ctx["callgraph"],
                                   ctx["loops"]),
                lambda: ProgramWeights(scheme=opts.scheme)),
            deps=("lower", "loops", "callgraph"), phase="ipa",
            budget=pb, guard_names=("weights",))

        def profiles_fn(ctx, e, g):
            res = g.run(
                "profiles",
                lambda: compute_profiles(ctx["fe.assemble"],
                                         ctx["lower"], ctx["weights"],
                                         ctx["loops"]),
                dict)
            return c._validate_profiles(res, e)

        self._add("profiles", profiles_fn,
                  deps=("fe.assemble", "lower", "loops", "weights"),
                  phase="ipa", budget=pb, guard_names=("profiles",))

        def heuristics_fn(ctx, e, g):
            program = ctx["fe.assemble"]
            res = g.run(
                "heuristics",
                lambda: decide_transforms(
                    program, ctx["legality"], ctx["deadfields"],
                    ctx["profiles"], ctx["weights"].scheme,
                    opts.params),
                list)
            return c._validate_decisions(program, res, e)

        self._add("heuristics", heuristics_fn, deps=tuple(heur_deps),
                  phase="ipa", budget=pb, guard_names=("heuristics",))
        if opts.search is not None:
            def trace_fn(ctx, e, g):
                return g.run(
                    "search.trace",
                    lambda: capture_trace(ctx["fe.assemble"],
                                          entry=opts.entry),
                    lambda: None)

            self._add("search.trace", trace_fn, deps=("fe.assemble",),
                      phase="be", budget=pb,
                      guard_names=("search.trace",))
            self._add("search.plan", self._search_plan_fn,
                      deps=("fe.assemble", "heuristics", "legality",
                            "profiles", "search.trace"),
                      phase="be")
        else:
            self._add("be.plan", self._plan_fn,
                      deps=("fe.assemble", "heuristics"), phase="be")

    def _search_plan_fn(self, ctx, engine, guard):
        """Grow the search subgraph from the captured trace: one
        ``search[TypeName]`` node per eligible type (each replays the
        shared read-only trace against its own candidate batches, so
        types search concurrently under ``jobs > 1``), a ``search``
        gather node merging the refined decisions back in decision
        order, and ``be.plan`` itself — the BE planner must be
        appended here because a static node cannot depend on
        dynamically added ones."""
        opts = self.opts
        program = ctx["fe.assemble"]
        decisions = ctx["heuristics"]
        legality = ctx["legality"]
        profiles = ctx["profiles"]
        trace = ctx["search.trace"]
        sopts = opts.search
        pb = opts.phase_budget

        eligible = []
        if trace is not None:
            for d in decisions:
                info = legality.types.get(d.type_name)
                profile = profiles.get(d.type_name)
                if info is None or profile is None:
                    continue
                if d.type_name not in trace.record_fields:
                    continue
                if search_mode(program, info, info.record)[0] is None:
                    continue
                eligible.append((d, info, profile))

        budget = getattr(sopts, "budget_s", None)
        if budget is None:
            budget = SEARCH_DEFAULTS["budget_s"]
        budget = float(budget)
        share = budget / len(eligible) if eligible else 0.0

        specs: list[dict] = []
        snodes: list[str] = []
        for d, info, profile in eligible:
            nname = f"search[{d.type_name}]"

            def search_fn(ctx2, e2, g2, d=d, info=info,
                          profile=profile, nname=nname):
                def body():
                    compiled = precompile(trace, d.type_name)
                    deadline = time.monotonic() + share \
                        if budget > 0 else None
                    return search_type(program, compiled, info, d,
                                       profile, sopts,
                                       cache=self.cache,
                                       deadline=deadline)

                return g2.run(nname, body, lambda: None)

            specs.append(self._spec(nname, search_fn,
                                    deps=("search.plan",), phase="be",
                                    budget=pb, guard_names=(nname,)))
            snodes.append(nname)

        def gather_fn(ctx2, e2, g2):
            def body():
                refined = {d.type_name: d for d in decisions}
                stats: dict = {}
                if trace is not None:
                    stats["_trace"] = {
                        "ops": len(trace), "cycles": trace.cycles,
                        "truncated": trace.truncated,
                    }
                for (d, _info, _profile), n in zip(eligible, snodes):
                    out = ctx2[n]
                    if out is None:
                        continue
                    out = dict(out)
                    refined[d.type_name] = out.pop("decision")
                    stats[d.type_name] = out
                return {"decisions": [refined[d.type_name]
                                      for d in decisions],
                        "stats": stats}

            return g2.run(
                "search", body,
                lambda: {"decisions": decisions, "stats": {}})

        specs.append(self._spec(
            "search", gather_fn,
            deps=tuple(snodes) if snodes else ("search.plan",),
            phase="be", budget=pb, guard_names=("search",)))
        specs.append(self._spec(
            "be.plan", self._plan_fn,
            deps=("fe.assemble", "heuristics", "search"), phase="be"))
        ctx.add_nodes(specs)
        return None

    def _plan_fn(self, ctx, engine, guard):
        """Grow the BE subgraph from the decided transforms: one
        ``apply[TypeName]`` node per decision (chained in decision
        order), an ``apply`` gather barrier, and ``verify``."""
        c, opts = self.c, self.opts
        program = ctx["fe.assemble"]
        if opts.search is not None:
            # the search gather already merged its refinements back in
            # decision order; the greedy decisions are its floor
            decisions = ctx["search"]["decisions"]
        else:
            decisions = ctx["heuristics"]
        if not opts.transform:
            return None
        pb = opts.phase_budget
        specs: list[dict] = []
        prev: str | None = None
        for d in decisions:
            if not d.transformed:
                continue
            gname = f"apply[{d.type_name}]"
            specs.append(self._spec(
                gname, self._apply_fn(d, prev, program),
                deps=("be.plan",) if prev is None else (prev,),
                phase="be", budget=pb, guard_names=(gname,)))
            prev = gname
        last = prev

        def gather_fn(ctx2, e2, g2):
            base = ctx2[last] if last is not None else program
            return g2.run(
                "apply", lambda: base,
                lambda: c._demote_all_decisions(
                    program, decisions,
                    "transform application failed"))

        specs.append(self._spec(
            "apply", gather_fn,
            deps=("be.plan",) if last is None else (last,),
            phase="be", budget=pb, guard_names=("apply",)))
        if opts.verify_transforms:
            def verify_fn(ctx2, e2, g2):
                transformed = ctx2["apply"]
                return g2.run(
                    "verify",
                    lambda: c._verify_transforms(
                        program, decisions, transformed, e2,
                        self.rolled_back),
                    lambda: c._demote_all_decisions(
                        program, decisions,
                        "verification machinery failed; transforms "
                        "withheld"))

            specs.append(self._spec("verify", verify_fn,
                                    deps=("apply",), phase="be",
                                    budget=pb,
                                    guard_names=("verify",)))
        ctx.add_nodes(specs)
        return None

    def _apply_fn(self, d: TransformDecision, prev: str | None,
                  program: Program):
        c, opts = self.c, self.opts

        def fn(ctx, engine, guard):
            base = ctx[prev] if prev is not None else program

            def body():
                try:
                    return apply_decisions(base, [d])
                except Exception as exc:
                    if opts.strict:
                        raise FatalCompilerError(
                            "apply", f"transform of {d.type_name!r} "
                                     f"failed: {exc}",
                            cause=exc) from exc
                    engine.warning(
                        "apply",
                        f"{d.action} failed "
                        f"({type(exc).__name__}: {exc}); "
                        f"type left untransformed",
                        type_name=d.type_name, code=CODE_CONTAINED,
                        action="report a rewriter bug with this source")
                    d.notes.append(f"contained apply failure: {exc}")
                    d.action = "none"
                    return base

            return guard.run(f"apply[{d.type_name}]", body,
                             lambda: base)

        return fn


class Compiler:
    """Drives one compilation through the pass DAG.

    ``tracer`` and ``metrics`` are the observability hooks: a
    :class:`~repro.obs.Tracer` collects a ``compile`` → phase → pass
    span tree, and a :class:`~repro.obs.MetricsRegistry` receives
    ``pass.wall_ms`` / ``fe.cache.*`` series.  Both default to off;
    with neither set, the only observability cost is one falsy check
    per guarded pass.
    """

    def __init__(self, options: CompilerOptions | None = None, *,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        self.options = options or CompilerOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics

    @contextmanager
    def _observing(self, token: Any):
        """Subscribe this compile's observers (tracing spans, metrics,
        per-pass profiling) for the duration of one compilation;
        yields ``(profiler, tracing_observer)`` — both None on the
        zero-overhead path."""
        subs: list = []
        profiler = None
        tracing = None
        if self.tracer.enabled:
            profiler = PassProfiler(ctx=token)
            tracing = TracingPassObserver(self.tracer, ctx=token)
            subs += [tracing, profiler]
        if self.metrics is not None:
            subs.append(MetricsPassObserver(self.metrics))
        if not subs:
            yield None, None
            return
        with PASS_EVENTS.subscribed(*subs):
            yield profiler, tracing

    def _finalize_obs(self, result: CompilationResult,
                      profiler) -> CompilationResult:
        if profiler is not None:
            result.pass_profile = profiler.profile
        if self.tracer.enabled:
            result.trace_id = self.tracer.trace_id
        return result

    def compile(self, program: Program) -> CompilationResult:
        return self._entry(program=program)

    def compile_sources(self, sources: list[tuple[str, str]]
                        ) -> CompilationResult:
        """Compile ``[(unit_name, source_text), ...]`` with the parallel
        front end and (when ``cache_dir`` is set) the content-addressed
        summary cache.

        Warm path: an unchanged ``(sources, options)`` pair restores
        the entire FE result — program, CFGs, loop nests, legality and
        usage summaries — from one cache entry (the paper's "IELF
        files" kept between compiles), seeds the DAG with it, and runs
        only the IPA/BE subgraph.  Cache problems of any kind degrade
        to recomputation with a ``CODE_CACHE`` diagnostic; they never
        fail the compile.

        The cache is bypassed while fault injection is armed so
        injected faults always exercise the real passes.
        """
        return self._entry(sources=sources)

    def _entry(self, program: Program | None = None,
               sources: list[tuple[str, str]] | None = None
               ) -> CompilationResult:
        token = object()              # this compile's event identity
        with self._observing(token) as (profiler, tracing):
            with self.tracer.span("compile", category=CAT_COMPILE) as s:
                s.set(scheme=self.options.scheme,
                      units=len(sources) if sources is not None
                      else len(program.units))
                result = self._run(program, sources, s, token, tracing)
            return self._finalize_obs(result, profiler)

    # -- the DAG driver ----------------------------------------------------

    def _run(self, program: Program | None,
             sources: list[tuple[str, str]] | None, compile_span,
             token: Any, tracing) -> CompilationResult:
        opts = self.options
        diags = DiagnosticEngine()
        opts_fp = opts.fingerprint()

        cache: SummaryCache | None = None
        if sources is not None and opts.cache_dir is not None \
                and not FAULTS:
            cache = open_cache(opts.cache_dir)

        # ---- whole-FE cache probe (imperative: it decides the graph) --
        restored = False
        fe_probe = 0.0
        fe_key = ""
        seeded: dict[str, Any] = {}
        if cache is not None:
            t0 = time.perf_counter()
            fe_key = cache.key_for("fe", opts_fp, tuple(sources))
            artifacts = self._load_fe_artifacts(cache, fe_key)
            fe_probe = time.perf_counter() - t0
            if artifacts is not None:
                restored = True
                program, cfgs0, nests0, legality0, usage0 = artifacts
                seeded = {"fe.assemble": program, "lower": cfgs0,
                          "loops": nests0, "legality": legality0,
                          "deadfields": usage0}
                diags.note("fe", "front end restored from summary "
                           "cache", code=CODE_CACHE)
                self._cache_diags(cache, diags)
                if self.tracer.enabled:
                    self.tracer.add_finished(
                        "fe", t0, t0 + fe_probe, category=CAT_PHASE,
                        parent_id=compile_span.span_id,
                        attrs={"restored_from_cache": True})

        # ---- build the graph ------------------------------------------
        graph = _CompileGraph(self, token=token, cache=cache,
                              opts_fp=opts_fp, sources=sources)
        if restored:
            graph.build_ipa_be(has_finish=False)
        elif sources is not None:
            graph.build_fe_sources()
            graph.build_fe_analyses([name for name, _ in sources])
            if cache is not None:
                graph.build_fe_finish(fe_key)
            graph.build_ipa_be(has_finish=cache is not None)
        else:
            self._parse_diags(program, diags)
            seeded = {"fe.assemble": program}
            graph.build_fe_analyses([u.name for u in program.units])
            graph.build_ipa_be(has_finish=False)

        # ---- execute ---------------------------------------------------
        jobs = opts.jobs
        if jobs > 1 and graph.pool_width > 1:
            # pre-warm the fork pool from this (single-threaded-so-far)
            # thread: forking after the scheduler's workers exist risks
            # inheriting held locks into pool children
            process_pool(graph.pool_width)
        boundary_spans: dict[str, Any] = {}
        boundary = None
        if jobs == 1 and self.tracer.enabled:
            def boundary(kind, name, entering):
                if entering:
                    boundary_spans[name] = self.tracer.start(
                        name, category=CAT_PHASE)
                else:
                    sp = boundary_spans.get(name)
                    if sp is not None:
                        self.tracer.finish(sp)
        sched = DagScheduler(jobs, boundary=boundary)
        results, dreport = sched.run(graph.dag, seeded=seeded)

        # ---- merge per-node diagnostics + timings in builder order ----
        pass_timings: dict[str, float] = {}
        for node in sorted(graph.dag.nodes.values(),
                           key=lambda n: n.order):
            e = graph.engines.get(node.name)
            if e is not None and len(e):
                diags.merge(e)
            t = graph.node_timings.get(node.name)
            if t:
                pass_timings.update(t)

        timings = {"fe": fe_probe + dreport.phase_window("fe"),
                   "ipa": dreport.phase_window("ipa"),
                   "be": dreport.phase_window("be")}

        program_out = results["fe.assemble"]
        decisions = results["heuristics"]
        search_stats: dict = {}
        search_out = results.get("search")
        if search_out:
            decisions = search_out["decisions"]
            search_stats = search_out["stats"]
        if "verify" in results:
            transformed = results["verify"]
        elif "apply" in results:
            transformed = results["apply"]
        else:
            transformed = program_out

        if self.tracer.enabled:
            self._emit_spans(graph, dreport, compile_span, tracing,
                             boundary_spans, decisions,
                             graph.rolled_back, jobs)
        if cache is not None:
            self._cache_metrics(cache)

        result = CompilationResult(
            program=program_out, options=opts, cfgs=results["lower"],
            nests=results["loops"], callgraph=results["callgraph"],
            legality=results["legality"], escape=results["escape"],
            usage=results["deadfields"], weights=results["weights"],
            profiles=results["profiles"], decisions=decisions,
            transformed=transformed, timings=timings,
            pass_timings=pass_timings, diagnostics=diags,
            rolled_back=graph.rolled_back,
            fe_report=graph.state.get("fe_report"),
            search=search_stats)
        result.scheduler = {**dreport.to_dict(),
                            "restored_fe": restored}
        return result

    # -- span assembly -----------------------------------------------------

    def _emit_spans(self, graph: _CompileGraph, dreport, compile_span,
                    tracing, boundary_spans: dict, decisions,
                    rolled_back: list[str], jobs: int) -> None:
        """Phase/group spans for the finished run.

        Serial mode opened real nested spans via the scheduler's
        boundary callback — only attributes are filled in here.
        Parallel mode records retroactive phase spans spanning each
        phase's node window, and re-parents pass spans that were opened
        on worker threads (where no phase span was current)."""
        opts = self.options
        rep = graph.state.get("fe_report")
        if jobs == 1:
            ps = boundary_spans.get("fe.parse")
            if ps is not None and rep is not None:
                ps.set(mode=rep.mode, jobs=rep.jobs,
                       parse_cache_hits=rep.parse_cache_hits)
                self._fe_unit_spans(rep, ps.start, ps.span_id)
            ipa = boundary_spans.get("ipa")
            if ipa is not None:
                ipa.set(decisions=len(decisions))
            be = boundary_spans.get("be")
            if be is not None:
                be.set(transform=opts.transform,
                       rolled_back=len(rolled_back))
            return

        stats = dreport.stats
        phase_spans: dict[str, Any] = {}
        for phase in ("fe", "ipa", "be"):
            ss = [s for s in stats.values() if s.phase == phase]
            if not ss:
                continue
            phase_spans[phase] = self.tracer.add_finished(
                phase, min(s.start for s in ss),
                max(s.end for s in ss), category=CAT_PHASE,
                parent_id=compile_span.span_id)
        gs = [s for s in stats.values() if s.group == "fe.parse"]
        fe_span = phase_spans.get("fe")
        if gs and fe_span is not None and rep is not None:
            start = min(s.start for s in gs)
            ps = self.tracer.add_finished(
                "fe.parse", start, max(s.end for s in gs),
                category=CAT_PHASE, parent_id=fe_span.span_id,
                attrs={"mode": rep.mode, "jobs": rep.jobs,
                       "parse_cache_hits": rep.parse_cache_hits})
            self._fe_unit_spans(rep, start, ps.span_id)
        if "ipa" in phase_spans:
            phase_spans["ipa"].set(decisions=len(decisions))
        if "be" in phase_spans:
            phase_spans["be"].set(transform=opts.transform,
                                  rolled_back=len(rolled_back))
        if tracing is not None:
            for sp in tracing.created:
                if sp.parent_id is None:
                    target = phase_spans.get(
                        graph.pass_phase.get(sp.name, ""))
                    if target is not None:
                        sp.parent_id = target.span_id

    def _fe_unit_spans(self, report: FEReport, parse_t0: float,
                       parent_id: str | None = None) -> None:
        """Retro-record one span per translation unit's parse.

        Per-TU parses may have run inside pool subprocesses, where no
        tracer exists; only their durations come back (in
        ``FEReport.unit_elapsed``), so the spans are laid out from the
        parse phase's start on per-unit virtual tracks."""
        if not self.tracer.enabled:
            return
        for i, (name, elapsed) in enumerate(
                sorted(report.unit_elapsed.items())):
            self.tracer.add_finished(
                f"parse[{name}]", parse_t0, parse_t0 + elapsed,
                category=CAT_FE_UNIT, parent_id=parent_id,
                tid=1_000_000 + i,
                attrs={"unit": name,
                       "overrun": name in report.budget_overruns})

    def _cache_metrics(self, cache: SummaryCache) -> None:
        if self.metrics is not None:
            self.metrics.counter("fe.cache.hit").inc(cache.hits)
            self.metrics.counter("fe.cache.miss").inc(cache.misses)

    # -- FE internals ------------------------------------------------------

    @staticmethod
    def _parse_diags(program: Program,
                     diags: DiagnosticEngine) -> None:
        for fe_err in program.frontend_errors:
            diags.error("parse", fe_err.message, unit=fe_err.unit,
                        line=fe_err.line or None, code=CODE_PARSE,
                        action="fix the source and recompile")

    @staticmethod
    def _fe_report_diags(report: FEReport, diags: DiagnosticEngine,
                         unit_budget: float | None) -> None:
        if report.mode == "legacy" and report.fallback_reason:
            diags.note(
                "parse",
                f"parallel front end fell back to the serial parser: "
                f"{report.fallback_reason}")
        for name in report.budget_overruns:
            diags.warning(
                "parse",
                f"unit {name} exceeded its "
                f"{unit_budget:.3f}s front-end budget share"
                if unit_budget is not None else
                f"unit {name} exceeded its front-end budget share",
                unit=name, code=CODE_BUDGET,
                action="raise phase_budget or split the unit")

    @staticmethod
    def _load_fe_artifacts(cache: SummaryCache, fe_key: str):
        """The cached whole-FE artifact tuple, validated, or None."""
        blob = cache.load("fe", fe_key)
        if blob is None:
            return None
        if not (isinstance(blob, tuple) and len(blob) == 5
                and isinstance(blob[0], Program)
                and isinstance(blob[1], dict)
                and isinstance(blob[2], dict)
                and isinstance(blob[3], LegalityResult)
                and isinstance(blob[4], UsageResult)):
            with cache.lock:
                cache.hits -= 1       # reclassify: that was no hit
                cache._event("corrupt", "fe", fe_key,
                             "artifact has the wrong shape")
            cache._discard("fe", fe_key)
            return None
        return blob

    @staticmethod
    def _cache_diags(cache: SummaryCache,
                     diags: DiagnosticEngine) -> None:
        for e in cache.drain_events():
            if e.kind == "corrupt":
                diags.warning(
                    "cache",
                    f"corrupt cache entry discarded and recomputed "
                    f"({e})", code=CODE_CACHE,
                    action="delete the cache directory if this "
                           "persists")
            elif e.kind == "io-error":
                diags.note("cache", f"cache I/O problem ({e})",
                           code=CODE_CACHE)
        if cache.hits or cache.misses:
            diags.note("cache",
                       f"summary cache: {cache.hits} hit(s), "
                       f"{cache.misses} miss(es)", code=CODE_CACHE)

    @staticmethod
    def _interface_fingerprint(program: Program) -> str:
        """Hash of the cross-unit facts a per-TU summary can depend on:
        record layouts, typedefs, function signatures (and libc-ness),
        and global types.  A per-TU summary is reusable as long as the
        unit's source and this interface are unchanged."""
        recs = [(name,
                 [(f.name, str(f.type), f.bit_width)
                  for f in rec.fields])
                for name, rec in program.records.items()]
        tds = [(n, str(t.aliased))
               for n, t in program.typedefs.items()]
        fns = sorted(
            (n, str(s.type), bool(getattr(s, "is_libc", False)),
             bool(getattr(s, "is_builtin", False)))
            for n, s in program.symbols.functions.items())
        gls = sorted((n, str(s.type))
                     for n, s in program.symbols.globals.items())
        return fingerprint("iface", recs, tds, fns, gls)

    # -- conservative fallbacks -------------------------------------------

    @staticmethod
    def _fallback_legality(program: Program) -> LegalityResult:
        """Every type demoted to illegal: nothing will be transformed."""
        res = LegalityResult(program=program)
        for name, rec in program.records.items():
            res.types[name] = TypeInfo(record=rec,
                                       invalid_reasons={FAULT_REASON})
        return res

    @staticmethod
    def _fallback_usage(program: Program) -> UsageResult:
        """Every field counted as read and written: nothing removable."""
        res = UsageResult()
        for name, rec in program.records.items():
            fu = FieldUsage(record=rec)
            for f in rec.fields:
                fu.refs[f.name] = FieldRefs(reads=1, writes=1)
            res.types[name] = fu
        return res

    @staticmethod
    def _fallback_escape(legality: LegalityResult) -> EscapeResult:
        """Escape analysis failed: assume every type escaped."""
        for info in legality.types.values():
            info.invalid_reasons.add(FAULT_REASON)
        return EscapeResult()

    @staticmethod
    def _demote_all_decisions(program: Program,
                              decisions: list[TransformDecision],
                              why: str) -> Program:
        for d in decisions:
            if d.transformed:
                d.notes.append(f"demoted ({why})")
                d.action = "none"
        return program

    # -- summary validation (catches corrupted results) --------------------

    def _validate_legality(self, program: Program,
                           legality: LegalityResult,
                           diags: DiagnosticEngine) -> LegalityResult:
        known = set(ALL_REASONS) | {FAULT_REASON, "ESCP"}
        if not isinstance(legality, LegalityResult) \
                or not isinstance(getattr(legality, "types", None), dict):
            diags.warning("legality",
                          "summary failed validation; all types "
                          "demoted", code=CODE_CORRUPT)
            return self._fallback_legality(program)
        for name, rec in program.records.items():
            info = legality.types.get(name)
            if info is None:
                legality.types[name] = TypeInfo(
                    record=rec, invalid_reasons={FAULT_REASON})
                diags.warning(
                    "legality", "type missing from summary; demoted",
                    type_name=name, code=CODE_CORRUPT)
            elif not info.invalid_reasons <= known:
                info.invalid_reasons.add(FAULT_REASON)
                diags.warning(
                    "legality",
                    f"unknown violation codes "
                    f"{sorted(info.invalid_reasons - known)}; demoted",
                    type_name=name, code=CODE_CORRUPT)
        return legality

    def _validate_usage(self, program: Program, usage: UsageResult,
                        diags: DiagnosticEngine) -> UsageResult:
        if not isinstance(usage, UsageResult) \
                or not isinstance(getattr(usage, "types", None), dict):
            diags.warning("deadfields",
                          "summary failed validation; no fields "
                          "removable", code=CODE_CORRUPT)
            return self._fallback_usage(program)
        for name, fu in list(usage.types.items()):
            rec = program.records.get(name)
            if rec is None:
                continue
            fields = {f.name for f in rec.fields}
            if not set(fu.refs) <= fields:
                diags.warning(
                    "deadfields",
                    "summary names unknown fields; type made "
                    "conservative", type_name=name, code=CODE_CORRUPT)
                repaired = FieldUsage(record=rec)
                for f in rec.fields:
                    repaired.refs[f.name] = FieldRefs(reads=1, writes=1)
                usage.types[name] = repaired
        return usage

    @staticmethod
    def _validate_profiles(profiles: dict[str, TypeProfile],
                           diags: DiagnosticEngine
                           ) -> dict[str, TypeProfile]:
        if not isinstance(profiles, dict):
            diags.warning("profiles",
                          "summary failed validation; discarded",
                          code=CODE_CORRUPT)
            return {}
        ok: dict[str, TypeProfile] = {}
        for name, prof in profiles.items():
            counts = list(prof.read_counts.values()) \
                + list(prof.write_counts.values())
            if any(not math.isfinite(c) or c < 0.0 for c in counts):
                diags.warning(
                    "profiles",
                    "non-finite or negative hotness; profile "
                    "discarded, type will not be transformed",
                    type_name=name, code=CODE_CORRUPT)
                continue
            ok[name] = prof
        return ok

    @staticmethod
    def _validate_decisions(program: Program,
                            decisions: list[TransformDecision],
                            diags: DiagnosticEngine
                            ) -> list[TransformDecision]:
        if not isinstance(decisions, list):
            diags.warning("heuristics",
                          "decision list failed validation; discarded",
                          code=CODE_CORRUPT)
            return []
        ok: list[TransformDecision] = []
        for d in decisions:
            if not isinstance(d, TransformDecision):
                diags.warning("heuristics",
                              "non-decision entry dropped",
                              code=CODE_CORRUPT)
                continue
            rec = program.records.get(d.type_name)
            if d.transformed and rec is not None:
                fields = {f.name for f in rec.fields}
                named = set(d.dead_fields) | set(d.cold_fields) | \
                    set(f for g in (d.groups or []) for f in g)
                if not named <= fields:
                    diags.warning(
                        "heuristics",
                        f"decision names unknown fields "
                        f"{sorted(named - fields)}; demoted",
                        type_name=d.type_name, code=CODE_CORRUPT)
                    d.notes.append("demoted: named unknown fields")
                    d.action = "none"
            ok.append(d)
        return ok

    # -- guarded pass bodies ----------------------------------------------

    def _relax(self, program: Program, legality: LegalityResult,
               guard: PhaseGuard, diags: DiagnosticEngine) -> None:
        """Clear the relaxable violations for types whose points-to
        sets did not collapse — the sharper legality the paper
        estimates an upper bound for with its internal flag.  Runs
        under containment: any points-to failure (including the
        fixpoint iteration cap) simply skips relaxation, keeping the
        conservative violations in place."""
        from ..analysis.pointsto import analyze_points_to
        opts = self.options
        pointsto = guard.run(
            "pointsto",
            lambda: analyze_points_to(
                program, max_sweeps=opts.pointsto_max_sweeps),
            lambda: None)
        if pointsto is None:
            diags.note("pointsto",
                       "relaxation skipped: analysis unavailable",
                       code=CODE_CONTAINED)
            return
        from ..analysis.legality import RELAXABLE_REASONS
        for info in legality.types.values():
            if info.invalid_reasons and \
                    info.invalid_reasons <= RELAXABLE_REASONS and \
                    pointsto.is_field_safe(info.name):
                info.invalid_reasons.clear()

    def _weights(self, cfgs, callgraph, nests) -> ProgramWeights:
        opts = self.options
        scheme = opts.scheme
        if scheme in ("PBO", "PPBO"):
            return match_feedback(cfgs, opts.feedback, scheme=scheme)
        if scheme == "SPBO":
            return estimate_spbo(cfgs, nests)
        if scheme == "ISPBO":
            return estimate_ispbo(cfgs, callgraph, nests,
                                  entry=opts.entry)
        if scheme == "ISPBO.NO":
            return estimate_ispbo(cfgs, callgraph, nests, exponent=1.0,
                                  entry=opts.entry)
        if scheme == "ISPBO.W":
            return estimate_ispbo_w(cfgs, callgraph, nests,
                                    entry=opts.entry)
        raise ValueError(f"unknown scheme {scheme!r}")

    # -- differential rollback --------------------------------------------

    def _verify_transforms(self, program: Program,
                           decisions: list[TransformDecision],
                           transformed: Program,
                           diags: DiagnosticEngine,
                           rolled_back: list[str]) -> Program:
        """Execute original vs transformed with a bounded cycle budget;
        on any divergence or trap, bisect the decision list, roll back
        the offending decision(s), and re-apply the rest."""
        from ..runtime.run import try_run_program
        opts = self.options
        active = [d for d in decisions if d.transformed]
        if not active:
            return transformed
        base = try_run_program(program,
                               cycle_limit=opts.verify_cycle_base,
                               entry=opts.entry)
        if base.trap == "StepLimitExceeded":
            diags.warning(
                "verify",
                f"original program exceeds the "
                f"{opts.verify_cycle_base:,}-cycle verification "
                f"budget; verification inconclusive, transforms kept",
                code=CODE_VERIFY,
                action="raise verify_cycle_base to verify this program")
            return transformed
        if base.trap is not None:
            diags.note(
                "verify",
                f"original program not executable ({base.trap}); "
                f"differential verification skipped", code=CODE_VERIFY)
            return transformed
        budget = int(base.cycles * opts.verify_cycle_factor) \
            + opts.verify_cycle_slack

        def outcome_of(prog: Program):
            return try_run_program(prog, cycle_limit=budget,
                                   entry=opts.entry)

        def equivalent(out) -> bool:
            return (out.trap is None and out.stdout == base.stdout
                    and out.exit_code == base.exit_code)

        def prefix_fails(k: int) -> bool:
            if k == 0:
                return False
            try:
                prog = apply_decisions(program, active[:k])
            except Exception:
                return True
            return not equivalent(outcome_of(prog))

        current = transformed
        out = outcome_of(current)
        while not equivalent(out):
            if not active:
                # identity compile still diverges: the divergence is
                # not caused by any decision (should be impossible on
                # the deterministic machine)
                diags.error(
                    "verify",
                    "program diverges from itself with no transforms "
                    "applied; emitting the original",
                    code=CODE_VERIFY)
                return program
            if self.options.strict:
                raise FatalCompilerError(
                    "verify",
                    f"transformed program diverged "
                    f"(trap={out.trap}, exit={out.exit_code})")
            # bisect: smallest k with apply(active[:k]) diverging
            lo, hi = 0, len(active)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if prefix_fails(mid):
                    hi = mid
                else:
                    lo = mid
            offender = active.pop(hi - 1)
            rolled_back.append(offender.type_name)
            why = f"trap {out.trap}" if out.trap is not None \
                else "output mismatch"
            diags.warning(
                "verify",
                f"rolled back {offender.action}: transformed program "
                f"diverged ({why})", type_name=offender.type_name,
                code=CODE_ROLLBACK,
                action="report a rewriter/legality bug for this type")
            offender.notes.append(
                f"rolled back by differential verification ({why})")
            offender.action = "none"
            try:
                current = apply_decisions(program, active)
            except Exception:
                # re-application failed without the offender: demote
                # everything that is left and emit the original
                for d in active:
                    rolled_back.append(d.type_name)
                    d.notes.append("rolled back: re-application failed")
                    d.action = "none"
                active = []
                current = program
            out = outcome_of(current)
        return current
