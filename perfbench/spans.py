"""Traced-run tooling: spans around the calls into each layer.

Only a traced pass calls :func:`install`; an untraced pass never
imports the wrappers, so its timings carry no tracing cost.  While
installed, every wrapped call appends one span ``[name, start, end,
parent, request]`` to an in-memory list: ``parent`` is the index of
the enclosing span on the same thread, ``request`` the id of the
benchmark request being served.  :meth:`Recorder.dump` writes the
spans out as JSON lines once the run is over.

A layer's *self time* is its span's duration minus the time covered
by its child spans.  Spans nest strictly on one thread (the compiler
runs its pass DAG inline with ``jobs=1``), so the covered time is the
sum of the children's durations.

Counters are taken at the same boundaries (tokens lexed, cache hits,
simulated cycles and accesses, trace ops replayed, ...), so ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro import advisor, profit, transform
from repro.advisor import report as advisor_report_mod
from repro.core import fe as core_fe
from repro.core import pipeline
from repro.core.summarycache import SummaryCache
from repro.frontend import lexer, parser, program as fe_program
from repro.frontend.sema import SemanticAnalyzer
from repro.profit import feedback
from repro.runtime import codegen, replay, run as runtime_run
from repro.transform import heuristics, search, unparse

_perf = time.perf_counter


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, request=None):
        stack = self._stack()
        if request is None:
            request = getattr(self._local, "request", None)
        else:
            self._local.request = request
        parent = stack[-1] if stack else None
        rec = [name, _perf(), None, parent, request]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = _perf()
            stack.pop()

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` encloses the caller."""
        return any(self.spans[i][0] == name for i in self._stack())

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- derived -----------------------------------------------------------

    def times(self) -> tuple[dict, dict, dict]:
        """Per span name: (total self seconds, total inclusive
        seconds, number of spans)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _rid in self.spans:
            if parent is not None and t1 is not None:
                child[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        incl_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for i, (name, t0, t1, _p, _rid) in enumerate(self.spans):
            if t1 is None:
                continue
            self_s[name] += max(0.0, (t1 - t0) - child[i])
            incl_s[name] += t1 - t0
            calls[name] += 1
        return self_s, incl_s, calls

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, rid in self.spans:
                f.write(json.dumps({"name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "request": rid}) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _wrap(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(rec, args, out)
        return out
    return wrapper


def _count_tokens(rec, _args, tokens):
    rec.count("tokens", len(tokens))


def _cache_outcome(rec, _args, value):
    rec.count("cache_misses" if value is None else "cache_hits")


def _compile_timings(rec, _args, result):
    """Sum what the compiler measured itself; keeping the results
    alive instead would slow the traced pass with GC work."""
    for phase, secs in result.timings.items():
        rec.count(f"phase:{phase}", secs)
    for name, secs in result.pass_timings.items():
        rec.count(f"pass:{name.split('[', 1)[0]}", secs)
    rec.count("critical_path_ms",
              result.scheduler.get("critical_path_ms", 0.0))


def _trace_ops(rec, _args, trace):
    rec.count("trace_ops", len(trace))


def _batch_size(rec, args, scores):
    compiled = args[0]
    rec.count("replay_candidates", len(scores))
    rec.count("replay_op_evals", len(compiled.ops) * len(scores))


def _wrap_exec(rec: Recorder, fn):
    """``CompiledProgram.run``: span plus the machine's exact counts,
    taken even when the run traps."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        with rec.span("runtime.exec") as sp:
            try:
                return fn(self, *args, **kwargs)
            finally:
                sp[2] = _perf()
                m = self.machine
                rec.count("runs")
                rec.count("sim_cycles", m.cycles)
                rec.count("accesses", m.cache.accesses)
                rec.count("exec_s", sp[2] - sp[1])
                for lvl in m.cache.levels:
                    key = lvl.config.name.lower()
                    rec.count(f"{key}_hits", lvl.hits)
                    rec.count(f"{key}_misses", lvl.misses)
    return wrapper


def _wrap_verify_run(rec: Recorder, fn):
    """``try_run_program`` counts as a verification run only when a
    compile encloses it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.inside("core.compile"):
            return fn(*args, **kwargs)
        with rec.span("core.verify_run"):
            return fn(*args, **kwargs)
    return wrapper


def _targets(rec: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every patch.  A function
    imported by name into another module is patched in each module
    that holds a reference to it."""
    out = []

    def fn_in(owners, attr, name, after=None):
        original = getattr(owners[0], attr)
        wrapped = _wrap(rec, name, original, after)
        for owner in owners:
            out.append((owner, attr, wrapped))

    fn_in([lexer, parser, fe_program, core_fe], "tokenize",
          "frontend.lex", _count_tokens)
    fn_in([parser.Parser], "parse_translation_unit", "frontend.parse")
    fn_in([SemanticAnalyzer], "analyze", "frontend.sema")
    fn_in([pipeline.Compiler], "compile", "core.compile",
          _compile_timings)
    fn_in([pipeline.Compiler], "compile_sources", "core.compile",
          _compile_timings)
    fn_in([SummaryCache], "load", "core.cache_get", _cache_outcome)
    fn_in([SummaryCache], "store", "core.cache_put")
    fn_in([heuristics, pipeline, transform], "apply_decisions",
          "transform.apply")
    fn_in([unparse, transform], "program_sources", "transform.unparse")
    fn_in([advisor_report_mod, advisor], "advisor_report",
          "advisor.report")
    fn_in([feedback, profit], "collect_feedback", "runtime.feedback")
    fn_in([replay, pipeline, search], "capture_trace", "replay.capture",
          _trace_ops)
    fn_in([replay, pipeline, search], "precompile", "replay.precompile")
    fn_in([replay, search], "replay_batch", "replay.batch", _batch_size)
    fn_in([codegen.CompiledProgram], "__init__", "runtime.codegen")
    out.append((codegen.CompiledProgram, "run",
                _wrap_exec(rec, codegen.CompiledProgram.run)))
    out.append((runtime_run, "try_run_program",
                _wrap_verify_run(rec, runtime_run.try_run_program)))
    return out


@contextmanager
def install(rec: Recorder):
    """Patch every layer boundary for the duration of the block."""
    saved = []
    try:
        for owner, attr, replacement in _targets(rec):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
