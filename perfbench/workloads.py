"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs, issues requests
through repro's public entry points, and checks what came back:

- ``compile``: cold ``transform`` requests on the large-source
  programs' ``ref`` sources plus two seeded synthetic multi-unit ones.
- ``simulate``: a PBO ``advise`` and a verified ``compare`` on each of
  mcf, art and moldyn (``train``).
- ``search``: simulated-annealing layout search on mcf and moldyn
  (``train``) with a fixed number of proposals.
- ``serve``: two closed-loop clients sending seeded ``analyze`` /
  ``advise`` requests to a two-daemon farm.

Requests reach library functions through module attributes
(``profit.collect_feedback``, not a name imported at load time), so
the traced pass's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import random
import resource
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import advisor, profit, runtime, transform
from repro.api import (
    CompileOptions, CompileRequest, SearchOptions, Session,
)
from repro.core.pipeline import CompilerOptions
from repro.frontend.program import Program
from repro.service.router import Farm
from repro.service.server import ServiceClient
from repro.workloads import ALL_WORKLOADS, get_workload

from checks import digest

#: how many times set-up is repeated; set-up time is the median
SETUP_REPEATS = 3


@dataclass
class Request:
    label: str
    #: source kilobytes the request compiles
    kb: float
    fn: object


@dataclass
class Sample:
    client: int
    round: int
    label: str
    kb: float
    #: wall seconds
    latency_s: float
    info: dict = field(default_factory=dict)
    error: str | None = None
    #: ``time.perf_counter()`` when the request was sent
    start: float = 0.0
    #: reference seconds per wall second around the request
    scale: float = 1.0


@dataclass
class Context:
    seed: int
    #: scratch directory inside the checkout, removed at exit
    scratch: Path
    ledger: object
    expected: dict
    #: pids of the benchmark's own helper processes (``clock.py``),
    #: which are no part of the program under test
    helpers: set = field(default_factory=set)


def source_kb(sources) -> float:
    return sum(len(text) for _name, text in sources) / 1024.0


def diagnostics_error(diags: list[dict]) -> str | None:
    for d in diags:
        if d.get("severity") in ("error", "fatal"):
            return f"{d.get('phase')}: {d.get('message')}"
    return None


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 1.0                     # the empty product
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed_median(fn, repeats: int = SETUP_REPEATS):
    """(median seconds, last result) of ``repeats`` calls."""
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def simulate(ctx: Context, sources) -> dict:
    """Stdout and cycles of one full simulated run, memoized in the
    ledger by the program text (the simulator is deterministic; the
    ``simulate`` workload checks that on every run)."""
    key = "run:" + digest(sources)
    hit = ctx.ledger.memo(key)
    if hit is None:
        r = runtime.run_program(Program.from_sources(sources))
        hit = {"stdout": r.stdout, "cycles": r.cycles}
        ctx.ledger.remember(key, hit)
    return hit


def synthetic_sources(seed: str, n_units: int = 6,
                      structs_per_unit: int = 100,
                      funcs_per_unit: int = 5):
    """A parse-heavy multi-unit program, like
    ``benchmarks/bench.py:make_sources``.  The seed picks which structs
    the functions touch (distinct ones, all of the same shape) and
    ``main``'s loop bound, so the compiler makes the same decisions,
    at the same cost, for every seed.  Returns ``(sources,
    expected_stdout)``."""
    rng = random.Random(f"synthetic:{seed}")
    n = rng.randint(3, 9)
    fields = "".join(f" int f{i}; long g{i}; char c{i};" for i in range(4))
    sources = []
    for u in range(n_units):
        lines = [f"struct t{u}_{s} {{{fields} struct t{u}_{s} *next; }};"
                 for s in range(structs_per_unit)]
        for f, s in enumerate(rng.sample(range(structs_per_unit),
                                         funcs_per_unit)):
            lines.append(f"""
int use{u}_{f}(int n) {{
  struct t{u}_{s} *p = (struct t{u}_{s}*)malloc(sizeof(struct t{u}_{s}));
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {{
    p->f0 = i; p->g1 = i + 1; acc = acc + p->f0;
  }}
  free(p);
  return acc;
}}""")
        if u == 0:
            lines.append(f'int main() {{ printf("%d\\n", use0_0({n})); '
                         f'return 0; }}')
        sources.append((f"u{u}.c", "\n".join(lines) + "\n"))
    return sources, f"{n * (n - 1) // 2}\n"


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    clients = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.seed = ctx.seed
        self.inputs: list = []

    def generate(self) -> list:
        """``[(label, sources), ...]`` from the seed."""
        raise NotImplementedError

    def setup(self) -> float:
        """Build the inputs; returns set-up seconds (median of
        repeats) beyond the imports."""
        t, self.inputs = timed_median(self.generate)
        return t

    def round(self, client: int, index: int) -> list[Request]:
        """Every input once, in a seeded order."""
        order = list(self.inputs)
        random.Random(f"{self.seed}:{client}:{index}").shuffle(order)
        return [Request(label, source_kb(src),
                        lambda label=label, src=src:
                        self.request(label, src))
                for label, src in order]

    def request(self, label: str, sources) -> dict:
        raise NotImplementedError

    def begin_pass(self, traced: bool) -> None:
        pass

    def end_pass(self, traced: bool) -> None:
        pass

    def check(self, samples: list[Sample]) -> None:
        """Output and determinism checks; sets ``Sample.error``."""

    def fact(self, sample: Sample, key: str, value) -> None:
        if not self.ctx.ledger.fact(key, value) and sample.error is None:
            sample.error = f"determinism: {key} drifted"

    def layout_speedup(self, samples: list[Sample]) -> float:
        return 1.0

    def traced_metrics(self, samples: list[Sample]) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> list[str]:
        """Release everything; returns teardown failures."""
        return []


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

class CompileWorkload(Workload):
    name = "compile"
    PROGRAMS = ("povray", "cactusADM", "lucille", "sphinx", "gobmk",
                "h264avc", "calculix")

    #: seeded synthetic programs per round.  Two of the same shape make
    #: nine requests a round, so the median falls inside the synthetic
    #: programs' latencies instead of in the gap between two programs
    SYNTHETIC = 2

    def generate(self):
        inputs = [(name, get_workload(name).sources("ref"))
                  for name in self.PROGRAMS]
        self.synthetic_stdout = {}
        for k in range(self.SYNTHETIC):
            label = f"synthetic-{self.seed}-{k}"
            sources, self.synthetic_stdout[label] = \
                synthetic_sources(f"{self.seed}-{k}")
            inputs.append((label, sources))
        return inputs

    def request(self, label, sources):
        cache_dir = tempfile.mkdtemp(prefix="c", dir=self.ctx.scratch)
        reply = Session(cache_dir=cache_dir).execute(CompileRequest(
            op="transform", sources=sources,
            options=CompileOptions(verify=False, jobs=1)))
        return {"status": diagnostics_error(reply.diagnostics)
                or reply.status,
                "transformed": reply.payload["transformed_sources"],
                "layout": reply.payload["transformed_types"]}

    def check(self, samples):
        for s in samples:
            if s.error:
                continue
            run = simulate(self.ctx, [tuple(x)
                                      for x in s.info["transformed"]])
            want = self.synthetic_stdout.get(s.label) \
                or self.ctx.expected[f"{s.label}/ref"]["stdout"]
            if run["stdout"] != want:
                s.error = "transformed program's stdout differs from " \
                          "the original's"
            self.fact(s, f"compile:{s.label}:layout", s.info["layout"])
            self.fact(s, f"compile:{s.label}:output",
                      digest(s.info["transformed"]))
            self.fact(s, f"compile:{s.label}:cycles", run["cycles"])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class SimulateWorkload(Workload):
    name = "simulate"
    PROGRAMS = ("181.mcf", "179.art", "moldyn")

    def generate(self):
        return [(name, get_workload(name).sources("train"))
                for name in self.PROGRAMS]

    def round(self, client, index):
        reqs = []
        for label, src in self.inputs:
            kb = source_kb(src)
            reqs.append(Request(f"advise:{label}", kb,
                                lambda src=src: self.advise(src)))
            reqs.append(Request(f"compare:{label}", kb,
                                lambda src=src: self.compare(src)))
        random.Random(f"{self.seed}:{client}:{index}").shuffle(reqs)
        return reqs

    @staticmethod
    def advise(sources) -> dict:
        program = Program.from_sources(sources)
        fb = profit.collect_feedback(program)
        result = Session(CompilerOptions(
            scheme="PBO", feedback=fb,
            transform=False)).compile_sources(sources)
        report = advisor.advisor_report(result, feedback=fb)
        return {"status": "error" if result.diagnostics.has_errors
                else "ok",
                "instrumented_cycles": fb.instrumented_cycles,
                "plan": [[d.type_name, d.action, d.cold_fields,
                          d.dead_fields] for d in result.decisions],
                "report": digest(report)}

    @staticmethod
    def compare(sources) -> dict:
        reply = Session().execute(
            CompileRequest(op="compare", sources=sources))
        c = reply.payload["compare"]
        return {"status": diagnostics_error(reply.diagnostics)
                or reply.status,
                "before": c["before_cycles"], "after": c["after_cycles"],
                "output": c["output"], "mismatch": c["mismatch"],
                "layout": reply.payload["transformed_types"],
                "rolled_back": reply.payload["rolled_back"]}

    def check(self, samples):
        for s in samples:
            if s.error:
                continue
            op, prog = s.label.split(":", 1)
            want = self.ctx.expected[f"{prog}/train"]
            if op == "compare":
                if s.info["output"] != want["stdout"]:
                    s.error = "original program's stdout differs from " \
                              "expected.json"
                elif s.info["before"] != want["cycles"]:
                    s.error = (f"original program ran {s.info['before']}"
                               f" cycles, expected {want['cycles']}")
                elif s.info["mismatch"]:
                    s.error = "transformed program's stdout differs " \
                              "from the original's"
                for key in ("after", "layout", "rolled_back"):
                    self.fact(s, f"simulate:{prog}:{key}", s.info[key])
            else:
                for key in ("instrumented_cycles", "plan", "report"):
                    self.fact(s, f"simulate:{prog}:{key}", s.info[key])

    def layout_speedup(self, samples):
        return geomean(s.info["before"] / s.info["after"]
                       for s in samples if s.label.startswith("compare")
                       and not s.error)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

class SearchWorkload(Workload):
    name = "search"
    PROGRAMS = ("181.mcf", "moldyn")
    #: a fixed proposal count (one batch of 4, no re-heat) instead of a
    #: wall-clock budget, so every run makes the same evaluations
    SEARCH = dict(engine="sa", budget_s=0, sa_batch=4, sa_iters=1,
                  sa_restarts=0)

    def generate(self):
        return [(name, get_workload(name).sources("train"))
                for name in self.PROGRAMS]

    def options(self, search) -> CompilerOptions:
        return CompileOptions(verify=False, cache=False, jobs=1,
                              search=search).compiler_options("full")

    def request(self, label, sources):
        search = SearchOptions(seed=self.seed, **self.SEARCH)
        result = Session(self.options(search)).compile_sources(sources)
        stats = {t: {k: v for k, v in st.items()
                     if k in ("evals", "memo_hits", "cache_hits",
                              "best_cycles", "greedy_cycles",
                              "best_fingerprint", "elapsed_s")}
                 for t, st in result.search.items() if t != "_trace"}
        return {"status": "error" if result.diagnostics.has_errors
                else "ok",
                "trace": result.search.get("_trace", {}),
                "search": stats,
                "decisions": result.decisions,
                # a transform request answers with the unparsed program
                "transformed": transform.program_sources(
                    result.transformed)}

    def check(self, samples):
        for s in samples:
            if s.error:
                continue
            want = self.ctx.expected[f"{s.label}/train"]
            trace = s.info["trace"]
            run = simulate(self.ctx, s.info["transformed"])
            s.info["full_cycles"] = run["cycles"]
            if trace.get("cycles") != want["cycles"] \
                    or trace.get("truncated"):
                s.error = (f"traced run of the original took "
                           f"{trace.get('cycles')} cycles, expected "
                           f"{want['cycles']}")
            elif run["stdout"] != want["stdout"]:
                s.error = "searched program's stdout differs from the " \
                          "original's"
            key = f"search:{s.label}:seed{self.seed}"
            self.fact(s, f"{key}:trace_ops", trace.get("ops"))
            self.fact(s, f"{key}:cycles", run["cycles"])
            for t, st in s.info["search"].items():
                for k in ("evals", "best_cycles", "best_fingerprint"):
                    self.fact(s, f"{key}:{t}:{k}", st[k])

    def traced_metrics(self, samples):
        ok = [s for s in samples if not s.error]
        stats = [st for s in ok for st in s.info["search"].values()]
        evals = sum(st["evals"] for st in stats)
        asked = sum(st["evals"] + st["memo_hits"] + st["cache_hits"]
                    for st in stats)
        busy = sum(st["elapsed_s"] for st in stats)
        errors = [abs(st["best_cycles"] - s.info["full_cycles"])
                  / s.info["full_cycles"] * 100.0
                  for s in ok for st in s.info["search"].values()]
        return {
            "search.evals": evals / max(1, len(ok)),
            "search.evals_per_s": evals / busy if busy else 0.0,
            "search.memo_hit_ratio":
                sum(st["memo_hits"] for st in stats) / asked
                if asked else 0.0,
            "search.oracle_error_pct":
                statistics.fmean(errors) if errors else 0.0,
            "search.gain_pct": self.gain_pct(ok),
        }

    def gain_pct(self, samples) -> float:
        """Percent fewer fully simulated ``ref`` cycles for the layout
        the search chose on ``train`` than for the greedy layout, mean
        over the programs.  Both layouts are applied to the ``ref``
        program and checked against its expected stdout."""
        first = {}
        for s in samples:
            first.setdefault(s.label, s)
        gains = []
        for label, s in sorted(first.items()):
            greedy = Session(self.options(None)).compile_sources(
                dict(self.inputs)[label]).decisions
            ref = Program.from_sources(get_workload(label).sources("ref"))
            want = self.ctx.expected[f"{label}/ref"]["stdout"]
            cycles = []
            for decisions in (s.info["decisions"], greedy):
                run = simulate(self.ctx, transform.program_sources(
                    transform.apply_decisions(ref, decisions)))
                if run["stdout"] != want:
                    s.error = "ref program under a searched or greedy " \
                              "layout changed its stdout"
                cycles.append(run["cycles"])
            gain = 100.0 * (1.0 - cycles[0] / cycles[1])
            self.fact(s, f"search:{label}:seed{self.seed}:gain_pct",
                      round(gain, 9))
            gains.append(gain)
        return statistics.fmean(gains) if gains else 0.0


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def _proc_table() -> dict[int, tuple[int, str]]:
    """pid -> (parent pid, start time) for every visible process that
    has not exited (zombies excluded)."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        rest = stat.rsplit(")", 1)[1].split()
        if rest[0] != "Z":
            table[int(entry)] = (int(rest[1]), rest[19])
    return table


def descendants(skip=frozenset()) -> dict[int, str]:
    """pid -> start time of every live descendant of this process,
    leaving out the processes in ``skip``."""
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _start) in table.items():
        children.setdefault(ppid, []).append(pid)
    out = {}
    todo = [os.getpid()]
    while todo:
        for child in children.get(todo.pop(), []):
            if child in skip:
                continue
            out[child] = table[child][1]
            todo.append(child)
    return out


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class ServeWorkload(Workload):
    name = "serve"
    clients = 2
    DAEMONS = 2
    OPS = ("analyze", "advise")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.farm: Farm | None = None
        self.conns: list[ServiceClient] = []
        #: every farm process seen, pid -> start time
        self.seen: dict[int, str] = {}
        self.failures: list[str] = []
        self.cache_before: dict = {}
        self.cache_ratio = 0.0

    def generate(self):
        return [(w.name, w.sources("train")) for w in ALL_WORKLOADS]

    def setup(self):
        gen_s = super().setup()
        starts = []
        for attempt in range(SETUP_REPEATS):
            run_dir = tempfile.mkdtemp(prefix="f", dir=self.ctx.scratch)
            farm = Farm(run_dir, daemons=self.DAEMONS, pool_size=1)
            self.farm = farm
            t0 = time.perf_counter()
            farm.start()
            starts.append(time.perf_counter() - t0)
            self.seen.update(self.farm_processes())
            if attempt < SETUP_REPEATS - 1:
                self.stop_farm()
        t0 = time.perf_counter()
        self.conns = [ServiceClient(self.farm.router_endpoints,
                                    timeout=120.0).connect()
                      for _ in range(self.clients)]
        for label, src in self.inputs:
            for op in self.OPS:
                self.send(0, label, op, src)
        warm_s = time.perf_counter() - t0
        self.seen.update(self.farm_processes())
        return gen_s + statistics.median(starts) + warm_s

    def round(self, client, index):
        """Every (program, op) pair once, in a seeded order, so each
        round has the same mix of cheap and dear requests."""
        reqs = [Request(f"{op}:{label}", source_kb(src),
                        lambda c=client, label=label, op=op, src=src:
                        self.send(c, label, op, src))
                for label, src in self.inputs for op in self.OPS]
        random.Random(f"{self.seed}:{client}:{index}").shuffle(reqs)
        return reqs

    def send(self, client, label, op, sources) -> dict:
        reply = self.conns[client].request(
            {"op": op, "sources": [[n, t] for n, t in sources]})
        payload = dict(reply.get("payload") or {})
        timings = payload.pop("timings", {}) or {}
        return {"status": diagnostics_error(reply.get("diagnostics")
                                            or []) or reply.get("status"),
                "daemon_s": reply.get("elapsed_s") or 0.0,
                "compile_s": sum(timings.values()),
                "route": reply.get("route") or {},
                "respawns": reply.get("respawns", 0),
                "payload": digest(payload)}

    def cache_stats(self) -> dict:
        with ServiceClient(self.farm.cache_socket, timeout=30.0) as c:
            return c.request({"op": "stats"})["stats"]["cache"]

    def begin_pass(self, traced):
        self.cache_before = self.cache_stats()

    def end_pass(self, traced):
        after = self.cache_stats()
        hits = after["hits"] - self.cache_before["hits"]
        misses = after["misses"] - self.cache_before["misses"]
        self.cache_ratio = hits / (hits + misses) if hits + misses else 0.0
        self.seen.update(self.farm_processes())

    def check(self, samples):
        for s in samples:
            if s.error:
                continue
            op, label = s.label.split(":", 1)
            key = f"serve:{label}:{op}"
            local = self.ctx.ledger.memo(key)
            if local is None:
                reply = Session().execute(CompileRequest(
                    op=op, sources=dict(self.inputs)[label]))
                payload = dict(reply.payload)
                payload.pop("timings", None)
                local = digest(payload)
                self.ctx.ledger.remember(key, local)
            if s.info["payload"] != local:
                s.error = "farm answer differs from the in-process answer"
            self.fact(s, key, s.info["payload"])

    def farm_processes(self) -> dict[int, str]:
        return descendants(self.ctx.helpers)

    def peak_rss_mb(self):
        """This process plus every farm process (daemons, workers,
        cache service)."""
        procs = self.farm_processes()
        self.seen.update(procs)
        return super().peak_rss_mb() + sum(_vm_hwm_mb(p) for p in procs)

    def traced_metrics(self, samples):
        ok = [s for s in samples if not s.error]
        n = max(1, len(ok))
        rtt = sum(s.latency_s for s in ok) / n
        daemon = sum(s.info["daemon_s"] for s in ok) / n
        comp = sum(s.info["compile_s"] for s in ok) / n
        return {
            "service.rtt_ms": 1e3 * rtt,
            "service.daemon_ms": 1e3 * daemon,
            "service.hop_ms": 1e3 * (rtt - daemon),
            "service.compile_ms": 1e3 * comp,
            "service.queue_ms": 1e3 * (daemon - comp),
            "service.attempts_per_req":
                sum(s.info["route"].get("attempts", 1) for s in ok) / n,
            "service.hedges":
                sum(bool(s.info["route"].get("hedged")) for s in ok),
            "service.failovers":
                sum(s.info["route"].get("failovers", 0) for s in ok),
            "service.worker_respawns":
                sum(s.info["respawns"] for s in ok),
            "service.remote_cache_hit_ratio": self.cache_ratio,
        }

    def stop_farm(self) -> None:
        for c in self.conns:
            c.close()
        self.conns = []
        if self.farm is not None:
            farm, self.farm = self.farm, None
            farm.stop()
        self.seen.update(self.farm_processes())
        for pid, start in self.seen.items():
            if _proc_table().get(pid, (None, None))[1] != start:
                continue
            self.failures.append(f"process {pid} outlived the farm")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                continue
            for _ in range(100):
                if _proc_table().get(pid, (None, None))[1] != start:
                    break
                time.sleep(0.05)
        # reap anything we started that is still a zombie child
        for pid in list(self.farm_processes()):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        self.seen = {}

    def close(self):
        self.stop_farm()
        return self.failures


WORKLOADS = {w.name: w for w in (CompileWorkload, SimulateWorkload,
                                 SearchWorkload, ServeWorkload)}
