#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Workloads: ``compile``, ``simulate``, ``search``, ``serve`` (see
``workloads.py`` and ``PREDICTIONS.md``).  The seed makes the inputs;
the program under test only sees the generated inputs.

A run sets the workload up, then measures it for about ``--seconds``
in whole rounds: a round issues every request of the workload once, in
a seeded order.  ``--trace 0`` reports the end-to-end metrics of that
pass.  ``--trace 1`` then repeats the same rounds with spans installed
around each layer (``spans.py``) and reports the per-layer metrics,
including the tracing overhead against the untraced pass.

End-to-end times are reference times: wall time scaled by the speed of
a fixed block of interpreter work that sampler processes time on the
same CPUs while the run measures (``clock.py``), so that the host's
drifting speed cancels out.  The wall figures are printed beside them.

Every run checks its outputs (``checks.py``).  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the metric names and units come from ``BENCHMARK.json``.  A failed
check makes ``correct`` false and the exit code 1.  Without the
program's sources next to this directory the run exits with code 2
and prints no result.

State that must outlive one run (the determinism ledger) and the span
dumps live under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = Path(".perfbench")            # relative to ROOT: short socket paths
WORKLOAD_NAMES = ("compile", "simulate", "search", "serve")
#: guarded passes reported one metric each, from ``pass_timings``
PASSES = ("legality", "deadfields", "callgraph", "escape", "weights",
          "profiles", "heuristics", "apply")
#: per-layer counts that must repeat exactly for a given seed
EXACT = ("frontend.tokens", "core.verify_runs", "runtime.runs",
         "runtime.sim_cycles", "runtime.accesses",
         "runtime.l1d_miss_ratio", "runtime.l2_miss_ratio",
         "runtime.l3_miss_ratio", "replay.trace_ops", "replay.candidates",
         "search.evals")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _terminate(signum, _frame):
    # unwind through every ``finally`` so the farm is stopped
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def run_pass(wl, speed, seconds: float | None, rounds=None, rec=None):
    """Issue whole rounds of requests from each client.

    Untraced (``rounds`` None): a client starts another round only if
    its mean round time still fits in ``seconds``; at least one round
    always runs.  Traced: each client repeats exactly ``rounds[c]``
    rounds, the same requests the untraced pass made.

    Returns ``(samples, wall seconds, reference seconds, rounds per
    client, peak RSS in MB once client 0 finished its first round)``.
    Every round does the same work, so that peak does not grow with
    the number of rounds the time allowed.  ``speed`` (a
    ``clock.Samplers``) gives each sample the ``scale`` that converts
    its wall time to reference time."""
    from workloads import Sample
    samples = []
    rss = []
    lock = threading.Lock()
    done = [0] * wl.clients
    start = time.perf_counter()

    def client(c: int) -> None:
        durations: list[float] = []
        i = 0
        while True:
            if rounds is not None:
                if i >= rounds[c]:
                    break
            elif durations and time.perf_counter() - start \
                    + statistics.fmean(durations) > seconds:
                break
            r0 = time.perf_counter()
            for k, req in enumerate(wl.round(c, i)):
                # start every request from a collected heap, so garbage
                # left by the previous one neither pads its latency nor
                # moves the peak RSS with the seeded request order
                gc.collect()
                span = rec.span("request", f"{c}.{i}.{k}") if rec \
                    else nullcontext()
                with span:
                    t0 = time.perf_counter()
                    try:
                        info = req.fn()
                        err = None if info.get("status") == "ok" \
                            else f"status {info.get('status')!r}"
                    except Exception as exc:  # a failed request
                        info, err = {}, f"{type(exc).__name__}: {exc}"
                    t1 = time.perf_counter()
                with lock:
                    samples.append(Sample(c, i, req.label, req.kb,
                                          t1 - t0, info, err, t0))
            durations.append(time.perf_counter() - r0)
            if c == 0 and i == 0:
                rss.append(wl.peak_rss_mb())
            i += 1
        done[c] = i

    if wl.clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(c,),
                                    daemon=True)
                   for c in range(wl.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    end = time.perf_counter()
    speed.refresh()
    for s in samples:
        s.scale = speed.scale(s.start, s.start + s.latency_s)
    wall = end - start
    scale = speed.scale(start, end)
    print(f"host speed {scale:.3f} of the reference over {wall:.2f} s")
    return samples, wall, wall * scale, done, rss[0]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples beyond)``.  When no percentile from
    the median up qualifies (20 samples or fewer), the tail reads the
    median."""
    lat = sorted(latencies)
    n = len(lat)
    idx = n - 11
    if idx < (n - 1) / 2:
        return statistics.median(lat), 50.0, n // 2
    return lat[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def end_to_end(wl, samples, wall, ref, setup_s, rss_mb) -> dict:
    """Times are reference times (``clock.py``); the wall figures are
    printed beside them."""
    ok = [s for s in samples if not s.error]
    lat = [s.latency_s * s.scale for s in samples]
    value, pct, beyond = tail(lat)
    print(f"requests: {len(samples)} in {wall:.2f} s wall, {ref:.2f} s "
          f"reference, {len(samples) - len(ok)} failed "
          f"(fail_ratio {(len(samples) - len(ok)) / len(samples):g})")
    print(f"wall req_p50_ms: "
          f"{1e3 * statistics.median(s.latency_s for s in samples):.6g}")
    print(f"req_tail_ms is p{pct:.1f}: {beyond} of {len(lat)} samples "
          f"beyond it")
    return {
        "setup_s": setup_s,
        "req_p50_ms": 1e3 * statistics.median(lat),
        "req_tail_ms": 1e3 * value,
        "req_per_s": len(ok) / ref,
        "ok_ratio": len(ok) / len(samples),
        "peak_rss_mb": rss_mb,
        "src_kb_per_s": sum(s.kb for s in ok) / ref,
        "layout_speedup_geomean": wl.layout_speedup(samples),
    }


def per_layer(rec, samples, wall, ref, untraced_ref) -> dict:
    """Per-request layer metrics from the traced pass, in wall time.
    The tracing overhead compares the two passes' reference times.
    Times from spans are self times, except ``core.verify_ms``,
    ``runtime.feedback_ms`` and ``replay.capture_ms``, which cover a
    whole call made of other layers' work."""
    n = max(1, len(samples))
    self_s, incl_s, calls = rec.times()
    c = rec.counts

    def ms(name):
        return 1e3 * self_s.get(name, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "frontend.lex_ms": ms("frontend.lex"),
        "frontend.parse_ms": ms("frontend.parse"),
        "frontend.sema_ms": ms("frontend.sema"),
        "frontend.tokens": c["tokens"] / n,
        "core.critical_path_ms": c["critical_path_ms"] / n,
        "core.cache_get_ms": ms("core.cache_get"),
        "core.cache_put_ms": ms("core.cache_put"),
        "core.cache_hits": c["cache_hits"] / n,
        "core.cache_misses": c["cache_misses"] / n,
        "core.cache_hit_ratio": ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "core.verify_runs": calls.get("core.verify_run", 0) / n,
        "core.verify_ms": 1e3 * incl_s.get("core.verify_run", 0.0) / n,
        "transform.apply_ms": ms("transform.apply"),
        "transform.unparse_ms": ms("transform.unparse"),
        "advisor.report_ms": ms("advisor.report"),
        "runtime.runs": c["runs"] / n,
        "runtime.codegen_ms": ms("runtime.codegen"),
        "runtime.exec_ms": ms("runtime.exec"),
        "runtime.feedback_ms":
            1e3 * incl_s.get("runtime.feedback", 0.0) / n,
        "runtime.sim_cycles": c["sim_cycles"] / n,
        "runtime.accesses": c["accesses"] / n,
        "runtime.ns_per_access": 1e9 * ratio(c["exec_s"], c["accesses"]),
        "sim_mcyc_per_s": c["sim_cycles"] / 1e6 / wall,
        "replay.capture_ms": 1e3 * incl_s.get("replay.capture", 0.0) / n,
        "replay.precompile_ms": ms("replay.precompile"),
        "replay.trace_ops": c["trace_ops"] / n,
        "replay.ns_per_op": 1e9 * ratio(incl_s.get("replay.batch", 0.0),
                                        c["replay_op_evals"]),
        "replay.candidates": c["replay_candidates"] / n,
        "obs.tracing_overhead_pct": 100.0 * (ref / untraced_ref - 1.0),
    }
    for phase in ("fe", "ipa", "be"):
        out[f"core.{phase}_ms"] = 1e3 * c[f"phase:{phase}"] / n
    for p in PASSES:
        out[f"core.{p}_ms"] = 1e3 * c[f"pass:{p}"] / n
    for level in ("l1d", "l2", "l3"):
        out[f"runtime.{level}_miss_ratio"] = ratio(
            c[f"{level}_misses"], c[f"{level}_hits"] + c[f"{level}_misses"])
    return out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: needs src/repro and BENCHMARK.json beside "
              "perfbench/; run it from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="p", dir=STATE / "tmp"))
    speed = clock.Samplers(sorted(os.sched_getaffinity(0)), scratch)
    wl = None
    try:
        t0 = time.perf_counter()
        import workloads
        from checks import Ledger, load_expected, tree_fingerprint
        setup_s = (time.perf_counter() - T0) \
            * speed.scale(t0, time.perf_counter())
        ledger = Ledger(STATE / "ledger.json", tree_fingerprint(
            Path("src"), HERE.relative_to(ROOT)))
        ctx = workloads.Context(args.seed, scratch, ledger,
                                load_expected(), set(speed.pids))
        wl = workloads.WORKLOADS[args.workload](ctx)
        if wl.clients == 1:
            # the one client and its speed sampler share one CPU; a
            # farm runs on every CPU
            speed.pin()
        tsamples: list = []
        drift: list[str] = []
        t0 = time.perf_counter()
        setup_s += wl.setup() * speed.scale(t0, time.perf_counter())
        wl.begin_pass(False)
        samples, wall, ref, rounds, rss_mb = run_pass(wl, speed,
                                                      args.seconds)
        wl.end_pass(False)
        print(f"workload {args.workload}, seed {args.seed}: "
              f"{sum(rounds)} round(s) in {wall:.2f} s")
        if args.trace:
            import spans
            rec = spans.Recorder()
            wl.begin_pass(True)
            with spans.install(rec):
                tsamples, twall, tref, _, _ = run_pass(wl, speed, None,
                                                       rounds, rec)
            wl.end_pass(True)
        wl.check(samples + tsamples)
        if args.trace:
            metrics = per_layer(rec, tsamples, twall, tref, ref)
            metrics.update(wl.traced_metrics(tsamples))
            (STATE / "spans").mkdir(exist_ok=True)
            rec.dump(STATE / "spans" / f"{args.workload}.jsonl")
            wanted = spec["per_layer"]
            fact = (f"{args.workload}:seed{args.seed}:counts",
                    {k: metrics.get(k, 0.0) for k in EXACT})
        else:
            metrics = end_to_end(wl, samples, wall, ref, setup_s, rss_mb)
            wanted = spec["end_to_end"]
            fact = (f"{args.workload}:layout_speedup_geomean",
                    metrics["layout_speedup_geomean"])
        if not ledger.fact(*fact):
            drift.append(f"determinism: {fact[0]} drifted")
    finally:
        speed.stop()
        teardown = wl.close() if wl else []
        if wl:
            ledger.save()
        shutil.rmtree(scratch, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    # layers a workload never enters read 0 (search.*, service.*)
    metrics = {name: float(metrics.get(name, 0.0)) for name in units}
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")

    every = samples + tsamples
    errors = [f"{s.label}: {s.error}" for s in every if s.error]
    errors += drift + teardown
    for line in errors[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(every),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
