"""Reference time: wall time scaled by the host's speed at the moment.

On a host whose cores are shared with other tenants, the speed of a
fixed pure-Python loop drifts by a quarter or more in phases that last
from a fraction of a second to minutes.  A run of a few tens of seconds
cannot average that away, so the wall times of identical runs spread
wider than any useful regression bound.

So while a run measures, one *sampler* process per CPU, pinned
to that CPU, times a short fixed block of interpreter work (code of
this file, none of the program's) every ``PERIOD_S`` seconds, in CPU
time, and appends ``<start> <block seconds>`` lines to a file.  A
measured stretch ``[t0, t1]`` is reported in reference time::

    reference = (t1 - t0) * REF_S / mean(blocks started near [t0, t1])

``REF_S`` is the block's median CPU time on the machine the bounds were
set on (a 2-vCPU VM), so there reference times read close to wall
times.  A change to the program moves reference times as it moves wall
times; a slower phase of the host slows the blocks beside a request as
much as the request, and cancels out.  The samplers take about 3% of
their CPU, the same share on every run.

Run as a script, this file is the sampler:
``python3 clock.py <cpu> <output file>``.  It stops when its standard
input closes, which also happens when the benchmark dies.
"""

from __future__ import annotations

import bisect
import os
import select
import subprocess
import sys
import time
from pathlib import Path

#: iterations of the calibration block (about 0.65 ms of interpreter work)
BLOCK_N = 4_000
#: the block's median CPU seconds on a 2-vCPU VM
REF_S = 0.00065
#: seconds between the starts of two blocks of one sampler
PERIOD_S = 0.03


def _block(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = i & 127
        acc = (acc + table.get(k, i)) & 0xFFFF
        table[k] = acc ^ i
    return acc


def _sample(cpu: int, out: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    with open(out, "w", buffering=1) as f:
        while True:
            start = time.perf_counter()
            c0 = time.thread_time()
            _block(BLOCK_N)
            f.write(f"{start:.6f} {time.thread_time() - c0:.7f}\n")
            wait = PERIOD_S - (time.perf_counter() - start)
            if select.select([sys.stdin], [], [], max(0.0, wait))[0]:
                return                   # stdin closed: stop


class Samplers:
    """The sampler processes of one run, one per CPU."""

    def __init__(self, cpus, directory: Path):
        self.files = {c: Path(directory) / f"speed-cpu{c}.txt"
                      for c in cpus}
        #: the CPUs whose samples scale a stretch
        self.cpus = list(cpus)
        self.procs: list[subprocess.Popen] = []
        self.starts: list[float] = []
        self.blocks: list[float] = []
        try:
            for cpu, out in self.files.items():
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu), str(out)],
                    stdin=subprocess.PIPE, stdout=subprocess.DEVNULL))
            self.wait_for_samples()
        except BaseException:
            self.stop()
            raise

    @property
    def pids(self) -> set[int]:
        return {p.pid for p in self.procs}

    def pin(self) -> None:
        """Keep the calling thread (and threads it starts) on the first
        CPU, and scale stretches by that CPU's sampler alone."""
        self.cpus = self.cpus[:1]
        os.sched_setaffinity(0, self.cpus)
        self.refresh()

    def wait_for_samples(self, timeout: float = 30.0) -> None:
        """Block until every sampler has written a sample."""
        limit = time.perf_counter() + timeout
        while not all(f.exists() and f.stat().st_size
                      for f in self.files.values()):
            if time.perf_counter() > limit or any(
                    p.poll() is not None for p in self.procs):
                raise RuntimeError("a speed sampler did not start")
            time.sleep(0.01)

    def refresh(self) -> None:
        rows = []
        for path in (self.files[c] for c in self.cpus):
            # the last piece is empty, or a line still being written
            for line in path.read_text().split("\n")[:-1]:
                start, block = line.split()
                rows.append((float(start), float(block)))
        rows.sort()
        self.starts = [r[0] for r in rows]
        self.blocks = [r[1] for r in rows]

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over ``[t0, t1]``: from the
        blocks started within it, widened by two periods on each side
        so a short stretch still has several."""
        if not self.starts or self.starts[-1] < t1:
            self.refresh()
        lo = bisect.bisect_left(self.starts, t0 - 2 * PERIOD_S)
        hi = bisect.bisect_right(self.starts, t1 + 2 * PERIOD_S)
        near = self.blocks[lo:hi]
        if not near:
            raise RuntimeError(f"no speed sample near [{t0}, {t1}]")
        return REF_S * len(near) / sum(near)

    def stop(self) -> None:
        """Stop every sampler and wait for it to end."""
        for p in self.procs:
            try:
                p.stdin.close()
            except OSError:
                pass
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


if __name__ == "__main__":
    _sample(int(sys.argv[1]), Path(sys.argv[2]))
