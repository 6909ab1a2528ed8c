"""Set-associative cache hierarchy simulator.

Models the Itanium 2 memory system the paper measured on, with one
deliberate twist taken straight from the paper (§3.2): floating-point
accesses bypass the L1 data cache — "the counts refer to the first level
of cache for a given operation — L2 for floating point values and L1 for
everything else on Itanium".

Capacities default to a 64x-scaled-down hierarchy so that the interpreted
workloads (10^5..10^7 accesses) cross the same capacity boundaries the
paper's native runs crossed; pass :data:`ITANIUM2_FULL` for the real
sizes.  An optional stride prefetcher supports the §2.4 stride-hint
ablation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CacheLevelConfig:
    name: str
    size: int              # bytes
    ways: int
    line_size: int         # bytes
    latency: int           # cycles to service a hit at this level
    fp_bypass: bool = False  # FP accesses skip this level

    @property
    def num_sets(self) -> int:
        return max(self.size // (self.ways * self.line_size), 1)


@dataclass(frozen=True)
class CacheConfig:
    levels: tuple[CacheLevelConfig, ...]
    memory_latency: int = 200
    prefetch: bool = False          # stride prefetcher on loads
    prefetch_degree: int = 1

    def scaled(self, factor: int) -> "CacheConfig":
        """Return a copy with every capacity divided by ``factor``."""
        levels = tuple(
            replace(l, size=max(l.size // factor,
                                l.ways * l.line_size))
            for l in self.levels)
        return replace(self, levels=levels)


#: The rx2600's Itanium 2 hierarchy (1.5 GHz, 6 MB L3 on-die; the paper
#: calls the 6 MB level "L2" loosely — it is the last level cache).
ITANIUM2_FULL = CacheConfig(levels=(
    CacheLevelConfig("L1D", 16 * 1024, 4, 64, 1, fp_bypass=True),
    CacheLevelConfig("L2", 256 * 1024, 8, 128, 6),
    CacheLevelConfig("L3", 6 * 1024 * 1024, 12, 128, 14),
))

#: Default scaled hierarchy for interpreter-sized working sets.
#:
#: Capacities are reduced so that 100 KB–1 MB simulated working sets
#: cross the same L2/L3/memory boundaries the paper's native runs
#: crossed, while every level keeps a sane set structure (a naive ÷64
#: of the L1 would leave a single set, which punishes multi-stream
#: sweeps for a reason real hardware doesn't have).
ITANIUM2_SCALED = CacheConfig(levels=(
    CacheLevelConfig("L1D", 2 * 1024, 4, 64, 1, fp_bypass=True),
    CacheLevelConfig("L2", 16 * 1024, 8, 128, 6),
    CacheLevelConfig("L3", 128 * 1024, 12, 128, 14),
))


class CacheLevel:
    """One set-associative level with LRU replacement."""

    __slots__ = ("config", "line_bits", "num_sets", "sets",
                 "hits", "misses", "write_misses")

    def __init__(self, config: CacheLevelConfig):
        self.config = config
        self.line_bits = config.line_size.bit_length() - 1
        assert (1 << self.line_bits) == config.line_size, \
            "line size must be a power of two"
        self.num_sets = config.num_sets
        # Each set: list of tags, most recently used last.
        self.sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.write_misses = 0

    def access(self, addr: int, is_write: bool) -> bool:
        """Touch the line containing ``addr``; True on hit."""
        line = addr >> self.line_bits
        s = self.sets[line % self.num_sets]
        if line in s:
            self.hits += 1
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            return True
        self.misses += 1
        if is_write:
            self.write_misses += 1
        s.append(line)
        if len(s) > self.config.ways:
            s.pop(0)
        return False

    def install(self, addr: int) -> None:
        """Install a line without counting a demand access (prefetch)."""
        line = addr >> self.line_bits
        s = self.sets[line % self.num_sets]
        if line in s:
            return
        s.append(line)
        if len(s) > self.config.ways:
            s.pop(0)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.write_misses = 0


def emit_walk(w, cfg: CacheConfig, is_float: bool, addr: str,
              indent: str, counters: bool) -> None:
    """Emit the unrolled set-associative LRU walk of one access.

    This is the only generated copy of the walk; :meth:`CacheLevel.access`
    is its plain reference.  Each level on the int or FP path becomes
    straight-line code with constant shifts and masks, misses falling
    through to the next level as a nested ``else`` chain, and the
    access's latency is added to ``lat`` once, at whichever exit it
    takes.  The emitted code reads the level ``i`` sets as ``s{i}``;
    with ``counters`` it also bumps ``L{i}.hits`` / ``misses`` /
    ``write_misses``, which needs ``is_write`` in scope.
    """
    path = [(i, lc) for i, lc in enumerate(cfg.levels)
            if not (is_float and lc.fp_bypass)]
    cum = 0
    for depth, (i, lc) in enumerate(path):
        ind = indent + "    " * depth
        cum += lc.latency
        ns = lc.num_sets
        index = f"line & {ns - 1}" if ns & (ns - 1) == 0 \
            else f"line % {ns}"
        w(f"{ind}line = {addr} >> {lc.line_size.bit_length() - 1}")
        w(f"{ind}s = s{i}[{index}]")
        w(f"{ind}if line in s:")
        if counters:
            w(f"{ind}    L{i}.hits += 1")
        w(f"{ind}    if s[-1] != line:")
        w(f"{ind}        s.remove(line)")
        w(f"{ind}        s.append(line)")
        w(f"{ind}    lat += {cum}")
        w(f"{ind}else:")
        if counters:
            w(f"{ind}    L{i}.misses += 1")
            w(f"{ind}    if is_write:")
            w(f"{ind}        L{i}.write_misses += 1")
        w(f"{ind}    s.append(line)")
        w(f"{ind}    if len(s) > {lc.ways}:")
        w(f"{ind}        s.pop(0)")
    w(f"{indent}{'    ' * len(path)}lat += {cum + cfg.memory_latency}")


@functools.cache
def _access_factory(cfg: CacheConfig):
    """Compile (once per config) a factory binding :func:`emit_walk`'s
    counting variant to one hierarchy's state."""
    args = "".join(f", L{i}, s{i}" for i in range(len(cfg.levels)))
    src: list[str] = []
    w = src.append
    w(f"def make(h, prefetch{args}):")
    w("    def access(addr, is_float=False, is_write=False, site=0):")
    w("        h.accesses += 1")
    w("        lat = 0")
    w("        if is_float:")
    w("            h.fp_accesses += 1")
    emit_walk(w, cfg, True, "addr", " " * 12, counters=True)
    w("        else:")
    emit_walk(w, cfg, False, "addr", " " * 12, counters=True)
    w("        h.total_latency += lat")
    if cfg.prefetch:
        w("        if site and not is_write:")
        w("            prefetch(addr, site)")
    w("        return lat")
    w("    return access")
    ns: dict = {}
    exec("\n".join(src), ns)      # noqa: S102 — generated above
    return ns["make"]


class CacheHierarchy:
    """The full hierarchy.

    ``access(addr, is_float=False, is_write=False, site=0)`` simulates
    one demand access and returns its latency.  It is generated per
    :class:`CacheConfig` (:func:`emit_walk`) and updates ``accesses``,
    ``fp_accesses``, ``total_latency`` and every level's counters; the
    PMU tells a first-level miss from that level's ``misses``."""

    __slots__ = ("config", "levels", "accesses", "fp_accesses",
                 "total_latency", "_strides", "prefetches", "access")

    def __init__(self, config: CacheConfig = ITANIUM2_SCALED):
        self.config = config
        self.levels = [CacheLevel(l) for l in config.levels]
        self.accesses = 0
        self.fp_accesses = 0
        self.total_latency = 0
        self.prefetches = 0
        # stride prefetcher state: site -> (last_addr, last_stride)
        self._strides: dict[int, tuple[int, int]] = {}
        # the ``sets`` lists are created once per level and never
        # reassigned, so the generated walk may hold them directly
        self.access = _access_factory(config)(
            self, self._prefetch,
            *(x for l in self.levels for x in (l, l.sets)))

    def _prefetch(self, addr: int, site: int) -> None:
        prev = self._strides.get(site)
        if prev is not None:
            last_addr, last_stride = prev
            stride = addr - last_addr
            if stride != 0 and stride == last_stride:
                line_bits = self.levels[-1].line_bits
                for i in range(1, self.config.prefetch_degree + 1):
                    target = addr + stride * i
                    if (target >> line_bits) != (addr >> line_bits):
                        for level in self.levels:
                            level.install(target)
                        self.prefetches += 1
                        break
            self._strides[site] = (addr, stride)
        else:
            self._strides[site] = (addr, 0)

    # -- reporting --------------------------------------------------------

    def level(self, name: str) -> CacheLevel:
        for l in self.levels:
            if l.config.name == name:
                return l
        raise KeyError(name)

    def stats(self) -> dict[str, dict[str, int | float]]:
        out: dict[str, dict[str, int | float]] = {}
        for l in self.levels:
            out[l.config.name] = {
                "hits": l.hits, "misses": l.misses,
                "miss_rate": l.miss_rate(),
            }
        out["total"] = {
            "accesses": self.accesses,
            "latency": self.total_latency,
            "prefetches": self.prefetches,
        }
        return out

    def reset_stats(self) -> None:
        self.accesses = self.fp_accesses = self.total_latency = 0
        self.prefetches = 0
        for l in self.levels:
            l.reset_stats()
