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

from dataclasses import dataclass, field, replace


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


class CacheHierarchy:
    """The full hierarchy.  :meth:`access` returns ``(latency, level_idx)``
    where ``level_idx`` is the level that serviced the access (``-1`` for
    main memory), which is exactly what the PMU attributes to fields."""

    __slots__ = ("config", "levels", "accesses", "fp_accesses",
                 "total_latency", "_strides", "prefetches",
                 "_path_int", "_path_fp", "_mem_latency", "_prefetch_on")

    def __init__(self, config: CacheConfig = ITANIUM2_SCALED):
        self.config = config
        self.levels = [CacheLevel(l) for l in config.levels]
        self.accesses = 0
        self.fp_accesses = 0
        self.total_latency = 0
        self.prefetches = 0
        # stride prefetcher state: site -> (last_addr, last_stride)
        self._strides: dict[int, tuple[int, int]] = {}
        # Flattened per-level lookup paths for the hot loop: everything
        # :meth:`access` needs, with the attribute chains pre-resolved.
        # The ``sets`` list object is created once per level and never
        # reassigned, so aliasing it here is safe; hit/miss counters stay
        # on the CacheLevel so ``stats()``/``reset_stats()`` are unchanged.
        self._mem_latency = config.memory_latency
        self._prefetch_on = config.prefetch
        self._path_int = tuple(
            (i, l, l.line_bits, l.num_sets, l.sets, l.config.latency,
             l.config.ways)
            for i, l in enumerate(self.levels))
        self._path_fp = tuple(
            p for p in self._path_int if not p[1].config.fp_bypass)

    def access(self, addr: int, is_float: bool = False,
               is_write: bool = False, site: int = 0) -> tuple[int, int]:
        self.accesses += 1
        if is_float:
            self.fp_accesses += 1
            path = self._path_fp
        else:
            path = self._path_int
        latency = 0
        serviced = -1
        for idx, level, line_bits, num_sets, lsets, lat, ways in path:
            latency += lat
            line = addr >> line_bits
            s = lsets[line % num_sets]
            if line in s:
                level.hits += 1
                if s[-1] != line:
                    s.remove(line)
                    s.append(line)
                serviced = idx
                break
            level.misses += 1
            if is_write:
                level.write_misses += 1
            s.append(line)
            if len(s) > ways:
                s.pop(0)
        else:
            latency += self._mem_latency
        self.total_latency += latency

        if self._prefetch_on and not is_write and site:
            self._prefetch(addr, site)
        return latency, serviced

    def access_latency(self, addr: int, is_float: bool = False,
                       is_write: bool = False, site: int = 0) -> int:
        """Like :meth:`access` but returns only the latency.

        The serviced-level index exists for PMU attribution; plain runs
        have no PMU, and skipping the result tuple removes an allocation
        from every simulated memory access.  Counter updates are
        identical to :meth:`access`."""
        self.accesses += 1
        if is_float:
            self.fp_accesses += 1
            path = self._path_fp
        else:
            path = self._path_int
        latency = 0
        for idx, level, line_bits, num_sets, lsets, lat, ways in path:
            latency += lat
            line = addr >> line_bits
            s = lsets[line % num_sets]
            if line in s:
                level.hits += 1
                if s[-1] != line:
                    s.remove(line)
                    s.append(line)
                break
            level.misses += 1
            if is_write:
                level.write_misses += 1
            s.append(line)
            if len(s) > ways:
                s.pop(0)
        else:
            latency += self._mem_latency
        self.total_latency += latency

        if self._prefetch_on and not is_write and site:
            self._prefetch(addr, site)
        return latency

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
