"""Cache hierarchy simulator tests."""

from hypothesis import given, strategies as st

from repro.runtime.cache import (
    CacheConfig, CacheLevelConfig, CacheHierarchy, CacheLevel,
    ITANIUM2_FULL, ITANIUM2_SCALED,
)


def tiny_config(prefetch=False):
    return CacheConfig(levels=(
        CacheLevelConfig("L1D", 256, 2, 64, 1, fp_bypass=True),
        CacheLevelConfig("L2", 1024, 4, 128, 6),
    ), memory_latency=100, prefetch=prefetch)


class TestCacheLevel:
    def test_first_access_misses(self):
        lvl = CacheLevel(CacheLevelConfig("L", 256, 2, 64, 1))
        assert not lvl.access(0x1000, False)
        assert lvl.misses == 1

    def test_second_access_hits(self):
        lvl = CacheLevel(CacheLevelConfig("L", 256, 2, 64, 1))
        lvl.access(0x1000, False)
        assert lvl.access(0x1000, False)
        assert lvl.hits == 1

    def test_same_line_hits(self):
        lvl = CacheLevel(CacheLevelConfig("L", 256, 2, 64, 1))
        lvl.access(0x1000, False)
        assert lvl.access(0x103F, False)   # same 64B line

    def test_lru_eviction(self):
        # 2-way: three conflicting lines evict the least recent
        lvl = CacheLevel(CacheLevelConfig("L", 128, 2, 64, 1))  # 1 set
        lvl.access(0x0000, False)
        lvl.access(0x1000, False)
        lvl.access(0x2000, False)    # evicts 0x0000
        assert not lvl.access(0x0000, False)

    def test_lru_touch_refreshes(self):
        lvl = CacheLevel(CacheLevelConfig("L", 128, 2, 64, 1))
        lvl.access(0x0000, False)
        lvl.access(0x1000, False)
        lvl.access(0x0000, False)    # refresh 0x0000
        lvl.access(0x2000, False)    # evicts 0x1000, not 0x0000
        assert lvl.access(0x0000, False)

    def test_write_misses_counted(self):
        lvl = CacheLevel(CacheLevelConfig("L", 256, 2, 64, 1))
        lvl.access(0x0, True)
        assert lvl.write_misses == 1

    def test_miss_rate(self):
        lvl = CacheLevel(CacheLevelConfig("L", 256, 2, 64, 1))
        lvl.access(0x0, False)
        lvl.access(0x0, False)
        assert lvl.miss_rate() == 0.5


class TestHierarchy:
    def test_cold_miss_pays_memory_latency(self):
        h = CacheHierarchy(tiny_config())
        lat, level = h.access(0x1000)
        assert level == -1
        assert lat == 1 + 6 + 100

    def test_l1_hit_is_cheap(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000)
        lat, level = h.access(0x1000)
        assert level == 0 and lat == 1

    def test_fp_bypasses_l1(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000, is_float=True)
        lat, level = h.access(0x1000, is_float=True)
        assert level == 1           # serviced by L2
        assert lat == 6             # no L1 latency component
        assert h.levels[0].accesses == 0

    def test_int_after_fp_misses_l1(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000, is_float=True)
        lat, level = h.access(0x1000, is_float=False)
        assert level == 1           # L1 cold, L2 warm

    def test_stats_shape(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x0)
        stats = h.stats()
        assert "L1D" in stats and "total" in stats
        assert stats["total"]["accesses"] == 1

    def test_reset_stats(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x0)
        h.reset_stats()
        assert h.accesses == 0
        assert h.levels[0].misses == 0

    def test_level_lookup(self):
        h = CacheHierarchy(tiny_config())
        assert h.level("L2").config.latency == 6

    def test_total_latency_accumulates(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x0)
        h.access(0x0)
        assert h.total_latency == (107) + 1


class TestPrefetcher:
    def test_stride_prefetch_installs_next_line(self):
        h = CacheHierarchy(tiny_config(prefetch=True))
        # constant stride of one line, same site
        for i in range(4):
            h.access(0x1000 + i * 128, site=7)
        assert h.prefetches > 0

    def test_prefetch_uses_last_level_line_size(self):
        cfg = CacheConfig(levels=(
            CacheLevelConfig("L1D", 256, 2, 64, 1),
            CacheLevelConfig("L2", 1024, 4, 64, 6),
        ), memory_latency=100, prefetch=True)
        h = CacheHierarchy(cfg)
        n = 8
        for i in range(n):
            h.access(0x1000 + i * 64, site=7)
        # the first two accesses establish the stride; every later one
        # prefetches the next 64-byte line, which its successor hits
        assert h.prefetches == n - 2
        assert h.level("L1D").hits == n - 3

    def test_no_prefetch_without_stable_stride(self):
        h = CacheHierarchy(tiny_config(prefetch=True))
        for addr in (0x1000, 0x5000, 0x2000, 0x9000):
            h.access(addr, site=7)
        assert h.prefetches == 0

    def test_prefetch_disabled_by_default(self):
        h = CacheHierarchy(tiny_config())
        for i in range(8):
            h.access(0x1000 + i * 128, site=7)
        assert h.prefetches == 0


class TestConfigs:
    def test_full_itanium_sizes(self):
        names = [l.name for l in ITANIUM2_FULL.levels]
        assert names == ["L1D", "L2", "L3"]
        assert ITANIUM2_FULL.levels[2].size == 6 * 1024 * 1024

    def test_scaled_preserves_structure(self):
        for lvl in ITANIUM2_SCALED.levels:
            assert lvl.num_sets >= 8

    def test_scaled_method(self):
        cfg = ITANIUM2_FULL.scaled(4)
        assert cfg.levels[0].size == 4 * 1024

    def test_l1_bypass_flag(self):
        assert ITANIUM2_SCALED.levels[0].fp_bypass
        assert not ITANIUM2_SCALED.levels[1].fp_bypass


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
def test_hits_plus_misses_equals_accesses(addrs):
    h = CacheHierarchy(tiny_config())
    for a in addrs:
        h.access(a)
    l1 = h.levels[0]
    assert l1.hits + l1.misses == len(addrs)


@given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=100))
def test_repeating_sequence_second_pass_no_worse(addrs):
    """Re-running the same short trace can only produce >= hits."""
    h = CacheHierarchy(tiny_config())
    for a in addrs:
        h.access(a)
    first_hits = h.levels[1].hits
    for a in addrs:
        h.access(a)
    assert h.levels[1].hits >= first_hits


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=100),
       st.booleans())
def test_latency_positive_and_bounded(addrs, is_float):
    h = CacheHierarchy(tiny_config())
    worst = 1 + 6 + 100
    for a in addrs:
        lat, level = h.access(a, is_float=is_float)
        assert 0 < lat <= worst
        assert -1 <= level < len(h.levels)
