"""Cache hierarchy simulator tests."""

import pytest
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


def _hits_misses(h):
    return [(l.hits, l.misses) for l in h.levels]


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
        lat = h.access(0x1000)
        assert _hits_misses(h) == [(0, 1), (0, 1)]   # memory serviced
        assert lat == 1 + 6 + 100

    def test_l1_hit_is_cheap(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000)
        lat = h.access(0x1000)
        assert _hits_misses(h) == [(1, 1), (0, 1)]   # L1 serviced
        assert lat == 1

    def test_fp_bypasses_l1(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000, is_float=True)
        lat = h.access(0x1000, is_float=True)
        assert h.levels[1].hits == 1    # serviced by L2
        assert lat == 6             # no L1 latency component
        assert h.levels[0].accesses == 0

    def test_int_after_fp_misses_l1(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000, is_float=True)
        lat = h.access(0x1000, is_float=False)
        assert _hits_misses(h) == [(0, 1), (1, 1)]   # L1 cold, L2 warm
        assert lat == 1 + 6

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
        hits = sum(l.hits for l in h.levels)
        lat = h.access(a, is_float=is_float)
        assert 0 < lat <= worst
        # serviced by at most one level
        assert sum(l.hits for l in h.levels) - hits <= 1


def _reference_access(h):
    """The hierarchy walk as a plain loop over :meth:`CacheLevel.access`,
    on ``h``'s levels and prefetcher."""
    cfg = h.config

    def access(addr, is_float=False, is_write=False, site=0):
        h.accesses += 1
        h.fp_accesses += bool(is_float)
        lat = 0
        for level in h.levels:
            if is_float and level.config.fp_bypass:
                continue
            lat += level.config.latency
            if level.access(addr, is_write):
                break
        else:
            lat += cfg.memory_latency
        h.total_latency += lat
        if cfg.prefetch and not is_write and site:
            h._prefetch(addr, site)
        return lat
    return access


def _state(h):
    return (h.accesses, h.fp_accesses, h.total_latency, h.prefetches,
            [(l.hits, l.misses, l.write_misses, l.sets) for l in h.levels])


_one_access = st.tuples(st.integers(0, 1 << 18), st.booleans(),
                        st.booleans(), st.integers(0, 3)).map(
    lambda a: [a])
#: strided runs from one site, which is what the prefetcher locks onto
_strided_run = st.builds(
    lambda base, stride, n, fp, site: [(base + k * stride, fp, False, site)
                                       for k in range(n)],
    st.integers(0, 1 << 16), st.sampled_from([-128, 8, 64, 128, 200]),
    st.integers(2, 12), st.booleans(), st.integers(1, 3))
_streams = st.lists(st.one_of(_one_access, _strided_run),
                    max_size=40).map(lambda runs: sum(runs, []))


# ITANIUM2_SCALED's L3 has 85 sets: the generated ``%`` index branch
@pytest.mark.parametrize("cfg", [tiny_config(), tiny_config(prefetch=True),
                                 ITANIUM2_SCALED],
                         ids=["tiny", "tiny-prefetch", "itanium2-scaled"])
@given(stream=_streams)
def test_generated_walk_matches_reference(cfg, stream):
    gen = CacheHierarchy(cfg)
    ref = CacheHierarchy(cfg)
    ref_access = _reference_access(ref)
    for addr, is_float, is_write, site in stream:
        assert gen.access(addr, is_float, is_write, site) == \
            ref_access(addr, is_float, is_write, site)
    assert _state(gen) == _state(ref)
