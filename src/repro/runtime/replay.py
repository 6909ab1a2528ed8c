"""Batched trace replay: the layout-search cost oracle's fast path.

Full simulation interprets every MiniC statement; evaluating hundreds
of candidate layouts that way would make the search engine I/O-bound on
the interpreter.  This module splits the work:

1. :func:`capture_trace` runs the program **once** with recording
   memory hooks installed, producing the exact access stream (address,
   site, read/write, int/float) the run performed, with cycle
   accounting identical to a plain run.
2. :func:`precompile` converts that stream, for one record type under
   study, into a flat integer op array: accesses to the record's
   fields become symbolic ``(instance, field)`` slots, everything else
   keeps its concrete address.
3. :func:`replay_batch` replays the op array against many candidate
   layouts in one batched pass — each candidate gets a fresh
   :class:`CacheHierarchy`, candidate field addresses come from a
   precomputed per-layout address table, and the non-memory cycles of
   the original run are added back as a constant.

The replayed score is a *relative* oracle: candidate layouts are laid
out in a dedicated replay region (piece arrays, malloc-style element
stride), so absolute cycle counts differ slightly from a full re-run,
but every candidate — including the greedy baseline and the identity
layout — is scored under identical rules.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field as dc_field

from .cache import CacheConfig, CacheHierarchy, ITANIUM2_SCALED, \
    emit_walk
from .codegen import CompiledProgram
from .machine import Machine, StepLimitExceeded

#: replay region for candidate piece arrays — above every address the
#: simulator hands out (globals, rodata, stack, heap, profile counters)
REPLAY_BASE = 0x8000_0000

#: gap between consecutive piece regions (keeps pieces from sharing a
#: cache line and gives every piece the same set-index phase)
REGION_ALIGN = 1 << 20

#: appended link field modelled for linked (hot/cold split) layouts
LINK_SIZE = 8
LINK_ALIGN = 8


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


@dataclass
class AccessTrace:
    """One recorded execution: the access stream plus enough metadata
    to recompile it against any record type the program declares."""

    addrs: array              # 'q' — accessed address per op
    sites: array              # 'i' — site id per op
    flags: array              # 'B' — bit0 = write, bit1 = float
    site_fields: list         # site id -> (record, field) or None
    record_fields: dict       # record -> list of Field (original layout)
    cycles: int               # total cycles of the traced run
    total_latency: int        # summed memory latency of the traced run
    cache_config: CacheConfig
    exit_code: int | None
    stdout: str
    truncated: bool = False   # cycle budget hit; prefix trace kept

    def __len__(self) -> int:
        return len(self.addrs)

    @property
    def base_cycles(self) -> int:
        """Non-memory cycles of the traced run (constant across
        candidate layouts)."""
        return self.cycles - self.total_latency

    def fingerprint_parts(self, record_name: str) -> tuple:
        """Stable identity of this trace w.r.t. one record — the memo
        key ingredients (trace length + cycle count pin the input set
        and program version; the field layout pins the type)."""
        fields = self.record_fields.get(record_name, [])
        return (
            record_name,
            tuple((f.name, f.offset, f.size) for f in fields),
            len(self.addrs),
            self.cycles,
            repr(self.cache_config),
        )


def capture_trace(program, cache_config: CacheConfig = ITANIUM2_SCALED,
                  cycle_limit: int = 2_000_000_000,
                  entry: str = "main") -> AccessTrace:
    """Run ``program`` once, recording every memory access.

    The recording hooks keep the plain fast path's cycle accounting
    bit-for-bit (same :meth:`CacheHierarchy.access` calls in the same
    order), so ``trace.cycles`` equals a plain run's cycles.
    A run that exhausts ``cycle_limit`` yields a *truncated* trace:
    the prefix is still a valid stream for relative layout scoring.
    """
    machine = Machine(cache_config=cache_config, cycle_limit=cycle_limit)
    access = machine.cache.access
    cells = machine.memory.cells
    cells_get = cells.get

    addrs = array("q")
    sites = array("i")
    flags = array("B")
    a_app, s_app, f_app = addrs.append, sites.append, flags.append

    def mem_read(addr, is_float, site, m=machine):
        m.cycles += access(addr, is_float, False, site)
        a_app(addr)
        s_app(site)
        f_app(2 if is_float else 0)
        return cells_get(addr, 0)

    def mem_write(addr, value, is_float, site, m=machine):
        m.cycles += access(addr, is_float, True, site)
        cells[addr] = value
        a_app(addr)
        s_app(site)
        f_app(3 if is_float else 1)

    # must be installed *before* CompiledProgram: codegen captures the
    # bound mem_read/mem_write attributes at compile time
    machine.mem_read = mem_read
    machine.mem_write = mem_write
    compiled = CompiledProgram(program, machine)

    truncated = False
    exit_code: int | None = None
    try:
        exit_code = compiled.run(entry=entry)
    except StepLimitExceeded:
        truncated = True

    site_fields: list = []
    for info in compiled.sites:
        if info.record is not None and info.field is not None:
            site_fields.append((info.record, info.field))
        else:
            site_fields.append(None)
    record_fields = {
        name: [f for f in rec.fields]
        for name, rec in program.records.items()
    }
    return AccessTrace(
        addrs=addrs, sites=sites, flags=flags, site_fields=site_fields,
        record_fields=record_fields, cycles=machine.cycles,
        total_latency=machine.cache.total_latency,
        cache_config=cache_config, exit_code=exit_code,
        stdout=machine.stdout, truncated=truncated)


@dataclass
class CompiledTrace:
    """A trace precompiled for one record type.

    ``ops`` is a flat signed-int encoding; with ``S = site_bits``:

    - raw access (any address not in the record):
      ``op = (((addr << S) | site) << 2) | flags``  (``op >= 0``)
    - field access (instance ``i`` of the record, field index ``j``):
      ``slot = i * nfields + j``;
      ``op = -(((((slot << S) | site) << 2) | flags) + 1)``  (``op < 0``)

    Replay resolves slots through a per-candidate address table, so one
    precompile serves every candidate layout of the record.
    """

    record_name: str
    fields: list                    # original Field objects, decl order
    field_index: dict               # name -> index
    #: a plain list, not an array: replay iterates this once per
    #: candidate, and list elements are already boxed ints
    ops: list
    nfields: int
    ninstances: int
    field_ops: int                  # how many ops touch the record
    site_bits: int
    base_cycles: int
    cache_config: CacheConfig
    fingerprint_parts: tuple
    truncated: bool = False


def precompile(trace: AccessTrace, record_name: str) -> CompiledTrace:
    """Lower ``trace`` into a :class:`CompiledTrace` for one record.

    Instances are identified by object base address (access address
    minus the field's original offset) and numbered in first-seen
    order, which is deterministic for a fixed trace.
    """
    fields = trace.record_fields.get(record_name)
    if not fields:
        raise KeyError(f"record {record_name!r} not in trace")
    field_index = {f.name: i for i, f in enumerate(fields)}
    offsets = {f.name: f.offset for f in fields}
    nfields = len(fields)

    site_bits = max(1, len(trace.site_fields).bit_length())
    # per-site classification: offset of the accessed field when the
    # site touches the record under study, else None
    site_off: list = []
    site_idx: list = []
    for sf in trace.site_fields:
        if sf is not None and sf[0] == record_name and sf[1] in offsets:
            site_off.append(offsets[sf[1]])
            site_idx.append(field_index[sf[1]])
        else:
            site_off.append(None)
            site_idx.append(0)

    ops: list[int] = []
    o_app = ops.append
    instances: dict[int, int] = {}
    field_ops = 0
    addrs, sites, flags = trace.addrs, trace.sites, trace.flags
    for k in range(len(addrs)):
        site = sites[k]
        off = site_off[site]
        if off is None:
            o_app((((addrs[k] << site_bits) | site) << 2) | flags[k])
            continue
        base = addrs[k] - off
        inst = instances.get(base)
        if inst is None:
            inst = instances[base] = len(instances)
        slot = inst * nfields + site_idx[site]
        o_app(-(((((slot << site_bits) | site) << 2) | flags[k]) + 1))
        field_ops += 1

    return CompiledTrace(
        record_name=record_name, fields=fields, field_index=field_index,
        ops=ops, nfields=nfields, ninstances=len(instances),
        field_ops=field_ops, site_bits=site_bits,
        base_cycles=trace.base_cycles, cache_config=trace.cache_config,
        fingerprint_parts=trace.fingerprint_parts(record_name),
        truncated=trace.truncated)


@dataclass
class LayoutPlan:
    """Per-candidate replay tables: concrete addresses for every
    ``(instance, field)`` slot plus optional link-pointer loads."""

    addr_table: list                # slot -> address, -1 = removed field
    link_table: list                # slot -> link-pointer address or 0
    piece_sizes: list               # element stride per piece
    has_links: bool


def _piece_layout(fields) -> tuple[dict, int, int]:
    """C layout of one piece: ``(name -> offset, size, align)``.

    Mirrors :meth:`RecordType.layout` for non-bitfield members (the
    search engine refuses bitfield groups before getting here).
    """
    off = 0
    align = 1
    offsets = {}
    for f in fields:
        fa = max(f.type.align, 1)
        off = _round_up(off, fa)
        offsets[f.name] = off
        off += max(f.type.size, 1)
        align = max(align, fa)
    return offsets, _round_up(max(off, 1), align), align


def plan_layout(compiled: CompiledTrace, groups, linked: bool,
                dead=()) -> LayoutPlan:
    """Build replay tables for one candidate layout of the record.

    ``groups`` is a sequence of field-name sequences (a partition of
    the surviving fields, order significant).  ``linked`` models the
    hot/cold split: the first group carries an appended 8-byte link
    pointer and every access to a later group pays a link-pointer load
    from its instance's first-group element.  ``dead`` fields are
    removed outright — their ops are skipped during replay.
    """
    by_name = {f.name: f for f in compiled.fields}
    dead_set = set(dead)
    nfields = compiled.nfields
    ninst = compiled.ninstances

    # lay out each piece and assign its region
    piece_of: dict[str, int] = {}
    piece_offsets: list[dict] = []
    piece_sizes: list[int] = []
    piece_bases: list[int] = []
    cursor = REPLAY_BASE
    link_offset = -1
    for k, group in enumerate(groups):
        members = [by_name[name] for name in group]
        offsets, size, align = _piece_layout(members)
        if linked and k == 0 and len(groups) > 1:
            # the split transform appends the link pointer after the
            # hot fields (SplitSpec.build_records)
            end = max((offsets[m.name] + max(m.type.size, 1)
                       for m in members), default=0)
            link_offset = _round_up(end, LINK_ALIGN)
            size = _round_up(link_offset + LINK_SIZE,
                             max(align, LINK_ALIGN))
        for name in group:
            piece_of[name] = k
        piece_offsets.append(offsets)
        piece_sizes.append(size)
        piece_bases.append(cursor)
        cursor = _round_up(cursor + ninst * size + 1, REGION_ALIGN)

    addr_table = [-1] * (ninst * nfields)
    link_table = [0] * (ninst * nfields)
    has_links = linked and len(groups) > 1 and link_offset >= 0
    for j, f in enumerate(compiled.fields):
        name = f.name
        if name in dead_set:
            continue
        k = piece_of.get(name)
        if k is None:
            # field in no group and not dead: treat as removed
            continue
        base = piece_bases[k]
        size = piece_sizes[k]
        off = piece_offsets[k][name]
        needs_link = has_links and k > 0
        hot_base = piece_bases[0]
        hot_size = piece_sizes[0]
        for inst in range(ninst):
            slot = inst * nfields + j
            addr_table[slot] = base + inst * size + off
            if needs_link:
                link_table[slot] = hot_base + inst * hot_size \
                    + link_offset
    return LayoutPlan(addr_table=addr_table, link_table=link_table,
                      piece_sizes=piece_sizes, has_links=has_links)


@functools.cache
def _make_replayer(cfg: CacheConfig, site_bits: int):
    """Compile a replay loop specialized to one cache geometry.

    The loop inlines :func:`emit_walk`'s counter-free variant — the
    same unrolled walk as :meth:`CacheHierarchy.access`, minus the
    hit/miss counters replay does not need — so a candidate costs no
    call per access.
    """
    shift = 2 + site_bits
    src: list[str] = []
    w = src.append
    w("def _replay(ops, addr_table, link_table):")
    for i, lc in enumerate(cfg.levels):
        w(f"    s{i} = [[] for _ in range({lc.num_sets})]")
    w("    lat = 0")
    w("    for op in ops:")
    w("        if op >= 0:")
    w(f"            addr = op >> {shift}")
    w("            fl = op & 2")
    w("        else:")
    w("            op = -op - 1")
    w(f"            slot = op >> {shift}")
    w("            addr = addr_table[slot]")
    w("            if addr < 0:")
    w("                continue")
    w("            link = link_table[slot]")
    w("            if link:")
    # link-pointer load: an integer read of the hot element's
    # appended pointer field
    emit_walk(w, cfg, False, "link", " " * 16, counters=False)
    w("            fl = op & 2")
    w("        if fl:")
    emit_walk(w, cfg, True, "addr", " " * 12, counters=False)
    w("        else:")
    emit_walk(w, cfg, False, "addr", " " * 12, counters=False)
    w("    return lat")
    ns_dict: dict = {}
    exec("\n".join(src), ns_dict)      # noqa: S102 — generated above
    return ns_dict["_replay"]


def replay_batch(compiled: CompiledTrace, plans,
                 cache_config: CacheConfig | None = None) -> list[int]:
    """Score candidate layouts in one batched pass over the op array.

    Returns simulated cycles per plan: the traced run's non-memory
    cycles plus the replayed memory latency under that layout.  Each
    candidate replays against its own fresh cache state through a
    loop specialized to the cache geometry (:func:`_make_replayer`) —
    no interpreter, no per-access call — which is the >= 3x
    per-candidate win over re-simulating the whole program.

    Prefetch-enabled configs take the reference path through a real
    :class:`CacheHierarchy` (the prefetcher needs site ids);
    ``tests/test_search.py`` pins both paths to identical scores.
    """
    cfg = cache_config or compiled.cache_config
    if cfg.prefetch:
        return [replay_reference(compiled, plan, cfg) for plan in plans]
    replay = _make_replayer(cfg, compiled.site_bits)
    base_cycles = compiled.base_cycles
    ops = compiled.ops
    return [base_cycles + replay(ops, plan.addr_table, plan.link_table)
            for plan in plans]


def replay_reference(compiled: CompiledTrace, plan: LayoutPlan,
                     cache_config: CacheConfig | None = None) -> int:
    """Reference replay of one plan through a real
    :class:`CacheHierarchy` — the semantic baseline the inlined fast
    path in :func:`replay_batch` must match, and the path taken when
    the config enables the stride prefetcher (which needs site ids)."""
    cfg = cache_config or compiled.cache_config
    hier = CacheHierarchy(cfg)
    access = hier.access
    ops = compiled.ops
    sbits = compiled.site_bits
    smask = (1 << sbits) - 1
    addr_table = plan.addr_table
    link_table = plan.link_table
    lat = 0
    for op in ops:
        if op >= 0:
            body = op >> 2
            lat += access(body >> sbits, op & 2, op & 1, body & smask)
        else:
            enc = -op - 1
            body = enc >> 2
            slot = body >> sbits
            addr = addr_table[slot]
            if addr < 0:
                continue
            link = link_table[slot]
            if link:
                lat += access(link, False, False, body & smask)
            lat += access(addr, enc & 2, enc & 1, body & smask)
    return compiled.base_cycles + lat
