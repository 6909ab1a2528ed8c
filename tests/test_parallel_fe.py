"""Determinism of the parallel front end.

The §2 contract: the FE is per-TU parallelizable, and parallelism is an
*execution strategy*, not a semantic knob — compiling with any
``--jobs`` value (or through the isolated-parse + unify path at all)
must produce exactly the program, decisions, diagnostics, and
transformed output that the serial front end produces.  Every multi-TU
construct the unify step cannot reproduce exactly must fall back to the
serial parser rather than diverge.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.api import Session
from repro.core import Compiler, CompilerOptions
from repro.core import fe
from repro.core.fe import prescan_typedef_names
from repro.frontend import Program
from repro.transform import program_sources
from repro.workloads import ALL_WORKLOADS

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


# ---------------------------------------------------------------------------
# typedef prescan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source,expected", [
    ("typedef int myint;", ["myint"]),
    ("typedef int (*cb)(int, char);", ["cb"]),
    ("typedef struct s { int a; } S;", ["S"]),
    ("typedef int arr[4];", ["arr"]),
    ("/* typedef int hidden; */ int x;", []),
    ('char *s = "typedef int fake;";', []),
    ("typedef unsigned long long ull;\ntypedef struct pt pt_t;",
     ["ull", "pt_t"]),
])
def test_prescan_typedef_names(source, expected):
    assert prescan_typedef_names(source) == expected


# ---------------------------------------------------------------------------
# serial == parallel == legacy
# ---------------------------------------------------------------------------

def result_fingerprint(result):
    """Everything user-visible about one compilation."""
    return (
        [(d.type_name, d.action, sorted(d.cold_fields),
          sorted(d.dead_fields), sorted(map(tuple, d.groups or [])))
         for d in result.decisions],
        result.diagnostics.render("warning"),
        program_sources(result.transformed),
    )


def compile_legacy(sources):
    return Session().compile(Program.from_sources(sources, recover=True))


def compile_jobs(sources, jobs):
    return Compiler(CompilerOptions(jobs=jobs)).compile_sources(sources)


@pytest.fixture
def many_cores(monkeypatch):
    """Defeat the core-count clamp so the pool path runs even on a
    single-core machine."""
    monkeypatch.setattr(fe.os, "cpu_count", lambda: 4)


@pytest.mark.parametrize("workload", ALL_WORKLOADS,
                         ids=[w.name for w in ALL_WORKLOADS])
def test_workloads_serial_equals_parallel(workload, many_cores):
    sources = workload.sources("train")
    want = result_fingerprint(compile_legacy(sources))
    assert result_fingerprint(compile_jobs(sources, 1)) == want
    assert result_fingerprint(compile_jobs(sources, 4)) == want


def test_quickstart_example_serial_equals_parallel(many_cores):
    spec = importlib.util.spec_from_file_location(
        "quickstart", EXAMPLES / "quickstart.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    sources = [("quickstart.c", mod.SOURCE)]
    want = result_fingerprint(compile_legacy(sources))
    assert result_fingerprint(compile_jobs(sources, 4)) == want


MULTI_TU = [
    ("a.c", """
typedef struct node node_t;
struct node { int key; int pad; node_t *next; };
node_t *mk(int k) {
  node_t *n = (node_t*)malloc(sizeof(node_t));
  n->key = k; n->next = 0; return n;
}
"""),
    ("b.c", """
struct node;
typedef struct node node2_t;
struct node *mk(int k);
int sum(node2_t *n) {
  int s = 0;
  while (n) { s = s + n->key; n = n->next; }
  return s;
}
"""),
    ("c.c", """
struct node;
struct node *mk(int k);
int sum(struct node *n);
int main() { printf("%d\\n", sum(mk(7))); return 0; }
"""),
]


def test_multi_tu_serial_equals_parallel(many_cores):
    want = result_fingerprint(compile_legacy(MULTI_TU))
    for jobs in (1, 2, 4):
        assert result_fingerprint(compile_jobs(MULTI_TU, jobs)) == want


def test_unit_order_is_preserved(many_cores):
    result = compile_jobs(MULTI_TU, 4)
    assert [u.name for u in result.program.units] == ["a.c", "b.c", "c.c"]
    assert result.fe_report.mode == "unified"


# ---------------------------------------------------------------------------
# fallback: anything unify cannot reproduce goes through the serial path
# ---------------------------------------------------------------------------

FALLBACK_PROGRAMS = {
    # struct defined in two units: legacy merges order-sensitively
    "redefinition": [
        ("a.c", "struct s { int a; };\nint f() { return 0; }"),
        ("b.c", "struct s { int a; };\nint main() { return f(); }"),
    ],
    # typedef defined in two units
    "typedef-dup": [
        ("a.c", "typedef int t;\nt f() { return 1; }"),
        ("b.c", "typedef int t;\nint main() { return f(); }"),
    ],
    # parse error: diagnostics depend on serial recovery
    "parse-error": [
        ("a.c", "struct s { int a; };\nint f( { return 0; }"),
        ("b.c", "int main() { return 0; }"),
    ],
}


@pytest.mark.parametrize("name", sorted(FALLBACK_PROGRAMS))
def test_fallback_matches_legacy(name, many_cores):
    sources = FALLBACK_PROGRAMS[name]
    result = compile_jobs(sources, 4)
    assert result.fe_report.mode == "legacy"
    assert result.fe_report.fallback_reason
    prog = result.program
    legacy = Program.from_sources(sources, recover=True)
    assert [u.name for u in prog.units] == [u.name for u in legacy.units]
    assert [(e.unit, e.line, e.message) for e in prog.frontend_errors] \
        == [(e.unit, e.line, e.message) for e in legacy.frontend_errors]
    assert result_fingerprint(result) == \
        result_fingerprint(compile_legacy(sources))


def test_jobs_validation():
    with pytest.raises(ValueError):
        CompilerOptions(jobs=0)
