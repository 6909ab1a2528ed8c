"""Multi-threaded layout advice tests (the §2.4 future-work heuristics)."""

from repro.api import Session
from repro.core import CompilerOptions
from repro.advisor import (
    advise_multithreaded, mt_report, rw_class, MTParams,
    false_sharing_candidates,
)

# two write-heavy counters used in disjoint phases (different "threads"),
# plus shared read-mostly configuration fields
SRC = """
struct shared {
    long cfg_a;
    long cfg_b;
    long counter_x;
    long counter_y;
};
struct shared *st;
int main() {
    int i; int it; long s = 0;
    st = (struct shared*) malloc(40 * sizeof(struct shared));
    for (i = 0; i < 40; i++) { st[i].cfg_a = i; st[i].cfg_b = -i; }
    for (it = 0; it < 9; it++)
        for (i = 0; i < 40; i++)
            st[i].counter_x = st[i].counter_x + (st[i].cfg_a & 1);
    for (it = 0; it < 9; it++)
        for (i = 0; i < 40; i++)
            st[i].counter_y = st[i].counter_y + (st[i].cfg_b & 1);
    for (i = 0; i < 40; i++) s += st[i].counter_x - st[i].counter_y;
    printf("%ld", s);
    return 0;
}
"""


def profile():
    res = Session(CompilerOptions(transform=False)).compile_source(SRC)
    return res.profiles["shared"]


class TestClassification:
    def test_rw_classes(self):
        prof = profile()
        params = MTParams()
        assert rw_class(prof, "cfg_a", params) == "read-mostly"
        assert rw_class(prof, "cfg_b", params) == "read-mostly"
        # counters are read-modify-write: balanced -> write-heavy at 0.5
        assert rw_class(prof, "counter_x", params) == "write-heavy"

    def test_unused_field(self):
        res = Session(CompilerOptions(transform=False)).compile_source(
            "struct t { long a; long never; }; struct t g;"
            "int main() { g.a = 1; return (int) g.a; }")
        assert rw_class(res.profiles["t"], "never", MTParams()) == \
            "unused"


class TestFalseSharing:
    def test_disjoint_writers_on_same_line_flagged(self):
        prof = profile()
        candidates = false_sharing_candidates(prof, MTParams())
        pairs = {frozenset((c.field_a, c.field_b)) for c in candidates}
        assert frozenset(("counter_x", "counter_y")) in pairs

    def test_affine_writers_not_flagged(self):
        src = SRC.replace(
            "st[i].counter_y = st[i].counter_y + (st[i].cfg_b & 1);",
            "st[i].counter_y = st[i].counter_y + 1;"
        ).replace(
            "st[i].counter_x = st[i].counter_x + (st[i].cfg_a & 1);",
            "st[i].counter_x = st[i].counter_x + 1;"
            " st[i].counter_y = st[i].counter_y + 1;")
        res = Session(CompilerOptions(transform=False)).compile_source(src)
        prof = res.profiles["shared"]
        candidates = false_sharing_candidates(prof, MTParams())
        pairs = {frozenset((c.field_a, c.field_b)) for c in candidates}
        assert frozenset(("counter_x", "counter_y")) not in pairs


class TestAdvice:
    def test_layout_separates_writers(self):
        advice = advise_multithreaded(profile())
        groups = advice.layout_groups
        # counters end up in different groups (different cache lines)
        homes = {}
        for k, g in enumerate(groups):
            for f in g:
                homes[f] = k
        assert homes["counter_x"] != homes["counter_y"]
        # readers grouped together
        assert homes["cfg_a"] == homes["cfg_b"]

    def test_layout_covers_all_fields(self):
        prof = profile()
        advice = advise_multithreaded(prof)
        flat = sorted(f for g in advice.layout_groups for f in g)
        assert flat == sorted(prof.record.field_names())

    def test_report_text(self):
        text = mt_report(profile())
        assert "Multi-threaded layout advice" in text
        assert "false-sharing" in text
        assert "counter_x" in text
