"""End-to-end pipeline and advisor tests."""

import pytest

from repro.api import Session
from repro.core import (
    Compiler, CompilerOptions, SCHEMES,
)
from repro.frontend import Program
from repro.runtime import run_program
from repro.profit import collect_feedback
from repro.advisor import (
    advisor_report, AdvisorOptions, hotness_bar, rw_bar, affinity_vcg,
    program_vcg, classify_type, classify_report, affinity_clusters,
    ClassifierParams,
)

SRC = """
struct item { long key; long weight; long spare1; long spare2; };
struct item *items;
int main() {
    int i; int it; long s = 0;
    items = (struct item*) malloc(80 * sizeof(struct item));
    for (i = 0; i < 80; i++) {
        items[i].key = i;
        items[i].weight = i * 3;
        items[i].spare1 = 0;
        items[i].spare2 = 0;
    }
    for (it = 0; it < 15; it++)
        for (i = 0; i < 80; i++)
            s += items[i].key * items[i].weight;
    for (i = 0; i < 80; i++) s += items[i].spare1 + items[i].spare2;
    printf("%ld", s);
    return 0;
}
"""


class TestPipeline:
    def test_compile_source_end_to_end(self):
        res = Session().compile_source(SRC)
        assert res.legality.counts()[0] == 1
        assert res.transformed is not res.program
        assert run_program(res.program).stdout == \
            run_program(res.transformed).stdout

    def test_all_static_schemes_run(self):
        for scheme in ("SPBO", "ISPBO", "ISPBO.NO", "ISPBO.W"):
            res = Session(CompilerOptions(scheme=scheme)).compile_source(SRC)
            assert res.weights.scheme == scheme

    def test_pbo_requires_feedback(self):
        with pytest.raises(ValueError):
            CompilerOptions(scheme="PBO")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            CompilerOptions(scheme="MAGIC")

    def test_pbo_scheme_end_to_end(self):
        p = Program.from_source(SRC)
        fb = collect_feedback(Program.from_source(SRC))
        res = Session(CompilerOptions(scheme="PBO",
                                      feedback=fb)).compile(p)
        assert res.weights.scheme == "PBO"
        assert run_program(res.program).stdout == \
            run_program(res.transformed).stdout

    def test_transform_false_keeps_program(self):
        res = Session(CompilerOptions(transform=False)).compile_source(SRC)
        assert res.transformed is res.program

    def test_timings_recorded(self):
        res = Session().compile_source(SRC)
        assert set(res.timings) == {"fe", "ipa", "be"}
        assert all(t >= 0 for t in res.timings.values())

    def test_table_rows(self):
        res = Session().compile_source(SRC)
        types, legal, relaxed = res.table1_row()
        assert (types, legal) == (1, 1)
        t, tt, sd = res.table3_row()
        assert t == 1 and tt == 1 and sd >= 2

    def test_decision_lookup(self):
        res = Session().compile_source(SRC)
        assert res.decision_for("item") is not None
        assert res.decision_for("missing") is None

    def test_schemes_constant(self):
        assert "ISPBO" in SCHEMES and "PBO" in SCHEMES

    def test_compiler_reusable(self):
        c = Compiler()
        r1 = c.compile(Program.from_source(SRC))
        r2 = c.compile(Program.from_source(SRC))
        assert r1.table1_row() == r2.table1_row()


class TestAdvisorReport:
    def test_report_contains_figure2_elements(self):
        res = Session(CompilerOptions(transform=False)).compile_source(SRC)
        text = advisor_report(res)
        assert "Type     : item" in text
        assert "Fields   : 4" in text
        assert "Transform:" in text
        assert "Status   :" in text
        assert 'Field[0]' in text
        assert "aff:" in text
        assert "read :" in text

    def test_report_with_dcache_samples(self):
        fb = collect_feedback(Program.from_source(SRC), pmu_period=4)
        res = Session(CompilerOptions(transform=False)).compile_source(SRC)
        text = advisor_report(res, feedback=fb)
        assert "miss :" in text
        assert "[cyc]" in text

    def test_unused_fields_marked(self):
        src = SRC.replace(
            "for (i = 0; i < 80; i++) s += items[i].spare1 "
            "+ items[i].spare2;", "") \
            .replace("items[i].spare1 = 0;\n", "") \
            .replace("items[i].spare1 = 0;", "") \
            .replace("items[i].spare2 = 0;", "")
        res = Session(CompilerOptions(transform=False)).compile_source(src)
        text = advisor_report(res)
        assert "*unused*" in text

    def test_types_sorted_by_hotness(self):
        src = SRC.replace("struct item *items;",
                          "struct coldtype { long z; };\n"
                          "struct coldtype *ct;\n"
                          "struct item *items;") \
            .replace("return 0;\n}",
                     "ct = (struct coldtype*) malloc("
                     "4 * sizeof(struct coldtype));"
                     "ct[0].z = 1; return 0;\n}")
        res = Session(CompilerOptions(transform=False)).compile_source(src)
        text = advisor_report(res)
        assert text.index("Type     : item") < \
            text.index("Type     : coldtype")

    def test_max_types_option(self):
        res = Session(CompilerOptions(transform=False)).compile_source(SRC)
        text = advisor_report(res, options=AdvisorOptions(max_types=0))
        assert "Type     :" not in text

    def test_bars(self):
        assert hotness_bar(100.0) == "|##########|"
        assert hotness_bar(0.0) == "|----------|"
        assert hotness_bar(50.0).count("#") == 5
        assert rw_bar(8, 0) == "|RRRRRRRR|"
        assert rw_bar(0, 8) == "|WWWWWWWW|"
        assert rw_bar(0, 0) == "|        |"
        mixed = rw_bar(6, 2)
        assert mixed.count("R") == 6 and mixed.count("w") == 2


class TestVCG:
    def test_vcg_structure(self):
        res = Session(CompilerOptions(transform=False)).compile_source(SRC)
        text = affinity_vcg(res.profiles["item"])
        assert text.startswith("graph: {")
        assert 'node: { title: "key"' in text
        assert "edge:" in text
        assert text.rstrip().endswith("}")

    def test_program_vcg_concatenates(self):
        res = Session(CompilerOptions(transform=False)).compile_source(SRC)
        text = program_vcg(res.profiles)
        assert text.count("graph: {") == 1


class TestClassifier:
    TWO_PHASE = """
    struct rec { long pa1; long pa2; long pb1; long pb2; };
    struct rec *g;
    int main() {
        int i; int it; long s = 0;
        g = (struct rec*) malloc(60 * sizeof(struct rec));
        for (i = 0; i < 60; i++) {
            g[i].pa1 = i; g[i].pa2 = i; g[i].pb1 = i; g[i].pb2 = i;
        }
        for (it = 0; it < 9; it++)
            for (i = 0; i < 60; i++) s += g[i].pa1 * g[i].pa2;
        for (it = 0; it < 9; it++)
            for (i = 0; i < 60; i++) s += g[i].pb1 * g[i].pb2;
        printf("%ld", s);
        return 0;
    }
    """

    def test_clusters_split_by_phase(self):
        res = Session(CompilerOptions(transform=False)).compile_source(
            self.TWO_PHASE)
        clusters = affinity_clusters(res.profiles["rec"])
        assert ["pa1", "pa2"] in clusters
        assert ["pb1", "pb2"] in clusters

    def test_source_split_advice_for_hot_disjoint_groups(self):
        res = Session(CompilerOptions(transform=False)).compile_source(
            self.TWO_PHASE)
        advice = classify_type(res.profiles["rec"])
        kinds = {a.kind for a in advice}
        assert "source-split" in kinds

    def test_cold_group_advice(self):
        res = Session(CompilerOptions(transform=False)).compile_source(SRC)
        advice = classify_type(res.profiles["item"])
        assert any(a.kind == "split-out" for a in advice)

    def test_group_advice_for_affine_hot_groups(self):
        src = self.TWO_PHASE.replace(
            "for (i = 0; i < 60; i++) s += g[i].pb1 * g[i].pb2;",
            "for (i = 0; i < 60; i++) "
            "s += g[i].pb1 * g[i].pb2 + g[i].pa1;")
        res = Session(CompilerOptions(transform=False)).compile_source(src)
        # pa and pb groups share a hot edge now: with a high clustering
        # threshold they stay separate but register high mutual affinity
        advice = classify_type(
            res.profiles["rec"],
            params=ClassifierParams(cluster_threshold=1.01,
                                    high_affinity=0.3))
        kinds = {a.kind for a in advice}
        assert "group" in kinds

    def test_report_text(self):
        res = Session(CompilerOptions(transform=False)).compile_source(
            self.TWO_PHASE)
        text = classify_report(res.profiles["rec"])
        assert text.startswith("Advice for struct rec:")
        assert "[source-split]" in text
