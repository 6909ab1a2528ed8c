"""CLI tests (the §5 standalone tool)."""

import pytest

from repro.cli import main, build_parser

DEMO = """
struct item { long key; long val; long rare1; long rare2; double dead; };
struct item *tab;
int main() {
    int i; int it; long s = 0;
    tab = (struct item*) malloc(300 * sizeof(struct item));
    for (i = 0; i < 300; i++) { tab[i].key = i; tab[i].val = 2 * i;
        tab[i].rare1 = i; tab[i].rare2 = -i; tab[i].dead = 0.1; }
    for (it = 0; it < 10; it++)
        for (i = 0; i < 300; i++) s += tab[i].key + tab[i].val;
    for (i = 0; i < 300; i++) s += tab[i].rare1 - tab[i].rare2;
    printf("s=%ld\\n", s);
    return 0;
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestAnalyze:
    def test_reports_legality_and_plan(self, demo_file, capsys):
        assert main(["analyze", demo_file]) == 0
        out = capsys.readouterr().out
        assert "record types: 1" in out
        assert "item" in out
        assert "plan=peel" in out

    def test_relax_flag(self, demo_file, capsys):
        assert main(["analyze", "--relax", demo_file]) == 0

    def test_scheme_flag(self, demo_file, capsys):
        assert main(["analyze", "--scheme", "SPBO", demo_file]) == 0

    def test_bad_scheme_rejected(self, demo_file):
        with pytest.raises(SystemExit):
            main(["analyze", "--scheme", "MAGIC", demo_file])


class TestRun:
    def test_executes_and_reports_cycles(self, demo_file, capsys):
        assert main(["run", demo_file]) == 0
        out = capsys.readouterr().out
        assert "s=" in out
        assert "cycles]" in out

    def test_stats_flag(self, demo_file, capsys):
        main(["run", "--stats", demo_file])
        out = capsys.readouterr().out
        assert "L1D" in out

    def test_exit_code_propagates(self, tmp_path, capsys):
        p = tmp_path / "f.c"
        p.write_text("int main() { return 3; }")
        assert main(["run", str(p)]) == 3


class TestTransform:
    def test_emits_source_to_stdout(self, demo_file, capsys):
        assert main(["transform", demo_file]) == 0
        out = capsys.readouterr().out
        assert "struct item__p0" in out
        assert "malloc" in out

    def test_output_file(self, demo_file, tmp_path, capsys):
        out_file = tmp_path / "out.c"
        assert main(["transform", demo_file, "-o", str(out_file)]) == 0
        assert "struct item__p0" in out_file.read_text()

    def test_transformed_source_recompiles(self, demo_file, tmp_path,
                                           capsys):
        out_file = tmp_path / "out.c"
        main(["transform", demo_file, "-o", str(out_file)])
        capsys.readouterr()
        assert main(["run", str(out_file)]) == 0
        assert "s=" in capsys.readouterr().out

    def test_peel_mode_flag(self, demo_file, capsys):
        # no cold fields here, so hot-cold grouping degenerates to a
        # single piece: the framework falls back to dead-field removal
        assert main(["transform", "--peel-mode", "hot-cold",
                     demo_file]) == 0
        out = capsys.readouterr().out
        assert "struct item" in out
        assert "double dead;" not in out

    def test_ts_flag_changes_split(self, demo_file, capsys):
        assert main(["transform", "--ts", "0.0001", demo_file]) == 0

    @pytest.mark.parametrize("flag,value", [("--ts", "30"),
                                            ("--peel-mode", "hot-cold")])
    def test_greedy_knob_flags_run_no_search(self, demo_file, capsys,
                                             monkeypatch, recwarn,
                                             flag, value):
        from repro.core import pipeline
        searched = []
        monkeypatch.setattr(pipeline, "capture_trace",
                            lambda *a, **k: searched.append(a))
        monkeypatch.setattr(pipeline, "search_type",
                            lambda *a, **k: searched.append(a))
        assert main(["transform", flag, value, demo_file]) == 0
        assert "struct item" in capsys.readouterr().out
        assert searched == []
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]


class TestCompare:
    def test_reports_effect(self, demo_file, capsys):
        assert main(["compare", demo_file]) == 0
        out = capsys.readouterr().out
        assert "effect   :" in out
        assert "item" in out


class TestAdvise:
    def test_report_printed(self, demo_file, capsys):
        assert main(["advise", demo_file]) == 0
        out = capsys.readouterr().out
        assert "Type     : item" in out
        assert "scenario advice" in out

    def test_profile_mode(self, demo_file, capsys):
        assert main(["advise", "--profile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "miss :" in out

    def test_vcg_output(self, demo_file, tmp_path, capsys):
        vcg = tmp_path / "g.vcg"
        assert main(["advise", demo_file, "--vcg", str(vcg)]) == 0
        assert vcg.read_text().startswith("graph: {")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_multi_file_program(self, tmp_path, capsys):
        a = tmp_path / "a.c"
        b = tmp_path / "b.c"
        a.write_text("struct s { long v; }; struct s *g;\n"
                     "long touch(void);\n"
                     "int main() { g = (struct s*) malloc(8 * "
                     "sizeof(struct s)); g[0].v = touch(); "
                     "printf(\"%ld\", g[0].v); return 0; }")
        b.write_text("long touch(void) { return 42; }")
        assert main(["run", str(a), str(b)]) == 0
        assert "42" in capsys.readouterr().out


class TestAdviseMT:
    def test_mt_flag(self, demo_file, capsys):
        assert main(["advise", "--mt", demo_file]) == 0
        out = capsys.readouterr().out
        assert "Multi-threaded layout advice" in out
