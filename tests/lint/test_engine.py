"""Engine-level tests: pragmas, diagnostics, selection, traversal."""

from __future__ import annotations

import pytest

from repro.lint.__main__ import main
from repro.lint.engine import (
    SYNTAX_ERROR,
    UNKNOWN_PRAGMA_RULE,
    LintError,
    all_rules,
    iter_python_files,
    lint_paths,
    lint_source,
)

WALL_CLOCK = "import time\nvalue = time.time()\n"


class TestPragmas:
    def test_line_pragma_suppresses_the_named_rule(self):
        source = ("import time\n"
                  "value = time.time()"
                  "  # simlint: disable=ND02 -- calibration only\n")
        assert lint_source(source) == []

    def test_line_pragma_only_covers_its_own_line(self):
        source = ("import time\n"
                  "a = time.time()  # simlint: disable=ND02 -- here\n"
                  "b = time.time()\n")
        findings = lint_source(source)
        assert [(f.rule, f.line) for f in findings] == [("ND02", 3)]

    def test_line_pragma_does_not_cover_other_rules(self):
        source = ("import time\n"
                  "value = time.time()  # simlint: disable=ND05 -- wrong\n")
        assert [f.rule for f in lint_source(source)] == ["ND02"]

    def test_file_pragma_suppresses_module_wide(self):
        source = ("# simlint: disable-file=ND02 -- calibration module\n"
                  "import time\n"
                  "a = time.time()\n"
                  "b = time.time()\n")
        assert lint_source(source) == []

    def test_pragma_text_in_a_string_suppresses_nothing(self):
        docstring = '"""\n# simlint: disable-file=ND02 -- x\n"""\n' + WALL_CLOCK
        assert [f.rule for f in lint_source(docstring)] == ["ND02"]
        same_line = ("import time\n"
                     "value = (time.time(), '# simlint: disable=ND02 -- x')\n")
        assert [f.rule for f in lint_source(same_line)] == ["ND02"]

    def test_unknown_rule_in_pragma_is_reported(self):
        source = "x = 1  # simlint: disable=ND99 -- typo\n"
        findings = lint_source(source)
        assert [f.rule for f in findings] == [UNKNOWN_PRAGMA_RULE]
        assert "ND99" in findings[0].message

    def test_bare_pragma_fails_the_default_scan(self, tmp_path, capsys):
        bare = tmp_path / "bare.py"
        bare.write_text("import time\n"
                        "value = time.time()  # simlint: disable=ND02\n")
        assert main([str(bare)]) == 1
        assert "E003" in capsys.readouterr().out

        justified = tmp_path / "justified.py"
        justified.write_text(
            "import time\n"
            "value = time.time()  # simlint: disable=ND02 -- calibration\n")
        assert main([str(justified)]) == 0

    def test_multi_rule_pragma(self):
        source = ("import time\n"
                  "def stamp(log=[]): return log + [time.time()]"
                  "  # simlint: disable=ND02,ND05 -- drill\n")
        assert lint_source(source) == []


class TestDiagnostics:
    def test_syntax_error_becomes_a_finding(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == [SYNTAX_ERROR]

    def test_findings_carry_location_and_format(self):
        findings = lint_source(WALL_CLOCK, path="pkg/mod.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "pkg/mod.py"
        assert finding.line == 2
        assert finding.format().startswith("pkg/mod.py:2:")
        assert "ND02" in finding.format()


class TestSelection:
    def test_select_narrows_to_named_rules(self):
        source = ("import time\n"
                  "def stamp(log=[]): return log + [time.time()]\n")
        assert {f.rule for f in lint_source(source)} == {"ND02", "ND05"}
        assert {f.rule for f in lint_source(source, select=["ND02"])} \
            == {"ND02"}

    def test_unknown_selection_is_an_error(self):
        with pytest.raises(LintError):
            lint_source("x = 1\n", select=["ND99"])

    def test_rule_ids_are_unique_and_stable(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)  # ND tier first, then SD


class TestTraversal:
    def test_directory_scan_collects_sorted_python_files(self, tmp_path):
        (tmp_path / "b.py").write_text(WALL_CLOCK)
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text(WALL_CLOCK)
        (tmp_path / "notes.txt").write_text("not python")
        files = iter_python_files([str(tmp_path)])
        assert [f.rsplit("/", 1)[-1] for f in files] == ["a.py", "b.py"]
        findings = lint_paths([str(tmp_path)])
        assert [f.rule for f in findings] == ["ND02"]

    def test_missing_path_is_an_error(self):
        with pytest.raises(LintError):
            lint_paths(["/no/such/path-for-simlint"])
