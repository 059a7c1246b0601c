"""Engine-level behavior: output formats, exit codes, CLI plumbing,
and syntax-error handling."""

import json

from repro.lintkit import format_human, format_json
from repro.lintkit.engine import main

_BAD_SRC = """\
import random

x = random.random()
"""


def _write_tree(tmp_path, source=_BAD_SRC):
    target = tmp_path / "src" / "repro" / "sim" / "x.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


def test_format_json_structure(lint_tree):
    result = lint_tree(
        {"src/repro/sim/x.py": _BAD_SRC}, rules=["DET001"]
    )
    data = json.loads(format_json(result))
    assert data["version"] == 1
    assert data["summary"]["files"] == 1
    assert data["summary"]["findings"] == 1
    assert data["summary"]["by_rule"]["DET001"]["findings"] == 1
    (finding,) = data["findings"]
    assert finding["rule"] == "DET001"
    assert finding["severity"] == "error"
    assert finding["path"].endswith("x.py")
    assert finding["line"] == 3
    assert finding["fix_hint"]


def test_format_human_has_location_and_summary_line(lint_tree):
    result = lint_tree(
        {"src/repro/sim/x.py": _BAD_SRC}, rules=["DET001"]
    )
    text = format_human(result)
    assert "x.py:3:" in text
    assert "DET001" in text
    assert "lint: 1 files, 1 findings, 0 suppressed" in text


def test_main_exit_zero_on_clean_tree(tmp_path, capsys):
    _write_tree(tmp_path, "x = 1\n")
    code = main([str(tmp_path), "--root", str(tmp_path)])
    assert code == 0


def test_main_exit_one_on_findings(tmp_path, capsys):
    _write_tree(tmp_path)
    code = main([str(tmp_path), "--root", str(tmp_path)])
    assert code == 1
    assert "DET001" in capsys.readouterr().out


def test_main_exit_two_on_unknown_rule(tmp_path, capsys):
    _write_tree(tmp_path)
    code = main([str(tmp_path), "--root", str(tmp_path), "--rules", "BOGUS9"])
    assert code == 2


def test_main_list_rules_prints_catalogue(capsys):
    code = main(["--list-rules"])
    assert code == 0
    out = capsys.readouterr().out
    for rule_id in (
        "DET001", "DET002", "DET003", "DET004",
        "UNIT001", "UNIT002", "UNIT003",
        "DTYPE001",
        "CONC001", "CONC002", "CONC003", "CONC004",
        "CRASH001", "CRASH002", "CRASH003", "CRASH004",
        "PICKLE001", "PICKLE002",
    ):
        assert rule_id in out
    assert "DRIFT" not in out


def test_main_writes_json_report_to_output_file(tmp_path, capsys):
    _write_tree(tmp_path)
    report = tmp_path / "lint.json"
    code = main(
        [
            str(tmp_path),
            "--root", str(tmp_path),
            "--format", "json",
            "--output", str(report),
        ]
    )
    assert code == 1
    data = json.loads(report.read_text())
    assert data["summary"]["findings"] == 1


def test_syntax_error_becomes_parse_finding(lint_tree):
    result = lint_tree({"src/repro/sim/broken.py": "def broken(:\n"})
    assert not result.ok
    assert [f.rule for f in result.findings] == ["PARSE"]
    assert "syntax error" in result.findings[0].message
