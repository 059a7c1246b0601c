"""The ``python -m repro lint`` CI contract, exercised as a subprocess:
exit codes 0/1/2, JSON report severities (including the non-gating
``note`` tier), the SARIF format and the suppression budget."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_GATING = """
    import json

    def write_checkpoint(path, payload):
        with open(path, "w") as fh:
            json.dump(payload, fh)
"""

_NOTE_ONLY = """
    import json
    import os

    def write_checkpoint(path, payload):
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
"""


def run_lint(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(tmp_path),
         "--root", str(tmp_path), *args],
        capture_output=True, text=True, env=env,
    )


def write_tree(tmp_path, source):
    target = tmp_path / "src" / "repro" / "svc" / "saver.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))


def test_exit_zero_on_clean_tree(tmp_path):
    write_tree(tmp_path, "x = 1\n")
    proc = run_lint(tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_exit_one_on_gating_finding(tmp_path):
    write_tree(tmp_path, _GATING)
    proc = run_lint(tmp_path, "--rules", "CRASH001")
    assert proc.returncode == 1
    assert "CRASH001" in proc.stdout


def test_exit_two_on_unknown_rule(tmp_path):
    write_tree(tmp_path, "x = 1\n")
    proc = run_lint(tmp_path, "--rules", "NOPE001")
    assert proc.returncode == 2
    assert "NOPE001" in proc.stderr


def test_note_findings_report_but_do_not_gate(tmp_path):
    write_tree(tmp_path, _NOTE_ONLY)
    proc = run_lint(tmp_path, "--rules", "CRASH003", "--format", "json")
    # the note is in the report...
    data = json.loads(proc.stdout)
    (finding,) = data["findings"]
    assert finding["rule"] == "CRASH003"
    assert finding["severity"] == "note"
    # ...but does not fail the run
    assert proc.returncode == 0, proc.stderr


def test_json_severities_cover_all_tiers(tmp_path):
    write_tree(tmp_path, _GATING + _NOTE_ONLY.replace(
        "write_checkpoint", "write_checkpoint_v2"
    ))
    proc = run_lint(
        tmp_path, "--rules", "CRASH001,CRASH003", "--format", "json"
    )
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    severities = {f["severity"] for f in data["findings"]}
    assert severities == {"error", "note"}


def test_sarif_format_flag_round_trips(tmp_path):
    write_tree(tmp_path, _GATING)
    proc = run_lint(tmp_path, "--rules", "CRASH001", "--format", "sarif")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "CRASH001"


_SUPPRESSED = """
    import json

    def write_checkpoint(path, payload):
        with open(path, "w") as fh:  # lint: disable=CRASH001 -- test rig
            json.dump(payload, fh)
"""


def test_suppression_budget_gates_when_exceeded(tmp_path):
    write_tree(tmp_path, _SUPPRESSED)
    # Under budget: the suppression silences the finding, exit 0.
    proc = run_lint(tmp_path, "--rules", "CRASH001", "--max-suppressions", "1")
    assert proc.returncode == 0, proc.stderr
    # Budget zero: the same tree fails with a budget message.
    proc = run_lint(tmp_path, "--rules", "CRASH001", "--max-suppressions", "0")
    assert proc.returncode == 1
    assert "suppression budget exceeded" in proc.stderr
