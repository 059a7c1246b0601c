"""SARIF output structure."""

import json

from repro.lintkit.sarif import format_sarif

_BAD = """
    import json

    def write_checkpoint(path, payload):
        with open(path, "w") as fh:
            json.dump(payload, fh)
"""


def test_sarif_document_shape_and_rule_catalogue(lint_tree):
    result = lint_tree(
        {"src/repro/svc/saver.py": _BAD}, rules=["CRASH001"]
    )
    doc = json.loads(format_sarif(result))
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    rules = run["tool"]["driver"]["rules"]
    ids = [r["id"] for r in rules]
    # full catalogue ships regardless of which rules fired
    for expected in ("DET001", "CONC001", "CRASH003", "PICKLE001",
                     "SUP001", "PARSE"):
        assert expected in ids
    (res,) = run["results"]
    assert res["ruleId"] == "CRASH001"
    assert res["level"] == "error"
    assert res["ruleIndex"] == ids.index("CRASH001")
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/svc/saver.py"
    assert loc["region"]["startLine"] >= 1
    assert loc["region"]["startColumn"] >= 1


def test_sarif_levels_map_severities(lint_tree):
    result = lint_tree({
        "src/repro/svc/saver.py": """
            import json
            import os

            def write_checkpoint(path, payload):
                tmp = f"{path}.tmp"
                with open(tmp, "w") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
        """,
    }, rules=["CRASH003"])
    doc = json.loads(format_sarif(result))
    (res,) = doc["runs"][0]["results"]
    assert res["level"] == "note"
