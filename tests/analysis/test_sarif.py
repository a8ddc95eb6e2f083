"""SARIF output: payload shape, self-validation, CLI integration."""

import json
import os
import subprocess
import sys

from repro.analysis.annotate import annotate
from repro.analysis.diagnostics import CODES, run_diagnostics
from repro.analysis.sarif import (RULE_DESCRIPTIONS, SARIF_VERSION,
                                  sarif_payload, validate_sarif)

#: repo root (the subprocesses' relative ``src`` path resolves here)
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

RACY = """
int x;
void worker() {
    int t = x;
    x = t + 1;
}
void main() { spawn worker(); spawn worker(); }
"""


def test_every_code_has_a_rule_description():
    assert set(RULE_DESCRIPTIONS) == set(CODES)


def _lint(source, filename):
    return run_diagnostics(annotate(source), filename=filename)


def test_sarif_payload_validates():
    diags = _lint(RACY, "racy.c")
    assert diags, "the racy template must produce diagnostics"
    payload = sarif_payload({"racy.c": diags})
    assert validate_sarif(payload) == []
    assert payload["version"] == SARIF_VERSION
    results = payload["runs"][0]["results"]
    assert len(results) == len(diags)
    declared = {r["id"] for r in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert {r["ruleId"] for r in results} <= declared


def test_sarif_payload_empty_diags():
    payload = sarif_payload({})
    assert validate_sarif(payload) == []
    assert payload["runs"][0]["results"] == []


def test_validator_rejects_broken_payloads():
    assert validate_sarif([]) != []
    assert validate_sarif({"version": "1.0", "runs": []}) != []
    good = sarif_payload({"f.c": _lint(RACY, "f.c")})
    bad = json.loads(json.dumps(good))
    bad["runs"][0]["results"][0]["ruleId"] = 123
    assert any("ruleId" in p for p in validate_sarif(bad))
    bad = json.loads(json.dumps(good))
    del bad["runs"][0]["results"][0]["locations"]
    assert validate_sarif(bad) != []


def test_cli_lint_sarif(tmp_path):
    src = tmp_path / "racy.c"
    src.write_text(RACY)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--sarif", str(src)],
        capture_output=True, text=True, cwd=_REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    payload = json.loads(proc.stdout)
    assert validate_sarif(payload) == []
    assert any(r["ruleId"] == "W001"
               for r in payload["runs"][0]["results"])
