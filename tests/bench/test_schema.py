"""The bench-plane contract (`kivati bench run` / `kivati bench
validate`): registry, shared schema plumbing, and validators that gate
on their own constants rather than the artifact's."""

import copy
import json
import os
import re

import pytest

from repro.bench import schema as bench_schema

#: the committed artifacts live at the repo root
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _committed(plane):
    with open(os.path.join(_REPO_ROOT, "BENCH_%s.json" % plane)) as f:
        return json.load(f)


def test_check_schema_preamble():
    assert bench_schema.check_schema([], "x/v1") \
        == ["payload is not an object"]
    assert bench_schema.check_schema({"schema": "x/v1", "a": 1}, "x/v1",
                                     required=("a",)) == []
    problems = bench_schema.check_schema({"schema": "y/v1"}, "x/v1",
                                         required=("a", "b"))
    assert len(problems) == 3
    assert any("want 'x/v1'" in p for p in problems)
    assert any("missing key 'a'" in p for p in problems)


def test_known_schemas_covers_every_registered_module():
    schemas = bench_schema.known_schemas()
    assert set(schemas.values()) == set(bench_schema.PLANES.values())
    assert "kivati-obsbench/v1" in schemas
    assert "kivati-fleetbench/v1" in schemas


def test_validate_artifact_dispatches_by_schema():
    assert bench_schema.validate_artifact("nope") \
        == ["payload is not an object"]
    problems = bench_schema.validate_artifact({"schema": "martian/v9"})
    assert len(problems) == 1
    assert "unknown schema" in problems[0]
    # a known schema dispatches to the owning module's validate(),
    # which then reports its own missing-key problems
    problems = bench_schema.validate_artifact(
        {"schema": "kivati-fleetbench/v1"})
    assert problems
    assert all("martian" not in p for p in problems)


def test_validate_file_handles_bad_inputs(tmp_path):
    missing = tmp_path / "nope.json"
    assert any("cannot read" in p
               for p in bench_schema.validate_file(str(missing)))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert any("not valid JSON" in p
               for p in bench_schema.validate_file(str(garbled)))


def test_committed_artifacts_discovery(tmp_path):
    (tmp_path / "BENCH_a.json").write_text("{}")
    (tmp_path / "BENCH_b.json").write_text("{}")
    (tmp_path / "README.md").write_text("not an artifact")
    (tmp_path / "BENCH_dir.json").mkdir()
    assert bench_schema.committed_artifacts(str(tmp_path)) \
        == ["BENCH_a.json", "BENCH_b.json"]


def test_validate_committed_repo_set_is_clean():
    report = bench_schema.validate_committed(_REPO_ROOT)
    assert report, "expected committed BENCH_*.json artifacts"
    failures = {name: problems for name, problems in report.items()
                if problems}
    assert failures == {}


def test_registered_modules_validate_their_own_artifacts():
    # every committed artifact is BENCH_<plane>.json for a registered
    # plane, and agrees with the payload's schema-based dispatch
    names = bench_schema.committed_artifacts(_REPO_ROOT)
    assert names == sorted("BENCH_%s.json" % plane
                           for plane in bench_schema.PLANES)
    for plane in bench_schema.PLANES:
        payload = _committed(plane)
        assert bench_schema.known_schemas()[payload["schema"]] \
            == bench_schema.PLANES[plane]
        module = bench_schema.plane_module(plane)
        for name in ("SCHEMA", "generate", "validate", "render"):
            assert hasattr(module, name), (plane, name)


def _tamper_obs(payload):
    payload["budget"] = 1.0
    for row in payload["overhead"]["apps"]:
        row["overhead_frac"] = 0.5
    payload["overhead"]["overall_frac"] = 0.5


def _tamper_fuzz(payload):
    payload["min_fix_rate"] = 0
    payload["fixes"]["rate"] = 0.1


def _tamper_checker(payload):
    payload["min_speedup"] = 0
    payload["scaling"]["max_slope"] = 9
    payload["speedup"]["speedup"] = 0.5
    payload["scaling"]["slope"] = 3.0


def _tamper_conflict(payload):
    payload["min_improved"] = 0
    payload["improved"] = []


@pytest.mark.parametrize("plane,tamper", [
    ("obs", _tamper_obs), ("fuzz", _tamper_fuzz),
    ("checker", _tamper_checker), ("conflict", _tamper_conflict)])
def test_validate_ignores_the_artifacts_own_bar(plane, tamper):
    """An artifact that lowers its own echoed threshold alongside the
    measurement it gates still fails: the bar is the module's."""
    payload = copy.deepcopy(_committed(plane))
    assert bench_schema.validate_artifact(payload) == []
    tamper(payload)
    assert bench_schema.validate_artifact(payload)


@pytest.mark.parametrize("plane", sorted(bench_schema.PLANES))
def test_committed_smoke_artifact_is_rejected(tmp_path, plane):
    payload = _committed(plane)
    payload["smoke"] = True
    (tmp_path / ("BENCH_%s.json" % plane)).write_text(json.dumps(payload))
    report = bench_schema.validate_committed(str(tmp_path))
    assert any("smoke" in p for p in report["BENCH_%s.json" % plane])


def test_ci_bench_matrix_lists_every_plane():
    with open(os.path.join(_REPO_ROOT, ".github", "workflows",
                           "ci.yml")) as f:
        workflow = f.read()
    planes = re.findall(r"^\s*plane:\s*\[([^\]]*)\]", workflow, re.M)
    assert len(planes) == 1, planes
    assert [p.strip() for p in planes[0].split(",")] \
        == sorted(bench_schema.PLANES)
