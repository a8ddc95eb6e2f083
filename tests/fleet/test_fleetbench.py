"""Fleetbench artifact tests: schema, validation gates, smoke run."""

import json

import pytest

from repro.bench import fleetbench
from repro.bench.schema import write_artifact


def _payload(**overrides):
    base = {
        "schema": fleetbench.SCHEMA,
        "host": {"cpu_count": 1},
        "scale": 0.2,
        "seeds": [3],
        "modes": ["prevention"],
        "start_method": "fork",
        "job_count": 5,
        "series": [
            {"workers": 1, "jobs": 5, "failed": 0, "elapsed_s": 5.0,
             "jobs_per_sec": 1.0, "retried": 0, "workers_crashed": 0,
             "frames_salvaged": 0, "digest": "d", "speedup_vs_1": 1.0},
            {"workers": 2, "jobs": 5, "failed": 0, "elapsed_s": 5.0,
             "jobs_per_sec": 1.0, "retried": 0, "workers_crashed": 0,
             "frames_salvaged": 0, "digest": "d", "speedup_vs_1": 1.0},
        ],
        "determinism_ok": True,
    }
    base.update(overrides)
    return base


def test_validate_accepts_well_formed_payload():
    assert fleetbench.validate(_payload()) == []


def test_validate_rejects_wrong_schema():
    problems = fleetbench.validate(_payload(schema="nope/v9"))
    assert any("schema" in p for p in problems)


def test_validate_rejects_digest_mismatch():
    payload = _payload()
    payload["series"][1]["digest"] = "different"
    problems = fleetbench.validate(payload)
    assert any("digests differ" in p for p in problems)


def test_validate_rejects_lost_jobs():
    payload = _payload()
    payload["series"][0]["jobs"] = 4
    problems = fleetbench.validate(payload)
    assert any("lost" in p for p in problems)


def test_validate_rejects_failed_jobs():
    payload = _payload()
    payload["series"][0]["failed"] = 2
    assert any("failed" in p for p in fleetbench.validate(payload))


def test_speedup_gate_only_on_capable_hosts():
    slow4 = {"workers": 4, "jobs": 5, "failed": 0, "elapsed_s": 5.0,
             "jobs_per_sec": 1.0, "retried": 0, "workers_crashed": 0,
             "frames_salvaged": 0, "digest": "d", "speedup_vs_1": 1.0}
    payload = _payload()
    payload["series"].append(dict(slow4))
    # 1-CPU host: flat scaling is the honest, passing result
    assert fleetbench.validate(payload) == []
    # 8-CPU host: flat scaling at 4 workers is a failure
    big = _payload(host={"cpu_count": 8})
    big["series"].append(dict(slow4))
    assert any("speedup" in p for p in fleetbench.validate(big))
    # multi-CPU host whose sweep never ran 4 workers (the CI smoke):
    # nothing to gate on, still valid
    smoke = _payload(host={"cpu_count": 8})
    assert fleetbench.validate(smoke) == []


def test_build_bench_jobs_mix():
    specs = fleetbench.build_bench_jobs(scale=0.2, seeds=(3, 11))
    assert len(specs) == 20  # 5 apps x 2 seeds x 2 modes
    assert len({s.job_id for s in specs}) == 20


def test_generate_smoke_and_artifact(tmp_path):
    payload = fleetbench.generate(workers_list=(0, 1), scale=0.12,
                                  seeds=(3,), start_method="fork")
    assert fleetbench.validate(payload) == []
    assert payload["job_count"] == 10
    assert payload["determinism_ok"]
    text = fleetbench.render(payload)
    assert "jobs/sec" in text and "digest ok" in text
    out = str(tmp_path / "BENCH_fleet.json")
    write_artifact(payload, out)
    with open(out) as f:
        assert fleetbench.validate(json.load(f)) == []
