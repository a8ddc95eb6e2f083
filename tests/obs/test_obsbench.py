"""obsbench: the cheap, deterministic pieces (the timing series runs in
`kivati bench run obs` / CI, not in the unit suite)."""

from repro.bench import obsbench


def test_sentinel_selfcheck_passes():
    result = obsbench.sentinel_selfcheck()
    assert result["ok"]
    assert result["identical_pass"]
    assert result["synthetic_flagged"]
    assert result["synthetic_regressions"] == 2


def test_corpus_transparency_on_a_slice():
    verdicts = obsbench.corpus_transparency(bug_ids=["44402"], seeds=(0,))
    assert verdicts["identical"]
    assert verdicts["diffs"] == []
    assert verdicts["runs_checked"] == 1


def test_digest_identity_without_fleet():
    digests = obsbench.digest_identity(scale=0.05, fleet_jobs=False)
    assert digests["all_equal"]
    assert len(digests["apps"]) == 5
    assert all(row["equal"] for row in digests["apps"])


def _payload(**overrides):
    payload = {
        "schema": obsbench.SCHEMA,
        "smoke": True,
        "budget": 0.05,
        "overhead": {
            "apps": [{"app": "NSS", "instrs": 1000, "overhead_frac": 0.01,
                      "base_instrs_per_sec": 100000.0,
                      "obs_instrs_per_sec": 99000.0}],
            "overall_frac": 0.01,
            "rounds": 2,
            "clock": "process_time",
        },
        "verdicts": {"identical": True, "diffs": [], "runs_checked": 1},
        "digests": {"all_equal": True, "apps": []},
        "determinism": {"ok": True, "distinct_outputs": 1},
        "sentinel": {"ok": True},
        "profile": [],
    }
    payload.update(overrides)
    return payload


def test_validate_accepts_clean_payload():
    assert obsbench.validate(_payload()) == []


def test_validate_gates_overhead_budget():
    row = {"app": "NSS", "instrs": 1000, "overhead_frac": 0.30,
           "base_instrs_per_sec": 100000.0, "obs_instrs_per_sec": 70000.0}
    over = _payload(smoke=False, overhead={
        "apps": [row], "overall_frac": 0.30, "rounds": 2,
        "clock": "process_time"})
    problems = obsbench.validate(over)
    assert any("above budget" in p for p in problems)
    # an artifact cannot relax its own budget: the echoed key is ignored
    over["budget"] = 1.0
    assert any("above budget" in p for p in obsbench.validate(over))
    # smoke artifacts are held to SMOKE_BUDGET instead
    relaxed = _payload(overhead={
        "apps": [dict(row)], "overall_frac": 0.30, "rounds": 2,
        "clock": "process_time"})
    assert obsbench.validate(relaxed) == []


def test_validate_gates_transparency_and_determinism():
    assert any("verdict" in p for p in obsbench.validate(
        _payload(verdicts={"identical": False, "diffs": ["x"]})))
    assert any("digests differ" in p for p in obsbench.validate(
        _payload(digests={"all_equal": False})))
    assert any("byte-identical" in p for p in obsbench.validate(
        _payload(determinism={"ok": False, "distinct_outputs": 2})))
    assert any("sentinel" in p for p in obsbench.validate(
        _payload(sentinel={"ok": False})))
    assert any("5 apps" in p for p in obsbench.validate(
        _payload(smoke=False)))


def test_render_mentions_the_gates():
    text = obsbench.render(_payload())
    assert "Observability overhead" in text
    assert "verdicts identical" in text
    assert "sentinel ok" in text
