"""Fuzz-campaign benchmark (``BENCH_fuzz.json``).

Runs a seeded generative campaign (:mod:`repro.fuzz.campaign`) through
the fleet plane and gates on the robustness claims:

- **no lost work**: every generated program comes back from the fleet
  (job results are worker-count independent, so this is a scheduling
  claim, not a luck claim);
- **no unarchived divergences**: every evaluator disagreement — online
  vs checker, report mismatch, replay divergence, conflict-sched
  opacity, deadlock, job error — is ddmin-minimized and archived with
  its seed, schedule and journal; nothing is silently dropped;
- **small repros**: every archived case minimizes to at most
  ``MAX_REPRO_LINES`` non-blank lines of mini-C;
- **fix validity**: at least ``MIN_FIX_RATE`` of confirmed violations
  get a synthesized fix that verifies under pinned replay of the
  violating schedule *and* a fresh-seed sweep.

The artifact (schema ``kivati-fuzzbench/v1``) is committed as
``BENCH_fuzz.json``; ``validate`` is the CI gate.  A ``smoke`` artifact
(CI-sized campaign, archived into a fresh temp dir) proves the
machinery; the committed full artifact (archived into ``FULL_CORPUS``)
proves the rates.
"""

import tempfile

from repro.bench.schema import check_schema, progress
from repro.bench.render import Table
from repro.fuzz.archive import load_corpus
from repro.fuzz.campaign import CampaignSpec, run_campaign

SCHEMA = "kivati-fuzzbench/v1"
#: minimized repros must fit in this many non-blank source lines
MAX_REPRO_LINES = 20
#: fraction of confirmed violations that must get a verified fix
MIN_FIX_RATE = 0.8
#: full artifacts must cover at least this many generated programs
MIN_PROGRAMS = 200

#: the committed full-campaign shape
FULL = dict(n_programs=200, base_seed=1, workers=4, drill_every=10,
            minimize_tests=400)
#: the CI smoke shape — small, deterministic, still end-to-end
SMOKE = dict(n_programs=10, base_seed=1, workers=0, drill_every=5,
             minimize_tests=60)
#: where full campaigns archive their divergences (relative to the
#: repo root, as the committed artifact records it)
FULL_CORPUS = "fuzz_corpus"


def _archived_rows(corpus_dir, names):
    """Line counts and kinds for the campaign's archived cases."""
    rows = []
    by_name = {case.name: case for case in load_corpus(corpus_dir)}
    for name in names:
        case = by_name.get(name)
        if case is None:
            rows.append({"case": name, "missing": True})
            continue
        meta = case.meta
        minimized = meta.get("minimize") or {}
        rows.append({
            "case": name,
            "kinds": meta.get("kinds"),
            "drill": meta.get("drill"),
            "lines": minimized.get("minimized_lines"),
            "original_lines": minimized.get("original_lines"),
            "tests": minimized.get("tests"),
            "archived_seed": meta.get("archived_seed"),
        })
    return rows


def generate(smoke=False):
    """Run the campaign and return the artifact dict.  Full runs archive
    their divergences into ``FULL_CORPUS``; smoke runs into a temp dir
    that is removed once the archived cases have been read."""
    if not smoke:
        return _generate(FULL_CORPUS, smoke)
    with tempfile.TemporaryDirectory(prefix="kivati-fuzzbench-") as tmp:
        return _generate(tmp, smoke)


def _generate(corpus_dir, smoke):
    shape = SMOKE if smoke else FULL
    spec = CampaignSpec(corpus_dir=corpus_dir, **shape)
    result = run_campaign(spec, log=progress)
    payload = result.as_payload()
    fixes = payload.pop("fixes")
    verified = sum(1 for f in fixes if f["verified"])
    strategies = {}
    for f in fixes:
        if f["verified"]:
            strategies[f["strategy"]] = strategies.get(f["strategy"], 0) + 1
    return {
        "schema": SCHEMA,
        "smoke": bool(smoke),
        "spec": {"corpus_dir": corpus_dir, **shape},
        "campaign": payload,
        "cases": _archived_rows(corpus_dir, result.archived),
        "fixes": {
            "attempted": len(fixes),
            "verified": verified,
            "rate": payload["fix_rate"],
            "strategies": strategies,
            "outcomes": fixes,
        },
        "max_repro_lines": MAX_REPRO_LINES,
        "min_fix_rate": 0.0 if smoke else MIN_FIX_RATE,
    }


def validate(payload):
    """Schema/invariant problems with a fuzzbench artifact (empty list
    = valid); the bars are this module's constants, not the artifact's
    echoes of them."""
    problems = check_schema(payload, SCHEMA)
    if not isinstance(payload, dict):
        return problems
    campaign = payload.get("campaign")
    if not isinstance(campaign, dict):
        return problems + ["campaign missing"]
    smoke = bool(payload.get("smoke"))
    if not smoke and campaign.get("programs", 0) < MIN_PROGRAMS:
        problems.append("full artifact covers %s programs, need >=%d"
                        % (campaign.get("programs"), MIN_PROGRAMS))
    if campaign.get("lost", 1) != 0:
        problems.append("campaign lost %s job(s)" % campaign.get("lost"))
    if campaign.get("unarchived"):
        problems.append("unarchived divergences: %s"
                        % campaign["unarchived"])
    fleet = campaign.get("fleet") or {}
    if fleet.get("verification_failures"):
        problems.append("%d fleet verification failure(s)"
                        % fleet["verification_failures"])
    for row in payload.get("cases") or []:
        if row.get("missing"):
            problems.append("archived case %s missing from corpus"
                            % row["case"])
        elif (row.get("lines") is not None
              and row["lines"] > MAX_REPRO_LINES):
            problems.append("case %s minimized to %d lines, limit %d"
                            % (row["case"], row["lines"], MAX_REPRO_LINES))
    fixes = payload.get("fixes") or {}
    # smoke campaigns gate on "at least one verified fix" instead
    want_rate = 0.0 if smoke else MIN_FIX_RATE
    rate = fixes.get("rate")
    if fixes.get("attempted"):
        if rate is None or rate < want_rate:
            problems.append("fix rate %s below %s (%d/%d verified)"
                            % (rate, want_rate, fixes.get("verified", 0),
                               fixes.get("attempted", 0)))
    elif not smoke:
        problems.append("full artifact attempted no fixes "
                        "(no confirmed violations?)")
    if smoke and not fixes.get("verified"):
        problems.append("smoke campaign verified no fix "
                        "(need at least one replay-verified fix)")
    return problems


def render(payload):
    campaign = payload["campaign"]
    fixes = payload["fixes"]
    table = Table(
        "Fuzz campaign: %d generated programs (%d drilled), "
        "%d divergence(s) archived, fixes %d/%d verified"
        % (campaign["programs"], campaign["drill_programs"],
           len(campaign["archived"]), fixes["verified"],
           fixes["attempted"]),
        ["case", "kinds", "drill", "lines", "tests"],
        note="every divergence is ddmin-minimized (<=%d lines) and "
             "archived with seed+schedule+journal; fix rate %s "
             "(gate >=%s); %d job(s) lost, %d unarchived"
             % (payload["max_repro_lines"],
                "%.2f" % fixes["rate"] if fixes["rate"] is not None
                else "n/a",
                payload["min_fix_rate"], campaign["lost"],
                len(campaign["unarchived"])),
    )
    for row in payload["cases"]:
        table.add_row(row["case"], ",".join(row.get("kinds") or ()),
                      "yes" if row.get("drill") else "no",
                      row.get("lines"), row.get("tests"))
    return table.render()


__all__ = ["FULL", "FULL_CORPUS", "MAX_REPRO_LINES", "MIN_FIX_RATE",
           "MIN_PROGRAMS", "SCHEMA", "SMOKE", "generate", "render",
           "validate"]
