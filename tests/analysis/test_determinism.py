"""Annotation determinism: two runs over the same source must assign
identical AR ids, tables and prune verdicts.

The pair finder iterates reaching-access sets; without sorted iteration
the AR numbering (and therefore whitelists, golden lint output and
recorded verdicts) could differ between runs.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.annotate import annotate
from repro.workloads.bugs import BUGS
from repro.workloads.catalog import workload_suite

#: repo root (the subprocesses' relative ``src`` path resolves here)
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

_SOURCES = {
    "bug-19938": BUGS["19938"].source,
    "bug-44402": BUGS["44402"].source,
}
_SOURCES.update(
    ("app-%s" % w.name, w.source) for w in workload_suite(scale=0.1))


def _signature(res):
    out = {}
    for ar_id, info in sorted(res.ar_table.items()):
        out[ar_id] = (
            info.func, info.var, info.first_kind, info.line,
            sorted(info.second_lines.values()),
            info.is_sync, res.prune.verdict(ar_id).verdict,
        )
    return out


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_reannotation_is_identical(name):
    first = annotate(_SOURCES[name])
    second = annotate(_SOURCES[name])
    assert _signature(first) == _signature(second)
    assert first.static_safe_ar_ids == second.static_safe_ar_ids
    assert first.sync_ar_ids == second.sync_ar_ids


def test_stable_across_hash_seeds(tmp_path):
    """String-keyed sets iterate in PYTHONHASHSEED-dependent order; the
    analysis pipeline must not leak that order into its output."""
    src = tmp_path / "prog.c"
    src.write_text(_SOURCES["bug-19938"])
    dumps = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "annotate", str(src),
             "--dump-analysis", "--json"],
            capture_output=True, text=True, env=env, cwd=_REPO_ROOT,
            check=True,
        )
        dumps.append(proc.stdout)
    assert dumps[0] == dumps[1]
    json.loads(dumps[0])  # and it is well-formed JSON


@pytest.mark.parametrize("name", ["bug-19938", "app-VLC"])
def test_footprint_dump_stable_across_hash_seeds(tmp_path, name):
    """Footprints and the conflict graph are built from frozensets of
    variable names; the dump must not leak hash-seed iteration order."""
    src = tmp_path / "prog.c"
    src.write_text(_SOURCES[name])
    dumps = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "annotate", str(src),
             "--dump-footprints", "--json"],
            capture_output=True, text=True, env=env, cwd=_REPO_ROOT,
            check=True,
        )
        dumps.append(proc.stdout)
    assert dumps[0] == dumps[1]
    payload = json.loads(dumps[0])
    assert set(payload) == {"functions", "ars", "conflicts"}
