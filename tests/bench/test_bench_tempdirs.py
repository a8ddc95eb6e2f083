"""Bench planes remove the temp directories they create.

Each test points :data:`tempfile.tempdir` at a fresh directory, runs the
code that makes a temp dir, and asserts nothing with the plane's prefix
is left behind.  (The fleet and daemon journal roots are kept on
purpose: job results point into them.)
"""

import os
import tempfile

import pytest

from repro.bench import checkerbench, servicebench


@pytest.fixture
def fresh_tempdir(tmp_path, monkeypatch):
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def _left(root, prefix):
    return sorted(name for name in os.listdir(str(root))
                  if name.startswith(prefix))


def test_checkerbench_removes_its_workdirs(fresh_tempdir):
    rows, _slope = checkerbench.scaling_series((400,))
    assert rows[0]["sound"]
    speedup = checkerbench.speedup_section(iters=3, runs=1)
    assert speedup["journal_bytes"] > 0
    sweep = checkerbench.corruption_sweep(iters=2)
    assert sweep["truncations"] > 0 and not sweep["crashes"]
    assert _left(fresh_tempdir, "kivati-checkerbench-") == []


def test_servicebench_removes_its_socket_dir(fresh_tempdir, monkeypatch):
    seen = {}

    def short_run(daemon, socket_path, *args):
        seen["socket"] = socket_path
        return {}

    # the daemon starts, serves nothing and drains: only the socket dir
    # lifecycle is under test here
    monkeypatch.setattr(servicebench, "_generate_against", short_run)
    payload = servicebench.generate(workers=1, rates=(5.0, 10.0, 20.0),
                                    scale=0.03, start_method="fork")
    assert seen["socket"].startswith(str(fresh_tempdir))
    assert payload["drain"] == {"ok": True, "socket_removed": True}
    assert _left(fresh_tempdir, "kivati-svcbench-") == []
