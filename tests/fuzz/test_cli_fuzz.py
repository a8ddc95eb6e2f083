"""`kivati fuzz ...` surface: exit codes, artifacts, --strict."""

import json
import os

import pytest

from repro.cli import main


def test_fuzz_gen_is_deterministic(capsys):
    assert main(["fuzz", "gen", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", "gen", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert "void main()" in first


def test_fuzz_gen_writes_file(tmp_path, capsys):
    out = str(tmp_path / "prog.c")
    assert main(["fuzz", "gen", "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    with open(out) as f:
        assert "void main()" in f.read()


def test_fuzz_run_small_campaign_exits_zero(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    code = main(["fuzz", "run", "--programs", "4", "--base-seed", "1",
                 "--drill-every", "0", "--no-fix", "--corpus", corpus])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz campaign: 4 programs" in out


def test_fuzz_run_strict_exits_three_on_archived_divergence(tmp_path,
                                                            capsys):
    # drills only diverge when the dropped trigger actually fired; at
    # base seed 2 the first program is known to trip its watchpoint
    corpus = str(tmp_path / "corpus")
    code = main(["fuzz", "run", "--programs", "2", "--base-seed", "2",
                 "--drill-every", "1", "--minimize-tests", "60",
                 "--no-fix", "--strict", "--corpus", corpus])
    capsys.readouterr()
    assert code == 3
    assert [d for d in os.listdir(corpus) if not d.startswith(".")]


def test_fuzz_fix_reports_verified_fix(tmp_path, capsys):
    racy = tmp_path / "racy.c"
    racy.write_text("""
int g0 = 0;
void worker() { int t = 0; t = g0; t = t + 1; g0 = t; }
void main() { spawn worker(); spawn worker(); join(); output(g0); }
""")
    code = main(["fuzz", "fix", str(racy), "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "fix verified" in captured.err
    # stdout carries the patched source (pipeable into a file)
    assert "lock(&fixlk);" in captured.out


def test_fuzz_bench_smoke_writes_valid_artifact(tmp_path, capsys):
    out = str(tmp_path / "BENCH_fuzz.json")
    code = main(["bench", "run", "fuzz", "--smoke", "--out", out])
    capsys.readouterr()
    assert code == 0
    with open(out) as f:
        payload = json.load(f)
    assert payload["schema"] == "kivati-fuzzbench/v1"
    assert payload["campaign"]["lost"] == 0
    assert payload["campaign"]["unarchived"] == []

    from repro.bench.fuzzbench import validate
    assert validate(payload) == []
