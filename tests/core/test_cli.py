"""CLI tests."""

import pytest

from repro.cli import main

SRC = """
int x = 0;
void main() {
    int t = x;
    x = t + 1;
    output(x);
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SRC)
    return str(path)


def test_annotate_command(program_file, capsys):
    assert main(["annotate", program_file]) == 0
    out = capsys.readouterr().out
    assert "begin_atomic(" in out
    assert "atomic regions" in out


def test_run_command(program_file, capsys):
    assert main(["run", program_file]) == 0
    out = capsys.readouterr().out
    assert "output: [1]" in out


def test_vanilla_command(program_file, capsys):
    assert main(["vanilla", program_file]) == 0
    out = capsys.readouterr().out
    assert "output: [1]" in out


@pytest.mark.parametrize("flag", ["--trace", "--bug-finding", "--opt=base",
                                  "--watchpoints=2"])
def test_vanilla_rejects_flags_it_would_ignore(program_file, flag):
    # an uninstrumented run reads only --seed and --cores
    with pytest.raises(SystemExit) as exc:
        main(["vanilla", program_file, flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["check"], ["check", "--bench"], ["conflict", "bench"],
    ["fleet", "bench"], ["fuzz", "bench"], ["service", "bench"],
    ["obs", "bench"], ["bench", "run", "martian"],
    ["bench", "run", "fleet", "--scale", "0.1"]])
def test_bench_planes_run_only_through_bench_run(argv):
    # one verb, two flags: `kivati bench run PLANE [--smoke] [--out PATH]`
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_run_with_options(program_file, capsys):
    assert main(["run", program_file, "--opt", "base", "--seed", "3",
                 "--watchpoints", "2"]) == 0
    assert "output: [1]" in capsys.readouterr().out


def test_apps_command(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("NSS", "VLC", "Webstone", "TPC-W", "SPEC OMP"):
        assert name in out


def test_table_command_static(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert "x86" in out


def test_table_command_rejects_unknown(capsys):
    assert main(["table", "42"]) == 2


def test_bugs_single_id(capsys):
    assert main(["bugs", "19938", "--bug-finding", "--attempts", "15"]) == 0
    out = capsys.readouterr().out
    assert "19938" in out
