"""CLI surface of the journal plane: run --journal/--strict/--trace,
kivati journal, kivati check, kivati replay — and their exit codes."""

import pytest

from journal_common import RACY_SRC
from repro.cli import main

CLEAN_SRC = """
int x = 0;
void main() {
    int t = x;
    x = t + 1;
    output(x);
}
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY_SRC)
    return str(path)


@pytest.fixture
def recorded_journal(tmp_path, racy_file):
    path = str(tmp_path / "run.journal")
    assert main(["run", racy_file, "--opt", "base", "--journal", path]) == 0
    return path


def test_run_strict_exits_3_on_violations(racy_file, capsys):
    assert main(["run", racy_file, "--opt", "base", "--strict"]) == 3
    assert "violation:" in capsys.readouterr().out


def test_run_strict_clean_program_exits_0(tmp_path, capsys):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN_SRC)
    assert main(["run", str(path), "--strict"]) == 0


def test_run_journal_reports_frame_count(racy_file, tmp_path, capsys):
    journal = str(tmp_path / "j")
    assert main(["run", racy_file, "--opt", "base", "--journal",
                 journal]) == 0
    assert "journal:" in capsys.readouterr().out


def test_journal_command_inspects_a_recording(recorded_journal, capsys):
    assert main(["journal", recorded_journal, "--events", "5"]) == 0
    out = capsys.readouterr().out
    assert "run-start" in out
    assert "reconstructed state" in out
    assert "... " in out  # event listing was truncated at 5


def test_check_command_strict_passes_on_a_recording(recorded_journal,
                                                   capsys):
    assert main(["check", "--strict", recorded_journal]) == 0
    assert "checker: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("journal", [False, True],
                         ids=["in-memory", "reuses-journal"])
def test_run_trace_prints_the_forensic_view(racy_file, tmp_path, capsys,
                                            journal):
    argv = ["run", racy_file, "--opt", "base", "--trace"]
    if journal:
        argv += ["--journal", str(tmp_path / "j")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "--- forensic trace around the first violation ---" in out
    assert " violation  addr=" in out
    assert ("journal:" in out) == journal


def test_journal_command_flags_torn_tail(recorded_journal, capsys):
    with open(recorded_journal, "ab") as f:
        f.write(b"\x13")
    assert main(["journal", recorded_journal]) == 0  # torn but consistent
    assert "TORN TAIL" in capsys.readouterr().out


def test_check_command_names_a_torn_tail_without_a_gap(recorded_journal,
                                                      tmp_path, capsys):
    """A copy cut three bytes short loses no sequence number, only its
    last frame: ``check`` says why it is partial, and ``--json`` carries
    the same corruption record as before."""
    import json

    with open(recorded_journal, "rb") as f:
        data = f.read()
    cut = str(tmp_path / "cut.journal")
    with open(cut, "wb") as f:
        f.write(data[:-3])
    assert main(["check", "--strict", cut]) == 3
    out = capsys.readouterr().out
    assert "checker: PARTIAL" in out
    assert ("0 event(s) missing in 0 gap(s); 1 corruption record(s) "
            "(1 torn tail)") in out
    assert main(["check", "--json", cut]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["missing_events"] == 0 and payload["gaps"] == []
    assert [c["reason"] for c in payload["corruptions"]] == ["torn-tail"]


def test_journal_command_missing_file_exits_2(tmp_path, capsys):
    assert main(["journal", str(tmp_path / "absent")]) == 2


def test_replay_command_is_deterministic(racy_file, recorded_journal,
                                         capsys):
    assert main(["replay", racy_file, recorded_journal]) == 0
    out = capsys.readouterr().out
    assert "DETERMINISTIC" in out
    assert "verdicts match" in out


def test_replay_command_refuses_wrong_program(tmp_path, recorded_journal,
                                              capsys):
    path = tmp_path / "other.c"
    path.write_text(CLEAN_SRC)
    assert main(["replay", str(path), recorded_journal]) == 2
    assert "different program" in capsys.readouterr().err


def test_bugs_strict_exits_3_when_detected(capsys):
    assert main(["bugs", "19938", "--bug-finding", "--attempts", "15",
                 "--strict"]) == 3
    assert "detected" in capsys.readouterr().out
