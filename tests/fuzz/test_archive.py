"""Corpus atomicity: temp+rename publication and torn-state salvage."""

import json
import os

import pytest

from repro.core.config import KivatiConfig
from repro.core.session import ProtectedProgram
from repro.fuzz.archive import (CASE_FILES, TMP_PREFIX, archive_case,
                                case_name, load_corpus, salvage_corpus)
from repro.journal.stream import read_journal
from repro.journal.replay import record_run

SOURCE = """
int g0 = 0;
void worker0() { g0 = g0 + 1; }
void main() { spawn worker0(); join(); }
"""


@pytest.fixture
def recorded():
    program = ProtectedProgram(SOURCE)
    _, recorder = record_run(program, KivatiConfig(num_cores=2, seed=1))
    return recorder


def test_archive_publishes_complete_case(tmp_path, recorded):
    corpus = str(tmp_path / "corpus")
    name = case_name("reverify", "fz0001", 77)
    meta = {"kinds": ["reverify"], "run_seed": 77}
    path = archive_case(corpus, name, meta, SOURCE, SOURCE,
                        recorded.events)
    for filename in CASE_FILES:
        assert os.path.isfile(os.path.join(path, filename))
    # no staging residue after a clean publish
    assert not [e for e in os.listdir(corpus) if e.startswith(TMP_PREFIX)]
    cases = load_corpus(corpus)
    assert [c.name for c in cases] == [name]
    assert cases[0].meta == meta
    # the archived journal is a real journal, CRC frames and all
    read = read_journal(os.path.join(path, "run.journal"))
    assert not read.torn
    assert len(read.events) == len(recorded.events)


def test_archive_overwrites_existing_case(tmp_path, recorded):
    corpus = str(tmp_path / "corpus")
    name = case_name("reverify", "fz0001", 77)
    archive_case(corpus, name, {"v": 1}, SOURCE, SOURCE, recorded.events)
    archive_case(corpus, name, {"v": 2}, SOURCE, SOURCE, recorded.events)
    (case,) = load_corpus(corpus)
    assert case.meta == {"v": 2}


def test_torn_archive_is_salvaged_not_loaded(tmp_path, recorded):
    corpus = str(tmp_path / "corpus")
    archive_case(corpus, "good-case", {"ok": True}, SOURCE, SOURCE,
                 recorded.events)
    # simulate a crash mid-archive: staging directory left behind with
    # a half-written case inside
    torn = os.path.join(corpus, TMP_PREFIX + "dead-case.12345")
    os.makedirs(torn)
    with open(os.path.join(torn, "meta.json"), "w") as f:
        f.write('{"half": ')  # truncated JSON — never parsed
    # loaders skip torn state entirely
    assert [c.name for c in load_corpus(corpus)] == ["good-case"]
    # salvage removes it and reports what it removed
    removed = salvage_corpus(corpus)
    assert removed == [TMP_PREFIX + "dead-case.12345"]
    assert not os.path.isdir(torn)
    assert salvage_corpus(corpus) == []


def test_incomplete_case_directory_is_skipped(tmp_path, recorded):
    corpus = str(tmp_path / "corpus")
    archive_case(corpus, "good-case", {"ok": True}, SOURCE, SOURCE,
                 recorded.events)
    # a directory without meta.json is not a case
    os.makedirs(os.path.join(corpus, "stray-dir"))
    assert [c.name for c in load_corpus(corpus)] == ["good-case"]


def test_salvage_missing_corpus_is_empty(tmp_path):
    assert salvage_corpus(str(tmp_path / "never-created")) == []


def test_meta_json_is_stable_and_sorted(tmp_path, recorded):
    corpus = str(tmp_path / "corpus")
    path = archive_case(corpus, "case", {"b": 1, "a": 2}, SOURCE, SOURCE,
                        recorded.events)
    with open(os.path.join(path, "meta.json")) as f:
        text = f.read()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}
