"""Structural pins for the prepare path: each piece of work runs once.

Counts, not timings: how often ``ProtectedProgram`` parses and
compiles, that ``annotate`` leaves the conflict graph unbuilt until it
is read, and that normalization is idempotent (the annotator normalizes
the AST the vanilla binary was already compiled from).
"""

import sys
from random import Random

import pytest

import repro.analysis.conflict as conflict_module
from repro.analysis.annotate import annotate
from repro.analysis.normalize import normalize_program
from repro.compiler.codegen import compile_program
from repro.core.session import ProtectedProgram
from repro.fuzz.generator import FuzzParams, generate_source
from repro.minic.parser import parse
from repro.minic.pretty import pretty
from repro.workloads.bugs import BUG_IDS, get_bug
from repro.workloads.catalog import workload_suite

SOURCES = [get_bug(bug_id).source for bug_id in BUG_IDS]
SOURCES += [app.source for app in workload_suite(0.1)]
SOURCES += [generate_source(FuzzParams.sampled(Random(i)), i)
            for i in range(5)]


def _count_calls(monkeypatch, fn):
    """Replace ``fn`` in every loaded ``repro`` module that imported it
    by name; returns a list that grows by one per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)
    return calls


def _stream(program):
    return [(i.op, i.a, i.b, i.c, i.d, i.src_line) for i in program.instrs]


@pytest.mark.parametrize("index", [0, 11, 16])
def test_protected_program_parses_once_and_compiles_twice(
        monkeypatch, index):
    parses = _count_calls(monkeypatch, parse)
    compiles = _count_calls(monkeypatch, compile_program)
    ProtectedProgram(SOURCES[index])
    assert len(parses) == 1
    assert len(compiles) == 2


def test_conflict_graph_is_built_on_first_read(monkeypatch):
    builds = []
    real = conflict_module.build_conflict_graph

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(conflict_module, "build_conflict_graph", counted)
    result = annotate(get_bug("21287").source)
    ProtectedProgram(get_bug("44402").source)
    assert builds == []
    graph = result.conflicts
    assert result.conflicts is graph
    assert len(builds) == 1
    expected = real(result.ar_table, result.footprints,
                    sync_names=result.guards.sync_names)
    assert graph.as_dict() == expected.as_dict()


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_normalize_is_idempotent(index):
    once = normalize_program(parse(SOURCES[index]))
    text = pretty(once)
    expected = _stream(compile_program(once))
    twice = normalize_program(once)
    assert pretty(twice) == text      # no temporary hoisted again
    assert _stream(compile_program(twice)) == expected
