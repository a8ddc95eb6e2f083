"""Structural pins for the prepare path: each piece of work runs once,
and only when something reads it.

Counts, not timings: how often ``ProtectedProgram`` parses, checks and
compiles; that the vanilla binary, the footprints and the conflict
graph stay unbuilt until they are read (a bug-finding run reads none of
them) and then equal what an eager build gives; that ``annotate``
leaves its input AST untouched; and that normalization is idempotent.
"""

import sys
from random import Random

import pytest

import repro.analysis.conflict as conflict_module
import repro.analysis.footprint as footprint_module
from repro.analysis.annotate import annotate
from repro.analysis.normalize import normalize_program
from repro.compiler.codegen import compile_program
from repro.core.config import KivatiConfig, Mode
from repro.core.session import ProtectedProgram
from repro.journal.recorder import JournalRecorder
from repro.minic import ast
from repro.fuzz.generator import FuzzParams, generate_source
from repro.minic.parser import parse
from repro.minic.pretty import pretty
from repro.minic.typecheck import check
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
def test_protected_program_parses_checks_and_compiles_once(
        monkeypatch, index):
    parses = _count_calls(monkeypatch, parse)
    checks = _count_calls(monkeypatch, check)
    compiles = _count_calls(monkeypatch, compile_program)
    pp = ProtectedProgram(SOURCES[index])
    assert (len(parses), len(checks), len(compiles)) == (1, 1, 1)
    vanilla = pp.vanilla_program
    assert pp.vanilla_program is vanilla
    assert len(compiles) == 2 and len(checks) == 1
    assert vanilla.source == SOURCES[index]
    eager = compile_program(normalize_program(parse(SOURCES[index])))
    assert _stream(vanilla) == _stream(eager)


def _refuse(*args, **kwargs):
    raise AssertionError("built although no run reads it")


@pytest.mark.parametrize("seed", [3, 8])
def test_bug_finding_run_builds_no_vanilla_binary_and_no_footprint(
        monkeypatch, seed):
    source = generate_source(FuzzParams.sampled(Random(seed)), seed)
    for name in ("address_escapes", "compute_function_footprints",
                 "compute_ar_footprints"):
        monkeypatch.setattr(footprint_module, name, _refuse)
    monkeypatch.setattr(conflict_module, "build_conflict_graph", _refuse)
    pp = ProtectedProgram(source)
    compiles = _count_calls(monkeypatch, compile_program)
    config = KivatiConfig(mode=Mode.BUG_FINDING, num_cores=3,
                          journal=JournalRecorder())
    report = pp.run(config, seed=seed)
    assert report.result.instr_count > 0
    assert compiles == []
    assert "vanilla_program" not in vars(pp)


def _structure(node):
    """Every node's type, fields, position and uid, in walk order."""
    rows = []
    for n in ast.walk(node):
        fields = []
        for slot in type(n).__slots__:
            value = getattr(n, slot)
            if isinstance(value, ast.Node):
                value = ("node", id(value))
            elif isinstance(value, list):
                value = tuple(("node", id(v)) if isinstance(v, ast.Node)
                              else v for v in value)
            fields.append(value)
        rows.append((type(n).__name__, id(n), n.uid, n.line, n.col,
                     tuple(fields)))
    return rows


@pytest.mark.parametrize("index", [0, 11, 16, len(SOURCES) - 1])
def test_annotate_leaves_its_input_untouched(index):
    program = normalize_program(parse(SOURCES[index]))
    before = _structure(program)
    text = pretty(program)
    result = annotate(program, pinfo=check(program))
    assert _structure(program) == before
    assert pretty(program) == text
    assert result.pristine_ast is program
    assert result.ast is not program
    # rewritten compound statements keep their originals' uids, and
    # every other statement is shared between the two trees
    old = {n.uid: n for n in ast.statements(program.funcs[0].body)}
    for node in ast.statements(result.ast.funcs[0].body):
        if node.uid in old and not isinstance(
                node, (ast.Block, ast.If, ast.While)):
            assert node is old[node.uid]


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


def test_footprints_are_built_once_on_first_read(monkeypatch):
    builds = []
    real = footprint_module.compute_function_footprints

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(footprint_module, "compute_function_footprints",
                        counted)
    result = annotate(get_bug("21287").source)
    assert builds == []
    assert "footprints" not in vars(result)
    footprints = result.footprints
    assert result.footprints is footprints
    assert result.func_footprints and footprints
    assert len(builds) == 1


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_normalize_is_idempotent(index):
    once = normalize_program(parse(SOURCES[index]))
    text = pretty(once)
    expected = _stream(compile_program(once))
    twice = normalize_program(once)
    assert pretty(twice) == text      # no temporary hoisted again
    assert _stream(compile_program(twice)) == expected
