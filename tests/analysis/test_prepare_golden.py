"""Golden pins for the prepare path (parse → annotate → codegen).

Host-speed work on preparing a program must never change what it
prepares.  These pins hold, for the built-in bug corpus, the application
models and fifty seeded generated programs, SHA-256 digests of
everything ``ProtectedProgram`` hands to the run:

- the annotated and the vanilla instruction streams, one
  ``(op, a, b, c, d, src_line)`` row per instruction;
- the AR table, the sync and statically safe AR ids, and the per-AR and
  per-function footprints;
- the conflict graph's edges and wild AR ids.

AST uids (``src_uid``, ``begin_uid`` and the keys of ``second_kinds``)
come from a process-wide counter, so they are left out: an AR's sites
are pinned by their source lines and by where the annotated stream
places its ``begin_atomic``/``end_atomic``.

Regenerate (only for a change meant to alter what is prepared) with::

    PYTHONPATH=src python tests/analysis/test_prepare_golden.py
"""

import hashlib
import json
from random import Random

import pytest

from repro.core.session import ProtectedProgram
from repro.fuzz.generator import FuzzParams, generate_source
from repro.workloads.bugs import BUG_IDS, get_bug
from repro.workloads.catalog import workload_suite

GENERATED = 50


def _sources():
    sources = {"bug-%s" % bug_id: get_bug(bug_id).source
               for bug_id in BUG_IDS}
    for app in workload_suite():
        sources["app-%s" % app.name] = app.source
    for index in range(GENERATED):
        rng = Random(index)
        params = FuzzParams.sampled(rng)
        sources["gen-%02d" % index] = generate_source(
            params, rng.randrange(1 << 30))
    return sources


def _sha(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _stream(program):
    return [[instr.op.name, instr.a, instr.b, instr.c, instr.d,
             instr.src_line] for instr in program.instrs]


def _footprint(fp):
    return [sorted(fp.reads), sorted(fp.writes), fp.wild]


def _ar(info):
    seconds = sorted([info.second_lines[uid], str(kind)]
                     for uid, kind in info.second_kinds.items())
    return [info.ar_id, info.func, info.var, str(info.first_kind),
            info.watch_read, info.watch_write, info.size, info.line,
            seconds, info.is_sync]


def prepare_pins(source, **options):
    """``(annotated stream, vanilla stream, tables, conflicts)`` digests."""
    pp = ProtectedProgram(source, **options)
    annotation = pp.annotation
    tables = {
        "ar_table": [_ar(annotation.ar_table[i])
                     for i in sorted(annotation.ar_table)],
        "sync_ar_ids": sorted(pp.sync_ar_ids),
        "static_safe_ar_ids": sorted(pp.static_safe_ar_ids),
        "footprints": {str(i): _footprint(fp)
                       for i, fp in annotation.footprints.items()},
        "func_footprints": {name: _footprint(fp) for name, fp in
                            annotation.func_footprints.items()},
    }
    graph = annotation.conflicts
    conflicts = {
        "edges": [[e.a, e.b, e.kind, list(e.variables), e.sync_only]
                  for e in graph.edges],
        "wild": sorted(graph.wild_ar_ids),
    }
    return (_sha(_stream(pp.program)), _sha(_stream(pp.vanilla_program)),
            _sha(tables), _sha(conflicts))


#: the Section 3.5 extensions (interprocedural ARs, points-to aliasing)
#: take other paths through pairing; pinned on the corpus and the apps
EXTENDED = {"interprocedural": True, "pointer_analysis": True}

#: name -> (annotated stream, vanilla stream, tables, conflicts)
GOLDEN = {
    'app-NSS': ('8666cd5d21d9e25a', '95b3d6f8bac91a1a', '7f4209e6579f48a9', '574e8a9be97d0af3'),
    'app-SPEC OMP': ('c6a2463df1e8db1d', 'bbfe979837ebe1e9', '31c4a2899449bd8f', 'c4d394f46916be1d'),
    'app-TPC-W': ('5f2746eec9ed0a4a', 'c9d3d0b51072a546', '1be5e234c3c74f0b', '072f361557a562e9'),
    'app-VLC': ('c4d0af6c18bf194a', '3933234e83683dc1', 'ccf8916f2dce1ee2', '2eabadf82c727725'),
    'app-Webstone': ('5af80b161852d357', '09aafe0a6eefce33', '66ea603282a42c15', 'ed1dd0ca56fbf206'),
    'bug-169296': ('a573067eedffb60c', 'a4f2024a2432d190', 'f5b95ed93ec7f7ed', 'eecb85dec1a15c3b'),
    'bug-19938': ('081d18aea09c987b', '3f2e8832487ea7d8', 'd356ecfe0888041a', '1b7cd250b109856d'),
    'bug-201134': ('a82dde839a36df87', '2bd60aeb1622fbec', '4ef386424b4ab5c3', 'ed6282e0f2a0abd3'),
    'bug-21287': ('1c9338b953162c18', '7f9cdc6e75199adb', '02c8947000d750da', 'ea69d87e1db02ca4'),
    'bug-225525': ('0f0125e220e6060d', '886470d4a391b28e', 'd548c736f7f0cdab', '119035d17b30a33a'),
    'bug-25306': ('2413fb64e0cb8d5a', '671c108768288ab8', 'ca420375f981fcba', 'fe3374a84ec56e4d'),
    'bug-25520': ('4292157b97aaba94', '60dd313a662b7a8b', 'ea91d7148dd78cd5', 'b60ef510a2a3497b'),
    'bug-270689': ('90f3f53b84cebde0', '0cdc3f78024d7740', '888d14c6087a83e1', 'ed6282e0f2a0abd3'),
    'bug-329072': ('958aa98863599436', 'a80c1f573f19a2cc', 'ae78527940b197ed', '2f23cd41db5e090d'),
    'bug-341323': ('4a7ee3538e765096', '76256d794294ec1a', '112d0082f58a5967', 'ed6282e0f2a0abd3'),
    'bug-44402': ('e63ffd69d805c18b', '5256743457ee21ed', '8f4a2f9db5bfa131', '49b4fb917242fe0d'),
    'gen-00': ('ffb539eb0f72c86c', '06d59b620e4d222a', '4799408212282abf', '6154fc4233fd24df'),
    'gen-01': ('b0d6cb8171add5cf', '6775e6f9226996fe', '2de301cd6737a495', 'eabe7de540a0cbfc'),
    'gen-02': ('17c17ed9b62ffa5c', 'c321e5f137a411b3', 'bd33a80fa834500d', '0fb14ce85d80a37e'),
    'gen-03': ('d2628a5758959a16', 'a37d86fe74c26a85', '52a3d0d90c46deec', '71ed3fd31103e64c'),
    'gen-04': ('6e292360a92418b4', '681397fbfd7aa064', 'db6af13484c32680', '46454b436c7a2318'),
    'gen-05': ('b4197f50316141fc', '33210d0996375bf2', '38976d39ccd48db6', 'da6ea3b984bed6a6'),
    'gen-06': ('1f9bd81afbcc8d67', '33da80e481f00c60', 'a70a27c64f751540', '327c9c59ca56bed3'),
    'gen-07': ('a5ca90d6f3c2ac43', 'acb0c387c0735923', '4272d9ec12c46cc4', '49f4d0d37e1f4c0e'),
    'gen-08': ('523c20e02bdc5def', '0dea2ff097a37723', 'ac1c91244102f96c', '1056765b04fd089b'),
    'gen-09': ('6cd0e5bd78fb6f51', '175012868a95e97a', '2b8b2ccd5d6665bf', 'bda4e790a0c07fe4'),
    'gen-10': ('28ebacbd892608d0', '6907cc2a22d2b631', 'affafaadb8afc633', 'b3219d367249045b'),
    'gen-11': ('a503c653e35032d6', 'c2e4ad375cd32c5b', 'b3bd4f6eaa571472', 'dd8fe710fcf53edf'),
    'gen-12': ('24c584c4fb880fec', '5f67e21b0ee2b0bd', '82842bbf28a721af', '153841bb264cf5f5'),
    'gen-13': ('d1a0fc51ca3354a1', '270d2eddbf53bf24', '7be72b0640a59673', '41969d0ac4786d89'),
    'gen-14': ('5e2b9cb1c27b030c', 'fcff0b3ee45f1d82', '4f3d3279c3de933c', '42373556d6557e94'),
    'gen-15': ('4f6a0be5b594163b', 'f5d3a64a9f79d9dc', '2a89b3300cc9997c', '55c8e640fa18ce89'),
    'gen-16': ('3b9690ae86b48550', '8e60dfbb34494f5c', '1d10c5967b25312f', 'd0c9a262b3e20310'),
    'gen-17': ('c6feb8ba6b4b4567', '4c72a45574c241f7', '8a8a6f316ac26923', 'ca99c5eed7da5754'),
    'gen-18': ('3d5bd4b81e5e05eb', 'b6bc80c8dc9f3eee', '734aefca63ab4ef9', 'a88d9e9d26dfa468'),
    'gen-19': ('8539b3dd95696c09', '24215cacd48c1850', '58d05c4a8b2154f9', 'afa7bc86df0fcb34'),
    'gen-20': ('a2ca469459f9b6e5', 'cb51fb66133936ab', '71e080d9920ab049', 'd45c9458411862ca'),
    'gen-21': ('ef3e567cca613090', 'c88791392fcfb811', '09d0bcacac8a2ba1', 'de618d04a571e684'),
    'gen-22': ('61b7089d3ca4f628', 'a7c8c3952fed6fe6', 'acce200a053ac144', '3a43a5e54cda4626'),
    'gen-23': ('84cf73e996a9d82c', 'e1d5b836a1c58011', '40a35a69dc3e0abb', '46a66a18606ad0eb'),
    'gen-24': ('927a56fe96205e7e', 'a202c5bdfd98829a', 'fa3882a9ae761ef4', 'fb2c6ea77fc3528d'),
    'gen-25': ('6ba2832f1106cb04', '9b6dc61d86bacf0c', '02d7b815acc325cb', '0da331656524c3e8'),
    'gen-26': ('d54246b60bb287c2', '55a1f921e91a1c31', 'edcd8f0ef861b9ec', '310202211ffc98d0'),
    'gen-27': ('7c2ecb1dd02f5455', 'befec71f83741e86', 'cafd9c2551d6ab8f', '00cfbc50e0c95102'),
    'gen-28': ('f98189f5b528f46b', '300a0254c380037e', '00dab9b14fd67906', 'd65d86bb012e9052'),
    'gen-29': ('5aa834972a1145dd', 'f2e00943d2a157fa', '073bd0c29c915d85', 'fc79e1b5ba979e0a'),
    'gen-30': ('4588e5a79285e9e5', 'eb6155c999fc2489', 'd23beb7626ab21a7', 'd5e9af4e0ccda5ec'),
    'gen-31': ('f81fae414fa4c2fd', '12a1c364ec3fef91', '06a7efb240fe18c6', 'ae139e5ee1ee5fba'),
    'gen-32': ('0bc3553b0c515faf', '01946ec8e4e8a1ef', '7f3aa0bfce0d615a', 'de6ae9659296f9fd'),
    'gen-33': ('e41e81ad6bac2426', '78d7c5c197de140f', '2a09e5b38cdbcc1c', 'bcdf9dd17565ade7'),
    'gen-34': ('869649f4c3fb3f59', '2431be987ec21de3', '4cde61091695650d', 'e864308b0c001de5'),
    'gen-35': ('f8e407d91d18b802', '6f393a78a8518423', 'eb22be03b87e4c69', 'aa90aa2bc2071ec2'),
    'gen-36': ('250073cc0a020fcf', 'f4f35b0a3faabaf6', '1e9ee93a969e977b', '6efbd411888e415e'),
    'gen-37': ('9ce2f1fec040e6e9', '6bf871469aeb57c6', 'f2fa63d6db8db2ab', '47e965cf98eae6af'),
    'gen-38': ('e7bfb559a188e1d7', 'a54ff789742e7f77', 'c99391c83c522a3a', 'c5ff80f9f2029d4e'),
    'gen-39': ('8dce612f3bbb29ea', 'a18b5e423a8313b1', '78b49bb0c6cdee44', 'f559b98414b9d26a'),
    'gen-40': ('98b78f46eb17d5b7', 'f39825647b2e8e67', '9c1cf2f9430bca4f', '6fcf8e14e85b591f'),
    'gen-41': ('b13157bc298d0b0e', '84f678f232a5824b', 'cca0e7a4401cc66b', 'dcaa002ffec0d5a4'),
    'gen-42': ('4f74570cf3762d3e', '6f56796bf77f050f', '452feb74ddce4f74', 'd8702edcc838fa0c'),
    'gen-43': ('276526b5c5640d63', 'fa530141b408a9e2', 'f3d232a4fd02e99a', '082d4077adba0b7f'),
    'gen-44': ('7f6f25dd7b0de3c0', '69eb2d6e2728ca32', '7937cdcea685180b', '5e5c6859727a6593'),
    'gen-45': ('d138ba0db1cafe1d', '02d2021e0a7f0a49', '2b0074eae1d6b04e', '17f6dfb3f02f3e3d'),
    'gen-46': ('d57a41c7eb47fe25', '3ea35bca6781e40d', 'c54906b2ad81bf06', '8b1669ec2275d6fa'),
    'gen-47': ('fac9de85f380df1e', '2ba360d31ad08ee1', '72ba27d3377f8c96', '703cfe2c89d54fa0'),
    'gen-48': ('d197ae083bf758c3', '261ab4bb56c19f17', '9dd00e3d0c8ae725', '2e2ac459ba6d7e91'),
    'gen-49': ('91f37543031aedf1', 'd5e0f1e53c623191', 'bdc989abe7825282', '75389521b30a31dd'),
}

GOLDEN_EXTENDED = {
    'app-NSS': ('6cc4671de85f68bf', '95b3d6f8bac91a1a', 'caacd1957638972e', '3ce9aa561b98c55f'),
    'app-SPEC OMP': ('0ffa30ef839151aa', 'bbfe979837ebe1e9', 'fd0934fc6a2e2d85', '3c012335ee044469'),
    'app-TPC-W': ('c68b36c93e87432a', 'c9d3d0b51072a546', '1be7c82969e7bad3', 'a581d2636c9d218e'),
    'app-VLC': ('94023d5fb785981e', '3933234e83683dc1', 'b5be6bf7189c05b1', 'bab831de475001cb'),
    'app-Webstone': ('7119f627508ad0f2', '09aafe0a6eefce33', '52ff9e3cc0219608', '480d7f7afffc04fc'),
    'bug-169296': ('693fc0a8db96bde6', 'a4f2024a2432d190', 'c4ff86a28e80110d', '54d002dcdec73d06'),
    'bug-19938': ('34ddf38871a554f9', '3f2e8832487ea7d8', 'a0fffb52cf16bcdc', 'c46e75220cec3138'),
    'bug-201134': ('f07af4fec6ddd612', '2bd60aeb1622fbec', '418a9d373d386214', 'be4347beb1d8abb9'),
    'bug-21287': ('7783fb9044d3a7c0', '7f9cdc6e75199adb', 'da9461f354ef900c', 'ea06369d5a866d0b'),
    'bug-225525': ('9b2c9b7f67ce7fde', '886470d4a391b28e', 'cf7fa647880a791d', 'c9d3277e9a4f56d9'),
    'bug-25306': ('19a33e084327ac26', '671c108768288ab8', '555943e8e0f10ad2', '76b8c1427626898b'),
    'bug-25520': ('051122b7c587b232', '60dd313a662b7a8b', 'fcc9a388bfb5cefe', '0ad02c6f2f74579b'),
    'bug-270689': ('408fd9cc6218cb8f', '0cdc3f78024d7740', '2ebbb3fb3e1cbd29', '9f3e24057b7f68f0'),
    'bug-329072': ('9bf5a589fd98db1a', 'a80c1f573f19a2cc', '9d36374444e12f7a', '6e830d6fa28d50ad'),
    'bug-341323': ('8ee7020acbcd58d5', '76256d794294ec1a', '51cbf39a2f790a53', '60456a1c4870f3db'),
    'bug-44402': ('dc4432c87939ae4c', '5256743457ee21ed', 'c9889b12160d63de', '59dddfc6c89ae126'),
}


@pytest.fixture(scope="module")
def sources():
    return _sources()


def test_golden_covers_every_input(sources):
    assert sorted(GOLDEN) == sorted(sources)
    assert sorted(GOLDEN_EXTENDED) == sorted(
        name for name in sources if not name.startswith("gen-"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_prepare_matches_golden(sources, name):
    assert prepare_pins(sources[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_EXTENDED))
def test_prepare_extended_matches_golden(sources, name):
    assert prepare_pins(sources[name], **EXTENDED) == GOLDEN_EXTENDED[name]


if __name__ == "__main__":
    all_sources = _sources()
    print("GOLDEN = {")
    for key in sorted(all_sources):
        print("    %r: %r," % (key, prepare_pins(all_sources[key])))
    print("}\n\nGOLDEN_EXTENDED = {")
    for key in sorted(all_sources):
        if not key.startswith("gen-"):
            print("    %r: %r," % (key, prepare_pins(all_sources[key],
                                                    **EXTENDED)))
    print("}")
