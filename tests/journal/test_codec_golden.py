"""Golden journal bytes: the codec must never change a byte on disk.

Two journals are recorded and every segment's SHA-256 is compared with
the digests pinned in ``golden/codec_segments.json``:

- a Table-6 corpus bug run (bug 19938, seed 7, prevention mode) written
  through ``JournalWriter(max_bytes=4096)``, so rotation splits it into
  many segments and the run-start config snapshot (floats, nested
  lists, bools) is on disk;
- ``checkerbench.synthesize_journal`` at a fixed seed and size.

The same recording is repeated in a subprocess that hides the ``_json``
C accelerator before anything imports :mod:`json`, so the pure-Python
fallback encoder is pinned to the same bytes as the C one.  A change
that moves any digest changes the on-disk format: replay, recovery and
every committed journal depend on it.  Regenerate
``golden/codec_segments.json`` only for a deliberate on-disk format
change.  CI's ``tests`` job runs this file on Python 3.10 and 3.12, so
both encoder paths are pinned on every supported version.
"""

import hashlib
import json
import os
import subprocess
import sys

_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(os.path.dirname(_TESTS_DIR))

BUG_ID = "19938"
BUG_SEED = 7
SYNTH_SEED = 3
SYNTH_EVENTS = 2000

#: {"bug": {segment: sha256}, "synthetic": {segment: sha256}}
GOLDEN_PATH = os.path.join(_TESTS_DIR, "golden", "codec_segments.json")


def _golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def _segment_digests(path):
    from repro.journal.format import segment_paths

    digests = {}
    for seg in segment_paths(path):
        with open(seg, "rb") as f:
            digests[os.path.basename(seg)] = hashlib.sha256(
                f.read()).hexdigest()
    return digests


def record_digests(workdir):
    """Record both journals under ``workdir``; returns their digests."""
    from repro.bench.checkerbench import synthesize_journal
    from repro.bench.scale import corpus_config
    from repro.core.config import Mode
    from repro.core.session import ProtectedProgram
    from repro.journal.format import JournalWriter
    from repro.journal.replay import record_run
    from repro.workloads.bugs import BUGS

    bug_path = os.path.join(workdir, "bug.journal")
    # enough segments that rotation never prunes one: every frame is pinned
    writer = JournalWriter(bug_path, max_bytes=4096, max_segments=64)
    _report, recorder = record_run(ProtectedProgram(BUGS[BUG_ID].source),
                                   corpus_config(Mode.PREVENTION),
                                   seed=BUG_SEED, writer=writer)
    recorder.close()
    synth_path = os.path.join(workdir, "synthetic.journal")
    synthesize_journal(synth_path, SYNTH_EVENTS, seed=SYNTH_SEED)
    return {"bug": _segment_digests(bug_path),
            "synthetic": _segment_digests(synth_path)}


#: run in a fresh interpreter: hide ``_json`` first, then record
_FALLBACK_SCRIPT = """
import sys
assert "json" not in sys.modules
sys.modules["_json"] = None
import json
import json.encoder
import json.scanner
assert json.encoder.c_make_encoder is None
assert json.scanner.c_make_scanner is None
sys.path.insert(0, sys.argv[1])
from test_codec_golden import record_digests
print(json.dumps(record_digests(sys.argv[2])))
"""


def test_segments_match_golden(tmp_path):
    digests = record_digests(str(tmp_path))
    assert len(digests["bug"]) > 1, "the bug run must rotate"
    assert digests == _golden()


def test_pure_python_encoder_writes_the_same_bytes(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _FALLBACK_SCRIPT, _TESTS_DIR, str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=_REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == _golden()
