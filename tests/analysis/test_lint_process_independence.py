"""Lint output does not depend on what the process did before.

AST uids and the normalizer's ``__cN`` temporaries come from
process-wide counters, so how far they have advanced depends on every
program parsed or prepared earlier in the process.  The corpus lint
JSON must be the same in a fresh process and after preparing fifty
other programs in this one.
"""

import os
import subprocess
import sys
from random import Random

from repro.cli import main
from repro.core.session import ProtectedProgram
from repro.fuzz.generator import FuzzParams, generate_source

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_corpus_lint_same_fresh_and_after_preparing_others(capsys):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    fresh = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--corpus", "--json"],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    ).stdout

    for index in range(50):
        rng = Random(index)
        ProtectedProgram(generate_source(FuzzParams.sampled(rng),
                                         rng.randrange(1 << 30)))
    capsys.readouterr()
    assert main(["lint", "--corpus", "--json"]) == 0
    assert capsys.readouterr().out == fresh
