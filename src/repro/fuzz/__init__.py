"""Generative workload fuzzing for the Kivati reproduction.

Scenario diversity was five hand-built apps plus an 11-bug corpus;
every detector, journal and scheduler change was validated against the
same fixed inputs.  This package turns every prior subsystem into a
self-testing loop:

- :mod:`repro.fuzz.generator` — a deterministic, seed-driven mini-C
  program generator (thread count, shared-variable count, read/write-set
  sizes, sharing rate, lock discipline, syncvar fraction) whose output
  passes ``repro.minic`` typecheck by construction;
- :mod:`repro.fuzz.oracle` — the cross-check: the online detector vs
  the offline checker over its journal vs ``conflict_sched=True``
  transparency vs pinned replay, on one generated program;
- :mod:`repro.fuzz.campaign` — fans generated programs out as fleet
  ``fuzz`` jobs and collects divergences;
- :mod:`repro.fuzz.minimize` — ddmin over statements/threads, each
  candidate re-typechecked and the divergence re-confirmed;
- :mod:`repro.fuzz.archive` — atomic (temp+rename) corpus of minimized
  repros: source + seed + schedule + journal;
- :mod:`repro.fuzz.fix` — the auto-fix synthesizer: lock insertion /
  critical-section widening verified by replaying the violating
  schedule against the patched program.
"""

from repro.fuzz.generator import FuzzParams, ProgramGenerator, generate_source
from repro.fuzz.oracle import CrossCheck, cross_check

__all__ = ["CrossCheck", "FuzzParams", "ProgramGenerator", "cross_check",
           "generate_source"]
