"""Config serialization for the journal's run-start header.

A journal must be self-describing: ``kivati replay FILE JOURNAL`` has to
rebuild the exact :class:`repro.core.config.KivatiConfig` the recorded
run used without the operator re-supplying flags.  The run-start event
therefore carries a JSON snapshot of every determinism-relevant field —
seed, topology, mode, optimization switches, timing parameters, cost
model, fault plan — plus a hash of the protected source so replay can
refuse a journal recorded from a different program.

Per-run mutable objects (journal recorder, injector state) are
deliberately not part of the snapshot: replay supplies fresh ones.
"""

import hashlib

from repro.core.config import KivatiConfig, Mode, OptimizationConfig
from repro.errors import JournalError
from repro.faults.breaker import BreakerPolicy
from repro.faults.plan import FaultPlan, FaultSpec
from repro.pressure.policy import PressurePolicy

#: Bump when the snapshot layout changes incompatibly. Version 2 added
#: the pressure-plane policy; version 3 added ``conflict_sched``.
#: Older journals (missing keys) still load — missing fields take the
#: defaults the recording run used.
SNAPSHOT_VERSION = 3

#: Every version :func:`config_from_snapshot` can rebuild.
SUPPORTED_SNAPSHOT_VERSIONS = frozenset((1, 2, 3))


def source_digest(source):
    """Stable identity of the protected program's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _breaker_snapshot(breaker):
    if isinstance(breaker, BreakerPolicy):
        return {name: getattr(breaker, name) for name in BreakerPolicy.__slots__}
    return bool(breaker)


def _pressure_snapshot(pressure):
    if isinstance(pressure, PressurePolicy):
        return {name: getattr(pressure, name)
                for name in PressurePolicy.__slots__}
    if pressure is True:
        return True
    return None


def _faults_snapshot(plan):
    if plan is None:
        return None
    return {
        "name": plan.name,
        "specs": [
            {
                "point": spec.point,
                "probability": spec.probability,
                "max_fires": spec.max_fires,
                "start_after": spec.start_after,
                "param": dict(spec.param),
            }
            for spec in plan.specs
        ],
    }


def config_snapshot(config, source=None):
    """JSON-able snapshot of ``config`` (plus the program's source hash)."""
    opt = config.opt
    snap = {
        "version": SNAPSHOT_VERSION,
        "seed": config.seed,
        "mode": config.mode.value,
        "opt": {name: bool(getattr(opt, name))
                for name in OptimizationConfig.__slots__},
        "num_watchpoints": config.num_watchpoints,
        "num_cores": config.num_cores,
        "pause_ns": config.pause_ns,
        "pause_probability": config.pause_probability,
        "suspend_timeout_ns": config.suspend_timeout_ns,
        "whitelist": sorted(config.whitelist),
        "whitelist_path": config.whitelist_path,
        "whitelist_reread_ns": config.whitelist_reread_ns,
        "costs": {name: getattr(config.costs, name)
                  for name in type(config.costs).__slots__},
        "trap_before": config.trap_before,
        "eager_crosscore": config.eager_crosscore,
        "max_steps": config.max_steps,
        "breaker": _breaker_snapshot(config.breaker),
        "watchdog": bool(config.watchdog),
        "static_prune": bool(config.static_prune),
        "faults": _faults_snapshot(config.faults),
        "pressure": _pressure_snapshot(config.pressure),
        "conflict_sched": bool(config.conflict_sched),
    }
    if source is not None:
        snap["source_sha256"] = source_digest(source)
    return snap


def config_from_snapshot(snap, drop_fault_points=()):
    """Rebuild a :class:`KivatiConfig` from a run-start snapshot.

    ``drop_fault_points`` removes injection points from the rebuilt fault
    plan — recovery uses it to strip ``journal.crash`` so the re-executed
    run does not die at the same frame again.
    """
    if not isinstance(snap, dict) or "seed" not in snap:
        raise JournalError("journal has no usable config snapshot")
    version = snap.get("version")
    if version not in SUPPORTED_SNAPSHOT_VERSIONS:
        raise JournalError("unsupported config snapshot version %r" % (version,))
    from repro.machine.costs import CostModel

    # validate timing fields that older writers could not have checked,
    # so a corrupted or hand-edited journal aborts cleanly here instead
    # of deep inside the run
    timeout = snap.get("suspend_timeout_ns", 10_000_000)
    if not isinstance(timeout, int) or timeout < 1:
        raise JournalError("snapshot suspend_timeout_ns %r is not a "
                           "positive integer" % (timeout,))

    breaker = snap["breaker"]
    if isinstance(breaker, dict):
        breaker = BreakerPolicy(**breaker)
    # absent in version-1 snapshots: those runs predate the plane
    pressure = snap.get("pressure")
    if isinstance(pressure, dict):
        pressure = PressurePolicy(**pressure)
    elif pressure is not None and pressure is not True:
        raise JournalError("snapshot pressure %r is not null/true/object"
                           % (pressure,))
    faults = None
    fsnap = snap.get("faults")
    if fsnap is not None:
        specs = [FaultSpec(point=s["point"], probability=s["probability"],
                           max_fires=s["max_fires"],
                           start_after=s["start_after"], param=s["param"])
                 for s in fsnap["specs"]
                 if s["point"] not in drop_fault_points]
        if specs:
            faults = FaultPlan(fsnap["name"], specs)
    return KivatiConfig(
        mode=Mode(snap["mode"]),
        opt=OptimizationConfig(**snap["opt"]),
        num_watchpoints=snap["num_watchpoints"],
        num_cores=snap["num_cores"],
        pause_ns=snap["pause_ns"],
        pause_probability=snap["pause_probability"],
        suspend_timeout_ns=timeout,
        whitelist=snap["whitelist"],
        whitelist_path=snap["whitelist_path"],
        whitelist_reread_ns=snap["whitelist_reread_ns"],
        costs=CostModel(**snap["costs"]),
        seed=snap["seed"],
        trap_before=snap["trap_before"],
        eager_crosscore=snap["eager_crosscore"],
        max_steps=snap["max_steps"],
        breaker=breaker,
        watchdog=snap["watchdog"],
        static_prune=snap["static_prune"],
        faults=faults,
        pressure=pressure,
        # absent before version 3
        conflict_sched=snap.get("conflict_sched", False),
    )


__all__ = ["SNAPSHOT_VERSION", "SUPPORTED_SNAPSHOT_VERSIONS",
           "config_from_snapshot", "config_snapshot", "source_digest"]
