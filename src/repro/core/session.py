"""Run orchestration: prepare once, run under any config."""

from functools import cached_property

from repro.analysis.annotate import annotate
from repro.analysis.normalize import normalize_program
from repro.compiler.codegen import compile_program
from repro.core.config import KivatiConfig
from repro.core.reports import DegradationLog, RunReport, ViolationLog
from repro.faults.plan import FaultInjector
from repro.journal.snapshot import config_snapshot
from repro.machine.machine import Machine
from repro.minic.parser import parse
from repro.minic.typecheck import check
from repro.runtime.userlib import KivatiRuntime


class ProtectedProgram:
    """A mini-C program prepared for execution under Kivati.

    The source is parsed, normalized and checked once.  Preparing
    builds the annotated binary and what a run reads of the analysis;
    :func:`annotate` leaves the normalized AST untouched, so the
    annotation-free binary (``vanilla_program``, for overhead
    measurements that compare like-for-like code) is compiled from it
    on first read, and the footprints on first read of
    ``annotation.footprints``.
    """

    def __init__(self, source, interprocedural=False,
                 pointer_analysis=False):
        self.source = source
        program = normalize_program(parse(source))
        self.annotation = annotate(program, interprocedural=interprocedural,
                                   pointer_analysis=pointer_analysis,
                                   pinfo=check(program))
        self.program = compile_program(
            self.annotation.ast, self.annotation.pinfo,
            self.annotation.ar_table
        )
        self.program.source = source

    @cached_property
    def vanilla_program(self):
        """The annotation-free binary, compiled on first read."""
        program = compile_program(self.annotation.pristine_ast,
                                  self.annotation.pinfo)
        program.source = self.source
        return program

    @property
    def ar_table(self):
        return self.annotation.ar_table

    @property
    def sync_ar_ids(self):
        return self.annotation.sync_ar_ids

    @property
    def num_ars(self):
        return self.annotation.num_ars

    @property
    def static_safe_ar_ids(self):
        return self.annotation.static_safe_ar_ids

    def run(self, config=None, seed=None, raise_on_deadlock=False,
            schedule_pin=None):
        """Execute under Kivati; returns a RunReport.

        ``schedule_pin`` (a :class:`repro.journal.replay.SchedulePin`)
        forces scheduler decisions to follow a recorded journal; it is
        only meaningful together with a config whose other knobs match
        the recorded run.
        """
        config = config or KivatiConfig()
        if seed is not None:
            config = config.copy(seed=seed)
        log = ViolationLog()
        injector = (FaultInjector(config.faults, config.seed)
                    if config.faults is not None else None)
        degradations = DegradationLog()
        journal = config.journal
        if journal is not None:
            # crash injection targets the journal's own frame boundaries
            journal.faults = injector
            journal.emit(0, -1, "run-start",
                         config=config_snapshot(config, self.source))
        conflict_inputs = {}
        if KivatiRuntime.schedules_conflicts(config):
            annotation = self.annotation
            conflict_inputs = dict(
                footprints=annotation.footprints,
                func_footprints=annotation.func_footprints,
                blocking_ar_ids=frozenset(
                    ar_id for ar_id, v in annotation.prune.verdicts.items()
                    if v.blocking),
                coarse_vars=frozenset(
                    name for name, size in
                    annotation.pinfo.global_sizes.items() if size > 1))
        runtime = KivatiRuntime(
            config, self.ar_table, log, self.sync_ar_ids,
            faults=injector, degrade=degradations,
            static_safe_ar_ids=self.annotation.static_safe_ar_ids,
            journal=journal, **conflict_inputs)
        machine = Machine(
            self.program,
            num_cores=config.num_cores,
            num_watchpoints=config.num_watchpoints,
            costs=config.costs,
            runtime=runtime,
            seed=config.seed,
            trap_before=config.trap_before,
            max_steps=config.max_steps,
            faults=injector,
            journal=journal,
            schedule_pin=schedule_pin,
            profiler=config.obs.profiler if config.obs is not None else None,
        )
        try:
            result = machine.run(raise_on_deadlock=raise_on_deadlock)
            if journal is not None:
                journal.emit(result.time_ns, -1, "run-end",
                             output=list(result.output),
                             deadlocked=result.deadlocked,
                             violations=len(log),
                             unprevented=sum(1 for r in log
                                             if not r.prevented),
                             instr_count=result.instr_count)
        finally:
            # on a simulated crash the writer is already torn and closed;
            # on success this flushes the run-end frame
            if journal is not None:
                journal.close()
            runtime.detach()
        if config.obs is not None:
            # fold this run's stats into the obs registry; observation
            # only — the report below is identical with obs on or off
            config.obs.finalize_run(runtime.stats, result)
        return RunReport(result, runtime.stats, log, config, self.ar_table,
                         degradations=degradations,
                         injected=tuple(injector.injected)
                         if injector is not None else (),
                         pressure=runtime.pressure)

    def run_vanilla(self, num_cores=2, costs=None, seed=0,
                    raise_on_deadlock=False, max_steps=200_000_000):
        """Execute the uninstrumented binary; returns a MachineResult."""
        machine = Machine(
            self.vanilla_program,
            num_cores=num_cores,
            costs=costs,
            seed=seed,
            max_steps=max_steps,
        )
        try:
            return machine.run(raise_on_deadlock=raise_on_deadlock)
        finally:
            machine.runtime.detach()

    def overhead(self, config=None, seed=0):
        """Fractional run-time overhead of this config vs vanilla on the
        same seed (e.g. 0.19 for 19%)."""
        config = (config or KivatiConfig()).copy(seed=seed)
        vanilla = self.run_vanilla(num_cores=config.num_cores,
                                   costs=config.costs, seed=seed)
        protected = self.run(config)
        if vanilla.time_ns == 0:
            return 0.0
        return protected.time_ns / vanilla.time_ns - 1.0
