"""VM profiler: per-pc counting, flush/aggregation, exports."""

from repro.core.config import KivatiConfig, Mode
from repro.core.session import ProtectedProgram
from repro.faults.chaos import CHAOS_SRC
from repro.faults.chaos import default_config as chaos_config
from repro.obs import MetricsRegistry, ObsPlane, VMProfiler


class _Instr:
    class _Op:
        def __init__(self, value):
            self.value = value

    def __init__(self, name):
        self.op = self._Op(name)


SRC = """
int x = 0;

void worker() {
    int i = 0;
    while (i < 3) {
        int t = x;
        x = t + 1;
        i = i + 1;
    }
}

void main() {
    spawn worker();
    spawn worker();
    join();
    output(x);
}
"""


def test_attach_program_per_pc_counting_aggregates_by_name():
    prof = VMProfiler()
    counts = prof.attach_program([_Instr("ld"), _Instr("st"), _Instr("ld")])
    counts[0] += 4
    counts[2] += 6
    counts[1] += 1
    assert prof.total_dispatches == 11
    assert prof.named_op_counts() == {"ld": 10, "st": 1}


def test_reattach_flushes_previous_program():
    prof = VMProfiler()
    first = prof.attach_program([_Instr("ld")])
    first[0] += 5
    second = prof.attach_program([_Instr("st")])
    second[0] += 2
    assert prof.named_op_counts() == {"ld": 5, "st": 2}
    assert prof.total_dispatches == 7


def test_manual_hooks_and_wall_attribution():
    prof = VMProfiler(wall_time=True)
    prof.count_op("add")
    prof.count_op("add")
    prof.add_wall_ns(100)
    prof.note_wp_check(3, 0)
    prof.note_wp_check(2, 2)
    prof.note_suspend(1)
    prof.note_suspend(4)
    assert prof.named_op_counts() == {"add": 2}
    assert prof.named_op_wall_ns() == {"add": 100}
    assert prof.wp_checks == 2
    assert prof.wp_accesses == 5
    assert prof.wp_hit_checks == 1
    assert prof.wp_hit_slots == 2
    assert prof.wp_hit_rate == 0.5
    assert prof.suspend_peak == 4
    assert prof.suspend_depth.count == 2


def test_as_dict_is_sorted_and_wall_gated():
    prof = VMProfiler(wall_time=True)
    prof.count_op("st")
    prof.add_wall_ns(7)
    payload = prof.as_dict()
    assert "wall_ns" not in payload
    assert list(payload["ops"]) == sorted(payload["ops"])
    wall = prof.as_dict(include_wall=True)
    assert wall["wall_ns"] == {"st": 7}


def test_run_dispatch_counts_match_instr_count():
    obs = ObsPlane()
    report = ProtectedProgram(SRC).run(KivatiConfig(obs=obs))
    prof = obs.profiler
    assert prof.total_dispatches == report.result.instr_count
    counts = prof.named_op_counts()
    assert sum(counts.values()) == report.result.instr_count
    assert prof.wp_checks > 0
    # every access probe belongs to some check
    assert prof.wp_accesses >= prof.wp_checks


def test_watchpoint_check_counts_are_pinned():
    # every watchable instruction that commits is one check, whether or
    # not any slot is armed; the chaos program adds hitting checks
    obs = ObsPlane()
    ProtectedProgram(SRC).run(KivatiConfig(obs=obs))
    prof = obs.profiler
    assert (prof.wp_checks, prof.wp_accesses, prof.wp_hit_checks,
            prof.wp_hit_slots) == (63, 63, 0, 0)
    obs = ObsPlane()
    ProtectedProgram(CHAOS_SRC).run(chaos_config(seed=2, obs=obs))
    prof = obs.profiler
    assert (prof.wp_checks, prof.wp_accesses, prof.wp_hit_checks,
            prof.wp_hit_slots) == (164, 164, 24, 24)


def test_runs_are_deterministic_across_repeats():
    def profile():
        obs = ObsPlane()
        ProtectedProgram(SRC).run(KivatiConfig(seed=5, obs=obs))
        return obs.profiler.as_dict()

    assert profile() == profile()


def test_export_to_registry_and_hot_path_table():
    obs = ObsPlane()
    ProtectedProgram(SRC).run(KivatiConfig(obs=obs))
    reg = MetricsRegistry()
    obs.profiler.export_to(reg)
    payload = reg.to_dict()
    op_counters = {k: v for k, v in payload["counters"].items()
                   if k.startswith("kivati.vm.op.")}
    assert sum(op_counters.values()) == obs.profiler.total_dispatches
    assert payload["counters"]["kivati.vm.wp.checks"] \
        == obs.profiler.wp_checks
    assert "kivati.kernel.suspend_depth" in payload["histograms"]
    table = obs.profiler.hot_path_table(top=3)
    assert "hot path:" in table
    assert "cum%" in table


def test_empty_profiler_renders_without_dividing_by_zero():
    table = VMProfiler().hot_path_table()
    assert "no instructions dispatched" in table
