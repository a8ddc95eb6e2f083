"""Golden pins for the fuzz campaign"s detection posture.

``test_vm_golden.py`` pins the application models on two busy cores.
The fuzz posture is different: one core per worker thread plus one, so
cores sit idle while the main thread joins, while workers sleep, and
after workers exit.  These pins hold every simulated quantity of such
runs: simulated time, instruction count, kernel entries, the output and
a SHA-256 over the ``key()`` of every journal event, for generated
programs in bug-finding mode and for hand-written cases (a deadlock, a
sleep that wakes while other cores idle, a divide-by-zero on three
cores, a run that passes its step limit, and two busy cores whose
result turns on a tie: between the two cores, with a timeout due, and
with a parked core).  A change that only makes the machine faster must
leave every value here as it is.
"""

import hashlib
from random import Random

import pytest

from repro.core.config import KivatiConfig, Mode, OptLevel
from repro.core.session import ProtectedProgram
from repro.errors import StepLimitExceeded
from repro.fuzz.generator import FuzzParams, generate_source
from repro.journal.recorder import JournalRecorder
from repro.machine.costs import CostModel

MS = 1_000_000


def posture_config(threads, max_steps=100_000):
    """Bug-finding mode, one core per worker thread plus one, frequent
    timer ticks and short quanta (OS time constants / 1000)."""
    return KivatiConfig(mode=Mode.BUG_FINDING, opt=OptLevel.OPTIMIZED,
                        pause_ns=20 * MS // 1000,
                        suspend_timeout_ns=10 * MS // 1000,
                        whitelist_reread_ns=500 * MS // 1000,
                        pause_probability=0.25,
                        num_cores=threads + 1,
                        costs=CostModel(timer_tick=100, timer_tick_cost=3,
                                        quantum=4_000),
                        max_steps=max_steps)


def events_sha(events):
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event.key()).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def posture_pin(source, threads, seed, max_steps=100_000):
    """(time_ns, instr_count, kernel_entries, output, fault, deadlocked,
    journal events, events sha) of one recorded run."""
    recorder = JournalRecorder()
    config = posture_config(threads, max_steps).copy(journal=recorder)
    report = ProtectedProgram(source).run(config, seed=seed)
    result = report.result
    return (result.time_ns, result.instr_count, result.kernel_entries,
            list(result.output),
            type(result.fault).__name__ if result.fault else None,
            result.deadlocked, len(recorder.events),
            events_sha(recorder.events))


def generated_case(index, base=7_000_003):
    """(source, threads, run seed) of the ``index``-th generated program."""
    rng = Random(base + index)
    params = FuzzParams.sampled(rng)
    source = generate_source(params, rng.randrange(1 << 30))
    return source, params.threads, rng.randrange(1 << 30)


GENERATED = 30

#: index -> posture pin of generated_case(index)
GENERATED_GOLDEN = {
    0: (75770, 1063, 59, [7], None, False, 115, "18130b5e79374d95"),
    1: (187821, 1082, 94, [11, 4, 0], None, False, 249, "da4b1bc60428661f"),
    2: (134139, 678, 48, [6], None, False, 145, "309087729f904566"),
    3: (56952, 474, 40, [3, 2], None, False, 54, "b48f0ae703fec037"),
    4: (172818, 1270, 73, [7, 9], None, False, 236, "4444af46bd41c329"),
    5: (280307, 1456, 111, [4, 8], None, False, 320, "4f45074447294e7d"),
    6: (501610, 1765, 324, [50], None, False, 1000, "a9099f9e76369bce"),
    7: (78603, 553, 56, [6, 4], None, False, 105, "51576ef9df52a66a"),
    8: (107225, 1046, 40, [2, 5], None, False, 183, "99c38899b4587710"),
    9: (150479, 1525, 78, [424], None, False, 266, "67e3bc38d5fdc19c"),
    10: (23955, 820, 19, [0, 1], None, False, 19, "f922c22d3f8400c8"),
    11: (269520, 918, 51, [0, 22], None, False, 205, "fa0fa35bb6a1a700"),
    12: (127205, 913, 37, [36], None, False, 105, "dcd491be14ad1fc7"),
    13: (167623, 744, 53, [6, 0, 0], None, False, 143, "a30260b10ef7c6b0"),
    14: (208737, 1565, 70, [8, 20, 0], None, False, 256, "3e9861248b1b6466"),
    15: (125499, 532, 49, [0, 7, 0], None, False, 121, "1ff48a6ca97bd235"),
    16: (108680, 667, 51, [16, 0, 0], None, False, 113, "c06bb841cb2bc6e5"),
    17: (208862, 1318, 93, [10, 7, 6], None, False, 280, "8095938486b04afd"),
    18: (157599, 637, 61, [0, 0, 4], None, False, 175, "fed607ae33718c30"),
    19: (177944, 457, 50, [4, 0, 0], None, False, 125, "44988abcee16eee6"),
    20: (67131, 753, 45, [0, 6], None, False, 80, "6ce6241cd8ad27f9"),
    21: (146970, 1129, 75, [24], None, False, 236, "1439361a99900a5b"),
    22: (44586, 589, 36, [0, 8, 6], None, False, 86, "d3da321304173915"),
    23: (166815, 753, 40, [3, 10, 0], None, False, 150, "c71c05137fb719ea"),
    24: (207489, 1037, 51, [0, 0, 8], None, False, 198, "96036034446321c6"),
    25: (63491, 487, 42, [7], None, False, 81, "3f293f4095d51ae9"),
    26: (64070, 813, 52, [17], None, False, 119, "c893389c112fcd88"),
    27: (117115, 692, 72, [0, 9], None, False, 195, "0d9f321d04581517"),
    28: (84890, 330, 28, [1, 0], None, False, 75, "7464b923556295e2"),
    29: (181836, 1823, 135, [26, 12, 19], None, False, 356,
         "61c39919ecc484e6"),
}

#: (base, index) -> posture pin of generated_case(index, base): the
#: program drawn as perfbench's fuzz workload draws op 265 of seed 2.
#: Its idle core 0 sits one nanosecond ahead of two busy cores that tie,
#: and must not run before the higher-index one of them.
TIE_GOLDEN = {
    (2 * 1_000_003, 265): (304052, 1136, 87, [8, 24, 6], None, False, 251,
                           "ef55e2854c4be378"),
}

DEADLOCK_SRC = """
int a;
int b;
void t1() { lock(&a); sleep(3000); lock(&b); unlock(&b); unlock(&a); }
void t2() { lock(&b); sleep(3000); lock(&a); unlock(&a); unlock(&b); }
void main() { spawn t1(); spawn t2(); join(); }
"""

#: t1 sleeps while t2 spins and main waits in join: the wake-up event
#: falls due while two of the four cores are idle
SLEEP_SRC = """
int g;
int h;
void t1() { sleep(2500); g = g + 1; output(g); }
void t2() {
    int i = 0;
    while (i < 400) { h = h + i; i = i + 1; }
    output(h);
}
void main() { spawn t1(); spawn t2(); join(); output(g + h); }
"""

DIVIDE_SRC = """
int z;
int g;
void t1() { int i = 0; while (i < 50) { g = g + 1; i = i + 1; } }
void t2() { int i = 0; while (i < 30) { i = i + 1; } output(100 / z); }
void main() { spawn t1(); spawn t2(); join(); output(g); }
"""

SPIN_SRC = """
int g;
void t1() { while (1) { g = g + 1; } }
void main() { spawn t1(); join(); }
"""

# Two busy cores that hand the turn back and forth.  Each program's
# observable result depends on which core runs first at one clock: a
# lock taken on a tie, a timeout journaled at the earliest clock, a
# parked core that takes a woken thread.

#: two spinners contend for one lock on two cores; a tie between them
#: goes to the lower core index
TIE_SRC = """
int m;
void work(int n) { int i = 0; while (i < n) { i = i + 1; } }
void t1() { work(10); int i = 0; while (i < 40) { lock(&m); work(2); unlock(&m); work(4); i = i + 1; } }
void main() {
    spawn t1();
    int i = 0;
    while (i < 40) { lock(&m); work(2); unlock(&m); work(3); i = i + 1; }
    join();
    output(i);
}
"""

#: four threads on two cores: the writer traps into the holder's region
#: and is suspended, and its timeout falls due while main and the
#: spinner keep both cores busy, sometimes at exactly the clock of the
#: core that runs next (the timeout is journaled at the earliest clock)
TIMEOUT_SRC = """
int x;
int r;
void work(int n) { int i = 0; int s = 0; while (i < n) { s = s + i; i = i + 1; } r = r + s; }
void holder() { int t = x; sleep(15000); x = t + 1; }
void writer() { x = x + 100; }
void spinner() { work(900); }
void main() {
    spawn holder();
    spawn writer();
    spawn spinner();
    work(1000);
    join();
    output(x);
}
"""

#: three cores: the sleeper's core is parked between its lock rounds and
#: ties with the spinner that runs next; then the parked core comes first
PARKED_TIE_SRC = """
int m;
void work(int n) { int i = 0; while (i < n) { i = i + 1; } }
void sleeper() { int i = 0; while (i < 12) { sleep(130); lock(&m); work(1); unlock(&m); i = i + 1; } }
void spin(int w) { int i = 0; while (i < 40) { lock(&m); work(6); unlock(&m); work(w); i = i + 1; } }
void main() {
    spawn sleeper();
    spawn spin(4);
    spin(3);
    join();
    output(m);
}
"""

#: name -> (source, worker threads, seed, max_steps, pin)
HAND_GOLDEN = {
    "deadlock": (
        DEADLOCK_SRC, 2, 1, 100_000,
        (5875, 40, 16, [], None, True, 9, "a52fb64c4f59fcd0")),
    "sleep-wakes-on-idle-cores": (
        SLEEP_SRC, 2, 2, 100_000,
        (4109728, 13657, 415, [1, 79800, 79801], None, False, 2817,
         "9ac5fec7ef8db7ca")),
    "divide-by-zero-3-cores": (
        DIVIDE_SRC, 2, 3, 100_000,
        (5235, 611, 9, [], "DivideByZero", False, 9, "1dbb7b8233f9f1b3")),
    "two-busy-cores-tie": (
        TIE_SRC, 1, 1, 100_000,
        (30239, 15809, 53, [40], None, False, 31, "abdf40e5b133f30d")),
    "two-busy-cores-timeout": (
        TIMEOUT_SRC, 1, 1, 100_000,
        (52751, 51432, 46, [101], None, False, 56, "49c714ba72ed9a17")),
    "two-busy-cores-parked-tie": (
        PARKED_TIE_SRC, 2, 1, 100_000,
        (40445, 23099, 132, [0], None, False, 65, "f1750cab86d79464")),
}

#: the step-limit case: (max_steps, journal events, events sha)
STEP_LIMIT_GOLDEN = (5_000, 2048, "edeedcd7f8659f30")


@pytest.mark.parametrize("index", range(GENERATED))
def test_generated_program_posture_is_pinned(index):
    source, threads, seed = generated_case(index)
    assert posture_pin(source, threads, seed) == GENERATED_GOLDEN[index]


@pytest.mark.parametrize("base,index", sorted(TIE_GOLDEN))
def test_idle_core_tie_is_pinned(base, index):
    source, threads, seed = generated_case(index, base)
    assert posture_pin(source, threads, seed) == TIE_GOLDEN[base, index]


@pytest.mark.parametrize("name", sorted(HAND_GOLDEN))
def test_hand_written_posture_is_pinned(name):
    source, threads, seed, max_steps, pin = HAND_GOLDEN[name]
    assert posture_pin(source, threads, seed, max_steps) == pin


def test_step_limit_run_is_pinned():
    max_steps, count, sha = STEP_LIMIT_GOLDEN
    recorder = JournalRecorder()
    config = posture_config(1, max_steps).copy(journal=recorder)
    with pytest.raises(StepLimitExceeded,
                       match="exceeded %d instructions" % max_steps):
        ProtectedProgram(SPIN_SRC).run(config, seed=3)
    assert (len(recorder.events), events_sha(recorder.events)) \
        == (count, sha)
