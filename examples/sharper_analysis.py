"""The Section 3.5 extensions: sharper static analysis + forensics.

The paper's prototype deliberately uses a simple intra-procedural,
name-based annotator and lists three improvements as future work. This
repo implements them; this example shows each one catching a violation
the simple annotator misses, plus the execution-trace forensics.

Usage::

    python examples/sharper_analysis.py
"""

from repro.core.config import KivatiConfig, OptLevel
from repro.core.session import ProtectedProgram
from repro.journal.recorder import JournalRecorder

# 1. An AR that spans a subroutine: the producer writes x, then calls
#    consume() which reads it. No single function contains both accesses.
SPANNING = """
int x = 0;
int sink = 0;

void consume() {
    sink = x;
    sleep(40000);
}

void producer() {
    x = 5;
    consume();
}

void remote_thread() {
    sleep(15000);
    x = 99;
}

void main() {
    spawn producer();
    spawn remote_thread();
    join();
    output(sink);
}
"""

# 2. An aliased pair: the local thread reads x through a pointer, then
#    writes it directly. Name-based matching never pairs *p with x.
ALIASED = """
int x = 0;

void local_thread() {
    int *p = &x;
    int t = *p;
    sleep(40000);
    x = t + 1;
}

void remote_thread() {
    sleep(15000);
    x = 99;
}

void main() {
    spawn local_thread();
    spawn remote_thread();
    join();
    output(x);
}
"""


def show(title, source, **annotator_options):
    print("=" * 66)
    print(title)
    simple = ProtectedProgram(source)
    sharp = ProtectedProgram(source, **annotator_options)
    config = KivatiConfig(opt=OptLevel.BASE)

    report = simple.run(config, seed=1)
    print("  simple annotator:  %d ARs, %d violation(s) reported"
          % (simple.num_ars, len(report.violations)))

    journal = JournalRecorder()
    report = sharp.run(config.copy(journal=journal), seed=1)
    print("  sharper annotator: %d ARs, %d violation(s) reported"
          % (sharp.num_ars, len(report.violations)))
    for violation in report.violations:
        print("    " + violation.describe())
    if report.violations:
        print("\n  forensic timeline around the violation:")
        for line in journal.render_violation(
                report.violations.records[0]).splitlines()[1:]:
            print("    " + line)
    print()


def main():
    show("ARs spanning subroutines (interprocedural=True)", SPANNING,
         interprocedural=True)
    show("Aliased access pairs (pointer_analysis=True)", ALIASED,
         pointer_analysis=True)


if __name__ == "__main__":
    main()
