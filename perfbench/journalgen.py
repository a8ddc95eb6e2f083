"""Synthetic journals whose verdict multiset is known by construction.

The generator plays the kernel's journaling protocol for one window at
a time: a slot is armed at a fresh generation, the window opens with a
``begin``, remote threads fire ``trigger`` frames against that
(slot, generation) epoch, and the window closes with an ``end`` carrying
the second access kind (or, now and then, a ``clear`` that closes it
without evaluation).  Every non-serializable (first, remote, second)
triple the generator creates is recorded as an expected verdict and is
also journaled as a ``violation`` frame, so a correct checker reports a
clean ``pass`` with exactly the expected multiset.

Events are produced lazily, so a 10^5-event journal is never held in
memory: the benchmark measures the journal layer, not its own input.
The Figure 2 table below is written out here rather than imported, so
the expected verdicts do not depend on the code under test.
"""

from random import Random

from repro.journal.events import JournalEvent

#: Figure 2: the four non-serializable (first, remote, second) triples
UNSERIALIZABLE = frozenset([
    ("R", "W", "R"),
    ("W", "W", "R"),
    ("W", "R", "W"),
    ("R", "W", "W"),
])

KINDS = ("R", "W")
#: threads and watchpoint slots of every synthetic journal
THREADS = 4
SLOTS = 4


class SyntheticJournal:
    """Iterate the events of one synthetic journal.

    ``expected`` holds the sorted expected verdict multiset once the
    iteration is exhausted; each verdict is the checker's tuple
    ``(ar, tid, remote_tid, first, remote, second, prevented)``.
    """

    def __init__(self, seed, n_events):
        self.seed = seed
        self.n_events = n_events
        self.expected = []

    def __iter__(self):
        rng = Random(self.seed)
        gens = [0] * SLOTS
        expected = []
        seq = 0
        now = 1000

        def event(tid, kind, **payload):
            nonlocal seq, now
            now += rng.randrange(1, 50)
            seq += 1
            return JournalEvent(seq - 1, now, tid, kind, payload)

        yield event(-1, "run-start", synthetic=True, threads=THREADS,
                    slots=SLOTS)
        # leave room for the largest window and the run-end frame
        while seq < self.n_events - 12:
            tid = rng.randrange(THREADS)
            ar = rng.randrange(64)
            slot = rng.randrange(SLOTS)
            gens[slot] += 1
            gen = gens[slot]
            addr = 4096 + ar
            first = rng.choice(KINDS)
            yield event(tid, "arm", slot=slot, gen=gen, addr=addr, size=4,
                        read=True, write=True)
            begin = event(tid, "begin", ar=ar, slot=slot, gen=gen,
                          addr=addr, first=first, var="g%d" % ar,
                          joined=False)
            begin_time = begin.time_ns
            yield begin
            triggers = []
            for _ in range(rng.randrange(4)):
                remote = rng.randrange(THREADS)
                kinds = ([rng.choice(KINDS)] if rng.random() < 0.8
                         else list(KINDS))
                undone = rng.random() < 0.5
                yield event(remote, "trigger", slot=slot, gen=gen,
                            kinds=kinds, pc=rng.randrange(1 << 16),
                            undone=undone)
                triggers.append((remote, kinds, undone))
            if rng.random() < 0.1:
                yield event(tid, "clear", ar=ar)
            else:
                second = rng.choice(KINDS)
                yield event(tid, "end", ar=ar, slot=slot, gen=gen,
                            second=second, zombie=False,
                            begin_time=begin_time,
                            had_triggers=bool(triggers))
                for remote, kinds, undone in triggers:
                    if remote == tid:
                        continue
                    for kind in kinds:
                        if (first, kind, second) in UNSERIALIZABLE:
                            verdict = (ar, tid, remote, first, kind, second,
                                       undone)
                            expected.append(verdict)
                            yield event(tid, "violation", ar=ar,
                                        var="g%d" % ar, addr=addr,
                                        remote_tid=remote, first=first,
                                        remote=kind, second=second,
                                        prevented=undone)
                            break
            if rng.random() < 0.5:
                yield event(tid, "disarm", slot=slot, gen=gen, addr=addr)
        yield event(-1, "run-end", synthetic=True)
        self.expected = sorted(expected)
