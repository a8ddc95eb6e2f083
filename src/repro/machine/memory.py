"""Word-addressed shared memory."""

from repro.compiler.program import GLOBALS_BASE, HEAP_BASE, STACK_BASE, STACK_WORDS
from repro.errors import MemoryFault


class Memory:
    """Sparse word-addressed memory shared by all threads.

    Uninitialized words read as 0. Addresses below GLOBALS_BASE form a
    guard page: any access faults, which catches null-pointer dereferences
    in mini-C programs (several of the corpus bugs crash this way when the
    atomicity violation actually manifests).
    """

    __slots__ = ("words", "heap_next", "limit")

    def __init__(self):
        self.words = {}
        self.heap_next = HEAP_BASE
        self.limit = STACK_BASE + (1 << 22)

    def read(self, addr):
        if addr < GLOBALS_BASE or addr >= self.limit:
            raise MemoryFault(addr)
        return self.words.get(addr, 0)

    def write(self, addr, value):
        if addr < GLOBALS_BASE or addr >= self.limit:
            raise MemoryFault(addr)
        self.words[addr] = value

    def alloc(self, nwords):
        """Bump-allocate ``nwords`` fresh heap words; returns base address."""
        if nwords <= 0:
            nwords = 1
        addr = self.heap_next
        self.heap_next += nwords
        if self.heap_next >= STACK_BASE:
            raise MemoryFault(addr, "heap exhausted")
        return addr

    @staticmethod
    def stack_base(tid):
        """Highest address (exclusive) of a thread's stack region."""
        return STACK_BASE + (tid + 1) * STACK_WORDS

    @staticmethod
    def stack_limit(tid):
        """Lowest valid address of a thread's stack region."""
        return STACK_BASE + tid * STACK_WORDS
