"""Multiply-accumulate instrumentation: bench counts every point with it.

Counting is structural: each kernel reports the multiply-accumulate count of
the operation it issues (matmul n*m*k, triangular solve n^3/3, matvec n*m,
FFT (N/2)*log2(N) butterflies per column). LAPACK eigendecompositions are
counted with an n^3 surrogate since their internal flop counts are not
observable from here; the surrogate is documented and consistent, so counts
are an exact function of input sizes and the executed code path. A seeded
workload therefore reproduces its count bit for bit.

Counting is off unless code runs inside the count_macs() context manager.
"""

from __future__ import annotations

from contextlib import contextmanager


class MacCounter:
    """Accumulates multiply-accumulate operation counts."""

    def __init__(self) -> None:
        self.total = 0

    def add(self, n: int) -> None:
        self.total += int(n)


_active: MacCounter | None = None


def add(n: int) -> None:
    """Record n multiply-accumulates if instrumentation is active."""
    if _active is not None:
        _active.add(n)


@contextmanager
def count_macs():
    """Activate counting for the duration of the block; yields the counter."""
    global _active
    previous = _active
    counter = MacCounter()
    _active = counter
    try:
        yield counter
    finally:
        _active = previous
