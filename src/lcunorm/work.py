"""Work counters, recorded where the work is done: BFGS runs, iterations and
cost evaluations, and dE/2's sectors, Lanczos matvecs and cross-spin rows."""

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar

# the Counters of the counting() blocks open in this thread or task
_open = ContextVar("lcunorm_counting", default=())


@contextmanager
def counting():
    """Yield a Counter that every add() made inside the block updates."""
    counts = Counter()
    token = _open.set(_open.get() + (counts,))
    try:
        yield counts
    finally:
        _open.reset(token)


def add(**counts):
    """Add `counts` to every open counting() block; outside one, do nothing."""
    for c in _open.get():
        c.update(counts)
