"""A clock that runs at a fixed reference speed of the host.

The benchmark shares a few vCPUs of a host with other tenants, and their
single-thread speed drifts: on the two-vCPU Xeon of the reference figures
the same code ran up to 1.8 times slower for spells of a fraction of a
second to over a minute.  Averaging over a run cannot take out a spell
that outlasts it.  So while the benchmark times the program, a timer
interrupts it every PERIOD_S seconds and times a fixed reference slice of
small Python and numpy work that does not call the program.  `clock()`
leaves the slices out and, between two slices, advances by the elapsed
time multiplied by NOMINAL_SLICE_S over the time of the last slice.  An
interval of `clock()` is the program's time at the host speed at which a
slice takes NOMINAL_SLICE_S: the host's drift cancels, a change in the
program's own speed does not.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
# a round figure between the slice's time on the two-vCPU Xeon of the
# reference figures in fast spells (about 0.004 s) and its mean there (about
# 0.0055 s), so that clock() reads close to that host's seconds
NOMINAL_SLICE_S = 0.005

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(3, 3))
_x = _rng.normal(size=3)
_B = _rng.normal(size=(2048, 3))

samples: list[float] = []  # slice times, seconds
_active = False
# (clock() when the last slice ended, perf_counter() then, reference seconds
# per second since); replaced whole, so a slice that interrupts clock() is seen
_state = (0.0, perf_counter(), 1.0)


def clock() -> float:
    """Reference seconds: elapsed time, slices left out, scaled by the last slice."""
    while True:
        state = _state
        now = perf_counter()
        if state is _state:
            ref, mark, factor = state
            return ref + (now - mark) * factor


def _slice() -> None:
    global _state
    t0 = perf_counter()
    ref, mark, factor = _state
    acc = 0.0
    for _ in range(800):  # dispatch-bound, like the per-example solves
        y = _A @ _x
        acc += float(y.max() - y.sum())
    for _ in range(10):  # array-bound, like the batched solves
        Y = _B @ _A
        acc += float((Y - Y.max(axis=1, keepdims=True)).sum())
    t1 = perf_counter()
    samples.append(t1 - t0)
    _state = (ref + (t0 - mark) * factor, t1, NOMINAL_SLICE_S / (t1 - t0))


def _tick(signum, frame) -> None:
    if _active:
        _slice()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)


@contextlib.contextmanager
def sampling():
    """Sample the host's speed while the block runs, from a slice on entry."""
    global _active
    signal.signal(signal.SIGALRM, _tick)
    signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
    _slice()
    _active = True
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
    try:
        yield
    finally:
        _active = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def factor(slices: list[float]) -> float:
    """NOMINAL_SLICE_S over the mean time of the given slices."""
    return NOMINAL_SLICE_S * len(slices) / sum(slices)
