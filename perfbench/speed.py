"""The host's CPU speed, probed during a run, and times scaled to it.

The benchmark runs on shared hosts whose CPU speed changes by up to
about 1.8x, in stretches from under a second to minutes (README.md,
"Noise and the speed scaling").  A run falls partly in each, so a plain
median of its timings follows the host as much as the program.  While
:func:`probing` is active, a ``SIGALRM`` every ``PERIOD_S`` of wall time
runs a fixed kernel (interpreter loop, small numpy products, dense
products and a small ``scipy`` LP, the mix of the package's own work)
and records its time as a ratio to ``REFERENCE_S``.  :func:`at_reference`
divides each timed interval by the mean ratio of the probes within
``WINDOW_S`` of it (or, if none is, of the probe on each side), which
gives its seconds at the reference speed.  The speed changes within a
second, so the window is narrow: with a window of a second the scaling
removes less of the noise (README.md, "Noise and the speed scaling").

The handler's own time is taken out of :func:`clock`, and every time the
benchmark measures is read from that clock, so no interval includes a
probe.  The kernel touches no ``qpopf`` code.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np
from scipy.optimize import linprog

PERIOD_S = 0.1            # one probe per 100 ms of wall time
WINDOW_S = 0.05           # probes this close to an interval set its speed
REFERENCE_S = 6.0e-3      # kernel seconds that count as ratio 1

_rng = np.random.default_rng(0x5EED)
_U = _rng.standard_normal((32, 32)) / 32.0
_V = _rng.standard_normal(32)
_A = _rng.standard_normal((96, 96))
_LP_A = _rng.random((40, 30))
_LP_B = _LP_A.sum(axis=1) + 1.0
_LP_C = -_rng.random(30)

_excluded = 0.0           # seconds spent in probes so far
_probe_at: list[float] = []
_probe_ratio: list[float] = []


def clock() -> float:
    """``time.perf_counter`` minus the time spent in probes."""
    while True:
        excluded = _excluded
        t = time.perf_counter()
        if excluded == _excluded:  # no probe ran between the two reads
            return t - excluded


def _kernel() -> None:
    s = 0
    for i in range(3000):
        s += i * i
    v = _V
    for _ in range(100):
        v = np.tanh(_U @ v) * 0.5 + v
    for _ in range(4):
        _A @ _A
    linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0.0, 1.0), method="highs")


def _on_alarm(signum, frame) -> None:
    global _excluded
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    _probe_at.append(t0 - _excluded)
    _probe_ratio.append((t1 - t0) / REFERENCE_S)
    _excluded += time.perf_counter() - t0


@contextlib.contextmanager
def probing():
    """Probe the CPU speed every ``PERIOD_S`` while the block runs."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def probes() -> tuple[np.ndarray, np.ndarray]:
    """(clock time, ratio) of every probe so far."""
    return np.array(_probe_at), np.array(_probe_ratio)


def at_reference(starts, ends) -> np.ndarray:
    """Seconds of each interval ``[start, end]`` of :func:`clock` at the reference speed."""
    starts, ends = np.asarray(starts, float), np.asarray(ends, float)
    at, ratio = probes()
    cum = np.concatenate([[0.0], np.cumsum(ratio)])
    if at.size == 0:
        raise RuntimeError("no speed probe ran; was the interval timed outside probing()?")
    lo = np.searchsorted(at, starts - WINDOW_S)
    hi = np.searchsorted(at, ends + WINDOW_S, side="right")
    none = hi <= lo
    lo[none] = np.maximum(lo[none] - 1, 0)
    hi[none] = np.minimum(hi[none] + 1, at.size)
    return (ends - starts) * (hi - lo) / (cum[hi] - cum[lo])
