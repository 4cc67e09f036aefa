"""Calibrated time: wall time rescaled by the machine's speed at that moment.

On a shared host the speed of a core drifts by up to a factor of two within
seconds, as other tenants come and go, and CPU time drifts with it. A timed
worker therefore runs a small fixed piece of work, the *probe*, every
``INTERVAL_S`` seconds from a timer signal, and records when each probe ran
and how long it took. Afterwards, ``CalibratedClock`` maps a
``time.monotonic()`` reading to calibrated seconds:

- time spent inside probes is left out;
- the time between two probes is scaled by ``REFERENCE_PROBE_S`` over the
  probes' cost there (a running median of ``SMOOTH`` probe costs), so it
  reads as the time the same work takes when a probe costs exactly
  ``REFERENCE_PROBE_S``.

A change that makes the program faster shortens its calibrated times in the
same proportion as its wall times; only the host's speed is divided out.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.02
SMOOTH = 5
# The scale of calibrated time: a round figure near a probe's cost on a 2-vCPU
# x86_64 host (Python 3.11, numpy 2.4), where it ranged 0.5-0.9 ms. It is a
# constant, so calibrated times of different runs and commits compare.
REFERENCE_PROBE_S = 0.001

_N = 48
_TABLE = (np.arange(_N)[:, None] * 7 + np.arange(_N)[None, :]) % _N
_GENERATORS = (6, 8, 9, 15, 20)


def probe_work() -> int:
    """Fixed work resembling the program's hot loops: numpy closures, frozensets, dicts."""
    acc = 0
    for g in _GENERATORS:
        member = np.zeros(_N, dtype=bool)
        member[0] = True
        frontier = np.array([0], dtype=np.int32)
        gens = np.array([0, g], dtype=np.int32)
        while frontier.size:
            prods = np.unique(_TABLE[np.ix_(frontier, gens)])
            new = prods[~member[prods]]
            member[new] = True
            frontier = new
        members = frozenset(np.nonzero(member)[0].tolist())
        seen = {x: len(members & frozenset(range(x, x + g))) for x in members}
        acc += sum(seen.values())
    return acc


class SpeedProbe:
    """Runs ``probe_work`` on a timer signal and records each run."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.busy = False

    def probe(self) -> None:
        if self.busy:  # a signal arrived during a probe
            return
        self.busy = True
        start = time.monotonic()
        probe_work()
        self.starts.append(start)
        self.ends.append(time.monotonic())
        self.busy = False

    def _on_timer(self, signum, frame) -> None:
        self.probe()

    def start(self) -> None:
        probe_work()  # warm up numpy's code paths; not recorded
        self.probe()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def clock(self, since: float, calibrate: bool = True) -> "CalibratedClock":
        return CalibratedClock(self, since, calibrate)


class CalibratedClock:
    """Calibrated seconds elapsed since ``since`` at a ``time.monotonic()`` reading.

    Readings must fall between ``since`` and the last probe; the work before
    the first probe is scaled by the first probe's cost. With ``calibrate``
    false the clock reads plain wall time with the probes left out.
    """

    def __init__(self, probes: SpeedProbe, since: float, calibrate: bool = True):
        starts = np.asarray(probes.starts)
        ends = np.asarray(probes.ends)
        costs = ends - starts
        half = SMOOTH // 2
        padded = np.pad(costs, half, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        gap_start = np.concatenate(([since], ends[:-1]))
        gap_cost = np.concatenate((smooth[:1], (smooth[:-1] + smooth[1:]) / 2))
        gaps = np.maximum(starts - gap_start, 0.0)
        if calibrate:
            gaps *= REFERENCE_PROBE_S / gap_cost
        level = np.concatenate(([0.0], np.cumsum(gaps)))
        # Knots: since, then each probe's start and end; flat across a probe.
        self.x = np.concatenate(([since], np.column_stack((starts, ends)).ravel()))
        self.y = np.concatenate(([0.0], np.repeat(level[1:], 2)))
        self.probes = len(costs)
        self.median_cost = float(np.median(costs))

    def __call__(self, t: float) -> float:
        return float(np.interp(t, self.x, self.y))

    def span(self, t0: float, t1: float) -> float:
        return self(t1) - self(t0)
