"""A fixed probe of the machine's speed, run beside the timed sweeps.

The development machine is a shared 2-vCPU virtual machine whose speed drifts
by up to a quarter over phases of seconds to minutes, so raw wall times of the
same code differ more between runs than the benchmark's bounds allow. An
untimed slice of this probe therefore runs before every cell (one protocol and
cutoff on one user set) of a repetition, and the run scales the repetition's
wall time by ``SLICE_NOMINAL_S`` over the mean slice time: it reports seconds
of a machine on which one slice takes ``SLICE_NOMINAL_S``.

The probe's work never changes and calls no code of the program. It is the
kind of work the sweep loop does (small numpy updates of an edge-age array,
one uniform per free edge, a little pure-Python dict and tuple work), so a
slower or faster phase of the machine shows in it as in the sweep.
"""

from __future__ import annotations

import time

import numpy as np

SLICE_ITERATIONS = 1200
# the median time of one slice on the development machine (Intel Xeon, 2 vCPU,
# Python 3.11, numpy 2.4); a constant, so scaled times of two commits compare
SLICE_NOMINAL_S = 0.02


def _slice(iterations: int) -> int:
    rng = np.random.Generator(np.random.PCG64(12345))
    ages = np.full(60, -1, dtype=np.int64)
    total = 0
    for i in range(iterations):
        ages += ages >= 0
        ages[ages >= 8] = -1
        free = np.nonzero(ages < 0)[0]
        if free.size:
            hits = rng.random(free.size) < 0.1
            ages[free[hits]] = 0
        seen = {}
        for edge in range(12):
            seen[(edge, i % 5)] = edge * i % 7
        total += sum(seen.values()) + int(free.size)
    return total



def probe() -> float:
    """Wall time of one slice of fixed work."""
    t0 = time.perf_counter()
    _slice(SLICE_ITERATIONS)
    return time.perf_counter() - t0


class PerCell:
    """Runs one probe slice before each ``engine.run_experiment`` call.

    The program looks ``run_experiment`` up through the engine module, so
    setting the module attribute reaches every cell of a sweep, as the
    tracer's wrappers do. Disabled, it changes nothing.
    """

    def __init__(self, engine, enabled: bool = True):
        self.engine, self.enabled = engine, enabled
        self.slices, self.seconds = 0, 0.0

    def __enter__(self) -> "PerCell":
        if self.enabled:
            original = self.original = self.engine.run_experiment

            def run_experiment(*args, **kwargs):
                self.seconds += probe()
                self.slices += 1
                return original(*args, **kwargs)

            self.engine.run_experiment = run_experiment
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            self.engine.run_experiment = self.original

    @property
    def speed(self) -> float:
        """Machine speed relative to the nominal machine (1.0: as fast)."""
        return SLICE_NOMINAL_S * self.slices / self.seconds if self.slices else 1.0
