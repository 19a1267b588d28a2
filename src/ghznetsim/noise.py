"""Closed-form Werner-parameter algebra for entanglement links.

Werner states here are mixtures of the target Bell state (weight ``w``) and
the two-qubit maximally mixed state, so ``w`` is restricted to [0, 1] and the
Bell fidelity is ``F = (3w + 1) / 4``. Swapping a chain of links multiplies
their Werner parameters; storage for ``tau`` timeslots scales ``w`` by
``delta**tau``.
"""

from __future__ import annotations

import math
from typing import Sequence


class NoiseError(ValueError):
    """Raised for out-of-range noise parameters."""


def check_werner(w: float) -> float:
    if not 0.0 <= w <= 1.0:
        raise NoiseError(f"Werner parameter {w} outside [0, 1]")
    return float(w)


def check_fidelity(f: float) -> float:
    if not 0.0 <= f <= 1.0:
        raise NoiseError(f"fidelity {f} outside [0, 1]")
    return float(f)


def werner_to_fidelity(w: float) -> float:
    """Bell fidelity of a Werner state, F = (3w + 1) / 4."""
    return (3.0 * check_werner(w) + 1.0) / 4.0


def star_ghz_fidelity(branch_fidelities: Sequence[float]) -> float:
    """Closed-form GHZ fidelity when fusing one Bell state per branch of a star.

    Valid for three or more branches; the two-user case is a plain Bell state
    and is handled by the state simulator instead.
    """
    fs = [check_fidelity(f) for f in branch_fidelities]
    if len(fs) < 3:
        raise NoiseError("star fusion formula needs at least 3 branches")
    t1 = math.prod([(4.0 * f - 1.0) / 3.0 for f in fs])
    t2 = math.prod([2.0 * (1.0 - f) / 3.0 for f in fs])
    t3 = math.prod([(1.0 + 2.0 * f) / 3.0 for f in fs])
    return 0.5 * (t1 + t2 + t3)


def percolation_min_rounds(p: float, p_c: float) -> int:
    """Smallest k with 1 - (1 - p)**k >= p_c: rounds of link building needed
    before the live-edge density can cross the bond-percolation threshold."""
    if not 0.0 < p < 1.0:
        raise NoiseError(f"generation probability {p} outside (0, 1)")
    if not 0.0 < p_c < 1.0:
        raise NoiseError(f"percolation threshold {p_c} outside (0, 1)")
    k = max(1, math.ceil(math.log1p(-p_c) / math.log1p(-p) - 1e-12))
    # ceil() on floats can land one off; fix against the defining inequality
    while 1.0 - (1.0 - p) ** k < p_c:
        k += 1
    while k > 1 and 1.0 - (1.0 - p) ** (k - 1) >= p_c:
        k -= 1
    return k
