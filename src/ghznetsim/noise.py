"""Closed-form Werner-parameter algebra for entanglement links.

Werner states here are mixtures of the target Bell state (weight ``w``) and
the two-qubit maximally mixed state, so ``w`` is restricted to [0, 1] and the
Bell fidelity is ``F = (3w + 1) / 4``. Swapping a chain of links multiplies
their Werner parameters; storage for ``tau`` timeslots scales ``w`` by
``delta**tau``.

Equivalently, a link with parameter ``w`` is the perfect Bell state hit by
one Pauli error on one end: I with probability ``(1 + 3w) / 4`` and each of
X, Y and Z with ``(1 - w) / 4``. X and Y flip a qubit, Z and Y add a phase.
Fusing Bell states into a GHZ state and measuring qubits out in the X basis
carries these errors through: the result is the target GHZ state exactly when
the phase errors have even parity and every user ends up with the same flip,
which is what ``werner_tree_fidelity`` computes.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence


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

    Valid for three or more branches; the two-user case is a plain Bell state,
    which ``werner_tree_fidelity`` covers with every other tree.
    """
    fs = [check_fidelity(f) for f in branch_fidelities]
    if len(fs) < 3:
        raise NoiseError("star fusion formula needs at least 3 branches")
    t1 = math.prod([(4.0 * f - 1.0) / 3.0 for f in fs])
    t2 = math.prod([2.0 * (1.0 - f) / 3.0 for f in fs])
    t3 = math.prod([(1.0 + 2.0 * f) / 3.0 for f in fs])
    return 0.5 * (t1 + t2 + t3)


class FusionOrder(NamedTuple):
    """The pass ``fuse_werner_tree`` makes over a tree of branches: a user
    flag per node in traversal order from the root user (position 0), and
    ``(node, parent, branch)`` positions from the leaves up."""

    is_user: tuple[bool, ...]
    steps: tuple[tuple[int, int, int], ...]


def fusion_order(branches: Sequence[Sequence[int]], users: Sequence[int]) -> FusionOrder:
    """The fusion pass over ``branches``, each a node path or just its two
    ends; it depends only on the tree's shape and the users, never on the
    Werner values."""
    users = set(users)
    adj: dict[int, list[tuple[int, int]]] = {}
    for k, path in enumerate(branches):
        a, b = path[0], path[-1]
        adj.setdefault(a, []).append((b, k))
        adj.setdefault(b, []).append((a, k))
    if len(users) < 2 or not users <= adj.keys():
        raise NoiseError(f"branches do not reach every user of {sorted(users)}")
    root = min(users)
    pos = {root: 0}
    order = [root]
    steps = []
    for j, v in enumerate(order):
        for x, k in adj[v]:
            if x not in pos:
                pos[x] = len(order)
                steps.append((len(order), j, k))
                order.append(x)
    if len(order) != len(adj) or len(branches) != len(adj) - 1:
        raise NoiseError("branches do not form a tree")
    steps.reverse()
    return FusionOrder(tuple([v in users for v in order]), tuple(steps))


def fuse_werner_tree(order: FusionOrder, ws: Sequence[float]) -> float:
    """Fidelity of the GHZ state fused along ``order`` from branch Werner
    values ``ws`` (indexed like the branches ``order`` was built from).

    Each node keeps the probabilities of (the flip shared by the users below
    it, relative to itself; the phase parity below it). A user allows only
    flip 0; a non-user node allows both.
    """
    # per node: P(flip 0, even phase), P(0, odd), P(1, even), P(1, odd)
    table = [(1.0, 0.0, 0.0, 0.0) if u else (1.0, 0.0, 1.0, 0.0) for u in order.is_user]
    for v, up, k in order.steps:
        # the branch to the parent keeps the outcome with probability w and
        # otherwise spreads it evenly over all four (I, X, Z and Y errors)
        w = ws[k]
        x0, x1, x2, x3 = table[v]
        # added left to right: the built-in sum rounds differently from 3.12
        rest = (1.0 - w) / 4.0 * (x0 + x1 + x2 + x3)
        c0, c1, c2, c3 = w * x0 + rest, w * x1 + rest, w * x2 + rest, w * x3 + rest
        p0, p1, p2, p3 = table[up]
        table[up] = (p0 * c0 + p1 * c1, p0 * c1 + p1 * c0,
                     p2 * c2 + p3 * c3, p2 * c3 + p3 * c2)
    return table[0][0]


def werner_tree_fidelity(branches: Sequence[tuple[int, int, float]],
                         users: Sequence[int]) -> float:
    """Exact fidelity of the GHZ state fused from a tree of Werner branches.

    Each branch ``(end_a, end_b, w)`` is a Bell state with Werner parameter
    ``w`` (the product over the links swapped into it). Branches sharing a
    node are fused there, and every end that is not a user (a fork, a star
    centre, a dangling node) is measured out. One pass from a root user,
    ``fusion_order``, evaluated by ``fuse_werner_tree``.
    """
    ws = [check_werner(w) for _, _, w in branches]
    return fuse_werner_tree(fusion_order([(a, b) for a, b, _ in branches], users), ws)


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
