"""Exact GHZ fidelity via diagonal mixtures in the GHZ basis.

States generated from noisy Bell states by swapping and fusion stay diagonal
in the GHZ basis, so they are fully described by a weight per basis element.
Basis elements of an n-qubit state are labelled ``(b, k)``: ``b`` is the
phase-error bit (parity of Z errors) and ``k`` packs bit-flip errors on
qubits ``1..n-1`` relative to qubit 0. Flipping every qubit of a GHZ state
is a stabilizer, so a flip pattern and its complement are the same class;
the canonical representative keeps qubit 0 unflipped. The packed index is
``(b << (n-1)) | k`` and index 0 is the target state.

Swap and fusion act as convolutions on these labels:

* swap XORs the two Bell labels;
* fusion of states A and B (joining qubit ``u`` of A with qubit ``v`` of B
  through a CNOT and a Z measurement of ``v``, with the usual classically
  tracked correction) XORs the phase bits, keeps A's flips, and complements
  B's remaining flips exactly when the flip bits of ``u`` and ``v`` differ;
* removing a qubit by an X measurement merges label pairs that differ only
  on the removed qubit.

Every rule is locked against the dense density-matrix oracle in the tests.

What depends only on structure is computed once and cached. Arithmetic on
weights is never cached and runs in a fixed order, so results match the
plain formulations kept in the tests to the last bit:

* the label-index table of a fusion is cached per ``(n1, n2, qubit_a,
  qubit_b)`` and that of a removal per ``(n, qubit)``; ``np.bincount`` sums
  the weights into it in flat index order, starting from zero, exactly as
  ``np.add.at`` over the same table does;
* a swap runs on Python floats, each output weight summed from zero in the
  order of ``for i: for j: out[i ^ j] += a[i] * b[j]``;
* the fusion plan of ``pipeline_fidelity`` (which fragments fuse at which
  qubits, and which qubits are measured out) depends only on the branch
  endpoints, the users and the removal nodes, and is cached on them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .noise import check_werner

_WEIGHT_SUM_TOL = 1e-12
_NEGATIVE_CLAMP = -1e-14


class StateError(ValueError):
    """Raised for malformed diagonal states or invalid reductions."""


def _check_negative(lo: float) -> None:
    """Negative drift down to the clamp threshold is set to zero; more raises."""
    if lo < _NEGATIVE_CLAMP:
        raise StateError(f"negative weight {lo}")


def _check_total(total: float) -> None:
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise StateError(f"weights sum to {total}, not 1")


class GhzDiagonalState:
    """Diagonal mixture over the n-qubit GHZ basis."""

    def __init__(self, n: int, weights: Sequence[float] | np.ndarray):
        if n < 2:
            raise StateError(f"need at least 2 qubits, got {n}")
        w = np.array(weights, dtype=np.float64)
        if w.shape != (2 ** n,):
            raise StateError(f"expected {2 ** n} weights for {n} qubits, got {w.shape}")
        lo = w.min()
        if lo < 0.0:
            _check_negative(lo)
            np.maximum(w, 0.0, out=w)
        _check_total(float(w.sum()))
        self.n = int(n)
        self.weights = w

    def fidelity(self) -> float:
        """Overlap with the target GHZ state: the weight of label 0."""
        return float(self.weights[0])

    def __repr__(self) -> str:
        return f"GhzDiagonalState(n={self.n}, fidelity={self.fidelity():.6g})"


class BellDiagonalState(GhzDiagonalState):
    """Two-qubit special case; weight order (phi+, psi+, phi-, psi-)."""

    def __init__(self, weights: Sequence[float] | np.ndarray):
        super().__init__(2, weights)


def _checked_bell(w: list[float]) -> list[float]:
    """The constructor's checks on four Bell weights held as Python floats."""
    lo = min(w)
    if lo < 0.0:
        _check_negative(lo)
        w = [max(x, 0.0) for x in w]
    _check_total(sum(w))
    return w


def _werner_weights(w: float) -> list[float]:
    w = check_werner(w)
    rest = (1.0 - w) / 4.0
    return _checked_bell([w + rest, rest, rest, rest])


def _swap_weights(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Swap on Python floats: ``out[i ^ j] += a[i] * b[j]`` over ``i`` then
    ``j``, each sum written out in that loop's order, from zero."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return _checked_bell([0.0 + a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,
                          0.0 + a0 * b1 + a1 * b0 + a2 * b3 + a3 * b2,
                          0.0 + a0 * b2 + a1 * b3 + a2 * b0 + a3 * b1,
                          0.0 + a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0])


def werner_state(w: float) -> BellDiagonalState:
    """Bell-diagonal form of a Werner state with parameter ``w``."""
    return BellDiagonalState(_werner_weights(w))


def perfect_ghz(n: int) -> GhzDiagonalState:
    weights = np.zeros(2 ** n)
    weights[0] = 1.0
    return GhzDiagonalState(n, weights)


def maximally_mixed(n: int) -> GhzDiagonalState:
    return GhzDiagonalState(n, np.full(2 ** n, 1.0 / 2 ** n))


def swap(a: GhzDiagonalState, b: GhzDiagonalState) -> BellDiagonalState:
    """Bell-state measurement joining two links into one longer link."""
    if a.n != 2 or b.n != 2:
        raise StateError("swap acts on two-qubit states")
    return BellDiagonalState(_swap_weights(a.weights.tolist(), b.weights.tolist()))


def _flip_bit(k: np.ndarray, qubit: int) -> np.ndarray:
    """Flip bit of ``qubit`` in packed patterns ``k`` (qubit 0 is never flipped)."""
    if qubit == 0:
        return np.zeros_like(k)
    return (k >> (qubit - 1)) & 1


@lru_cache(maxsize=256)
def _fuse_table(n1: int, n2: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Output label of every (label of A, label of B) pair, flattened A-major."""
    ia = np.arange(2 ** n1)
    ib = np.arange(2 ** n2)
    b_a, k_a = ia >> (n1 - 1), ia & ((1 << (n1 - 1)) - 1)
    b_b, k_b = ib >> (n2 - 1), ib & ((1 << (n2 - 1)) - 1)

    # flips of B's kept qubits, repacked LSB-first in kept order
    kept = [q for q in range(n2) if q != qubit_b]
    k_b_kept = np.zeros_like(k_b)
    for pos, q in enumerate(kept):
        k_b_kept |= _flip_bit(k_b, q) << pos

    x = _flip_bit(k_a, qubit_a)[:, None] ^ _flip_bit(k_b, qubit_b)[None, :]
    kept_mask = (1 << (n2 - 1)) - 1
    k_b_out = k_b_kept[None, :] ^ (x * kept_mask)

    n_out = n1 + n2 - 1
    idx = ((b_a[:, None] ^ b_b[None, :]) << (n_out - 1)) \
        | (k_b_out << (n1 - 1)) | k_a[:, None]
    idx = idx.ravel()
    idx.flags.writeable = False
    return idx


def fuse(a: GhzDiagonalState, b: GhzDiagonalState,
         qubit_a: int = 0, qubit_b: int = 0) -> GhzDiagonalState:
    """Fuse two GHZ-class states into one on ``a.n + b.n - 1`` qubits.

    Joins ``qubit_a`` of ``a`` with ``qubit_b`` of ``b``; ``qubit_b`` is
    measured out. Output qubit order: all of ``a``, then ``b`` minus
    ``qubit_b``.
    """
    n1, n2 = a.n, b.n
    if not 0 <= qubit_a < n1 or not 0 <= qubit_b < n2:
        raise StateError("fusion qubit index out of range")
    n_out = n1 + n2 - 1
    out = np.bincount(_fuse_table(n1, n2, qubit_a, qubit_b),
                      np.multiply.outer(a.weights, b.weights).ravel(), 2 ** n_out)
    return GhzDiagonalState(n_out, out)


@lru_cache(maxsize=256)
def _remove_table(n: int, qubit: int) -> np.ndarray:
    """Output label of every label when ``qubit`` is measured out."""
    i = np.arange(2 ** n)
    b, k = i >> (n - 1), i & ((1 << (n - 1)) - 1)
    if qubit == 0:
        # new reference is old qubit 1; complement patterns where it was flipped
        full_mask = (1 << (n - 1)) - 1
        bit0 = k & 1
        k_out = (k ^ (bit0 * full_mask)) >> 1
    else:
        pos = qubit - 1
        low = k & ((1 << pos) - 1)
        k_out = low | ((k >> (pos + 1)) << pos)
    idx = (b << (n - 2)) | k_out
    idx.flags.writeable = False
    return idx


def remove_qubit(g: GhzDiagonalState, qubit: int) -> GhzDiagonalState:
    """Remove one qubit by an X measurement with tracked correction."""
    if g.n < 3:
        raise StateError("cannot remove a qubit from a two-qubit state")
    if not 0 <= qubit < g.n:
        raise StateError(f"qubit {qubit} out of range")
    out = np.bincount(_remove_table(g.n, qubit), g.weights, 2 ** (g.n - 1))
    return GhzDiagonalState(g.n - 1, out)


def _swap_branch(werners: Sequence[float]) -> BellDiagonalState:
    """Reduce a path of links to one Bell state by repeated swapping."""
    state = _werner_weights(werners[0])
    for w in werners[1:]:
        state = _swap_weights(state, _werner_weights(w))
    return BellDiagonalState(state)


@lru_cache(maxsize=64)
def _fusion_plan(ends: tuple[tuple[int, int], ...], users: tuple[int, ...],
                 removal: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """Fuse steps ``(fa, fb, qa, qb)`` and removal qubits for branch endpoints.

    Fragments sharing a node are fused there (nodes processed in ascending
    order); the removal nodes' qubits are then measured out in order.
    """
    # fragment = [node of qubit 0, node of qubit 1, ...]
    fragments = [[node_a, node_b] for node_a, node_b in ends]
    steps = []
    changed = True
    while changed and len(fragments) > 1:
        changed = False
        node_map: dict[int, list[int]] = {}
        for fi, frag in enumerate(fragments):
            for node in frag:
                node_map.setdefault(node, []).append(fi)
        for node in sorted(node_map):
            holders = node_map[node]
            if len(holders) >= 2:
                fa, fb = holders[0], holders[1]
                frag_a, frag_b = fragments[fa], fragments[fb]
                qa = frag_a.index(node)
                qb = frag_b.index(node)
                steps.append((fa, fb, qa, qb))
                fragments[fa] = frag_a + [x for i, x in enumerate(frag_b) if i != qb]
                del fragments[fb]
                changed = True
                break

    if len(fragments) != 1:
        raise StateError("branches do not form a connected structure")
    nodes = fragments[0]
    if sorted(nodes) != sorted(users + removal):
        raise StateError("branch endpoints do not match users plus removal nodes")
    positions = []
    for node in removal:
        q = nodes.index(node)
        positions.append(q)
        nodes.pop(q)
    if sorted(nodes) != list(users):
        raise StateError("leftover qubits after removal do not match the users")
    return tuple(steps), tuple(positions)


def pipeline_fidelity(branches: Sequence[tuple[int, int, Sequence[float]]],
                      users: Sequence[int],
                      removal_nodes: Sequence[int]) -> float:
    """Fidelity of the GHZ state built from a branch decomposition.

    Each branch is ``(node_a, node_b, edge_werner_values)``. Every branch is
    first collapsed to a Bell state by swapping. Fragments sharing a node are
    then fused there (nodes processed in ascending order) and finally the
    qubits held at ``removal_nodes`` are measured out, leaving one qubit per
    user.
    """
    users = sorted(set(users))
    removal = sorted(set(removal_nodes) - set(users))
    if not branches:
        raise StateError("no branches to realize")

    states = []
    for _, _, werners in branches:
        if len(werners) == 0:
            raise StateError("empty branch")
        states.append(_swap_branch(werners))
    steps, positions = _fusion_plan(tuple((a, b) for a, b, _ in branches),
                                    tuple(users), tuple(removal))
    for fa, fb, qa, qb in steps:
        states[fa] = fuse(states[fa], states[fb], qa, qb)
        del states[fb]
    state = states[0]
    for q in positions:
        state = remove_qubit(state, q)
    return state.fidelity()


def tree_ghz_fidelity(edges: Sequence[tuple[int, int]],
                      edge_werner: Mapping[tuple[int, int], float],
                      users: Sequence[int]) -> float:
    """Exact fidelity of the GHZ state distilled from a tree of links.

    ``edges`` must form a tree spanning the users with no non-user leaves;
    ``edge_werner`` holds the Werner parameter of each link at use time.
    """
    from . import routing

    branches, forks = routing.decompose_tree_branches(edges, users)
    return pipeline_fidelity(routing.branch_specs(branches, edge_werner),
                             list(users), forks)
