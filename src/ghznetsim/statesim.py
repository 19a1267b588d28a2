"""Exact GHZ fidelity via diagonal mixtures in the GHZ basis: the reference
that the closed form ``noise.werner_tree_fidelity`` is checked against.

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
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .noise import check_werner

_WEIGHT_SUM_TOL = 1e-12
_NEGATIVE_CLAMP = -1e-14


class StateError(ValueError):
    """Raised for malformed diagonal states or invalid reductions."""


class GhzDiagonalState:
    """Diagonal mixture over the n-qubit GHZ basis."""

    def __init__(self, n: int, weights: Sequence[float] | np.ndarray):
        if n < 2:
            raise StateError(f"need at least 2 qubits, got {n}")
        w = np.asarray(weights, dtype=np.float64).copy()
        if w.shape != (2 ** n,):
            raise StateError(f"expected {2 ** n} weights for {n} qubits, got {w.shape}")
        if w.min() < _NEGATIVE_CLAMP:
            raise StateError(f"negative weight {w.min()}")
        np.clip(w, 0.0, None, out=w)
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise StateError(f"weights sum to {total}, not 1")
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


def werner_state(w: float) -> BellDiagonalState:
    """Bell-diagonal form of a Werner state with parameter ``w``."""
    w = check_werner(w)
    rest = (1.0 - w) / 4.0
    return BellDiagonalState([w + rest, rest, rest, rest])


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
    out = np.zeros(4)
    for i in range(4):
        for j in range(4):
            out[i ^ j] += a.weights[i] * b.weights[j]
    return BellDiagonalState(out)


def _flip_bit(k: np.ndarray, qubit: int) -> np.ndarray:
    """Flip bit of ``qubit`` in packed patterns ``k`` (qubit 0 is never flipped)."""
    if qubit == 0:
        return np.zeros_like(k)
    return (k >> (qubit - 1)) & 1


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
    out = np.zeros(2 ** n_out)
    np.add.at(out, idx, a.weights[:, None] * b.weights[None, :])
    return GhzDiagonalState(n_out, out)


def remove_qubit(g: GhzDiagonalState, qubit: int) -> GhzDiagonalState:
    """Remove one qubit by an X measurement with tracked correction."""
    if g.n < 3:
        raise StateError("cannot remove a qubit from a two-qubit state")
    if not 0 <= qubit < g.n:
        raise StateError(f"qubit {qubit} out of range")
    n = g.n
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
    out = np.zeros(2 ** (n - 1))
    np.add.at(out, idx, g.weights)
    return GhzDiagonalState(n - 1, out)


def _swap_branch(werners: Sequence[float]) -> BellDiagonalState:
    """Reduce a path of links to one Bell state by repeated swapping."""
    state = werner_state(werners[0])
    for w in werners[1:]:
        state = swap(state, werner_state(w))
    return state


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

    # fragment = [state, node of qubit 0, node of qubit 1, ...]
    fragments: list[list] = []
    for node_a, node_b, werners in branches:
        if len(werners) == 0:
            raise StateError("empty branch")
        fragments.append([_swap_branch(list(werners)), node_a, node_b])

    changed = True
    while changed and len(fragments) > 1:
        changed = False
        node_map: dict[int, list[int]] = {}
        for fi, frag in enumerate(fragments):
            for node in frag[1:]:
                node_map.setdefault(node, []).append(fi)
        for node in sorted(node_map):
            holders = node_map[node]
            if len(holders) >= 2:
                fa, fb = holders[0], holders[1]
                frag_a, frag_b = fragments[fa], fragments[fb]
                qa = frag_a[1:].index(node)
                qb = frag_b[1:].index(node)
                fused = fuse(frag_a[0], frag_b[0], qa, qb)
                nodes = frag_a[1:] + [x for i, x in enumerate(frag_b[1:]) if i != qb]
                fragments[fa] = [fused] + nodes
                del fragments[fb]
                changed = True
                break

    if len(fragments) != 1:
        raise StateError("branches do not form a connected structure")
    state, nodes = fragments[0][0], fragments[0][1:]
    if sorted(nodes) != sorted(users + removal):
        raise StateError("branch endpoints do not match users plus removal nodes")
    for node in removal:
        q = nodes.index(node)
        state = remove_qubit(state, q)
        nodes.pop(q)
    if sorted(nodes) != users:
        raise StateError("leftover qubits after removal do not match the users")
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
