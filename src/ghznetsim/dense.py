"""Brute-force density-matrix oracle for small GHZ distribution pipelines.

Everything here works on explicit density matrices: links are Werner
matrices, swaps are Bell-state measurements, fusion is a CNOT followed by a
Z measurement, removal is an X measurement, and measurement outcomes are
summed with their classically tracked corrections applied. It is deliberately
independent of the diagonal-label simulator so the two can check each other.

Qubit 0 is the most significant bit of the computational-basis index.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .noise import check_werner

MAX_ORACLE_QUBITS = 16


class UnsupportedSizeError(ValueError):
    """Instance too large for the dense oracle."""


def ghz_ket(n: int) -> np.ndarray:
    ket = np.zeros(2 ** n)
    ket[0] = ket[-1] = 1.0 / np.sqrt(2.0)
    return ket


_PHI_P = ghz_ket(2)
_PHI_M = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
_PSI_P = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
_PSI_M = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
# outcome order matches the diagonal-label packing: phi+, psi+, phi-, psi-
_BELL_KETS = (_PHI_P, _PSI_P, _PHI_M, _PSI_M)


def werner_dm(w: float) -> np.ndarray:
    """Two-qubit Werner density matrix with parameter ``w``."""
    w = check_werner(w)
    return w * np.outer(_PHI_P, _PHI_P) + (1.0 - w) / 4.0 * np.eye(4)


def _bit(x: int, qubit: int, n: int) -> int:
    return (x >> (n - 1 - qubit)) & 1


def _indices_with(n: int, fixed: dict[int, int]) -> np.ndarray:
    """Basis indices whose bits match ``fixed`` (qubit -> bit), ascending."""
    out = [x for x in range(2 ** n) if all(_bit(x, q, n) == b for q, b in fixed.items())]
    return np.asarray(out)


def _block(rho: np.ndarray, n: int, row_fix: dict[int, int], col_fix: dict[int, int]) -> np.ndarray:
    """Submatrix with some qubits projected onto computational states and dropped."""
    rows = _indices_with(n, row_fix)
    cols = _indices_with(n, col_fix)
    return rho[np.ix_(rows, cols)]


def apply_x(rho: np.ndarray, qubit: int, n: int) -> np.ndarray:
    perm = np.arange(2 ** n) ^ (1 << (n - 1 - qubit))
    return rho[np.ix_(perm, perm)]


def apply_z(rho: np.ndarray, qubit: int, n: int) -> np.ndarray:
    signs = 1.0 - 2.0 * ((np.arange(2 ** n) >> (n - 1 - qubit)) & 1)
    return rho * np.outer(signs, signs)


def apply_cnot(rho: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    x = np.arange(2 ** n)
    ctrl = (x >> (n - 1 - control)) & 1
    perm = x ^ (ctrl << (n - 1 - target))
    return rho[np.ix_(perm, perm)]


def measure_bell(rho: np.ndarray, q1: int, q2: int, n: int) -> list[np.ndarray]:
    """Unnormalized post-measurement states for the four Bell outcomes on (q1, q2).

    The measured qubits are traced out; remaining qubits keep relative order.
    """
    outcomes = []
    for ket in _BELL_KETS:
        m = np.zeros((2 ** (n - 2), 2 ** (n - 2)))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        coeff = ket[2 * a + b] * ket[2 * c + d]
                        if coeff != 0.0:
                            m += coeff * _block(rho, n, {q1: a, q2: b}, {q1: c, q2: d})
        outcomes.append(m)
    return outcomes


def measure_x(rho: np.ndarray, qubit: int, n: int) -> list[np.ndarray]:
    """Unnormalized reduced states for X-measurement outcomes (+, -)."""
    b00 = _block(rho, n, {qubit: 0}, {qubit: 0})
    b01 = _block(rho, n, {qubit: 0}, {qubit: 1})
    b10 = _block(rho, n, {qubit: 1}, {qubit: 0})
    b11 = _block(rho, n, {qubit: 1}, {qubit: 1})
    plus = 0.5 * (b00 + b01 + b10 + b11)
    minus = 0.5 * (b00 - b01 - b10 + b11)
    return [plus, minus]


def measure_z(rho: np.ndarray, qubit: int, n: int) -> list[np.ndarray]:
    """Unnormalized reduced states for Z-measurement outcomes (0, 1)."""
    return [_block(rho, n, {qubit: 0}, {qubit: 0}),
            _block(rho, n, {qubit: 1}, {qubit: 1})]


# Correction applied to the surviving far-end qubit for each Bell outcome,
# chosen so that swapping two perfect links yields a perfect link.
_SWAP_CORRECTIONS = ("I", "X", "Z", "XZ")


def _apply_named(rho: np.ndarray, name: str, qubit: int, n: int) -> np.ndarray:
    for gate in name:
        if gate == "X":
            rho = apply_x(rho, qubit, n)
        elif gate == "Z":
            rho = apply_z(rho, qubit, n)
        elif gate != "I":
            raise ValueError(f"unknown correction {name}")
    return rho


def swap_dense(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Entanglement swap of links (a, b) and (b, c), output on (a, c)."""
    rho = np.kron(rho1, rho2)
    out = np.zeros((4, 4))
    for branch, name in zip(measure_bell(rho, 1, 2, 4), _SWAP_CORRECTIONS):
        out += _apply_named(branch, name, 1, 2)
    return out


def fuse_dense(rho_a: np.ndarray, n_a: int, rho_b: np.ndarray, n_b: int,
               qubit_a: int, qubit_b: int) -> np.ndarray:
    """Fusion joining ``qubit_a`` of A and ``qubit_b`` of B; B's qubit is measured.

    Output qubit order: all of A, then B minus ``qubit_b``.
    """
    n = n_a + n_b
    rho = np.kron(rho_a, rho_b)
    target = n_a + qubit_b
    rho = apply_cnot(rho, qubit_a, target, n)
    m0, m1 = measure_z(rho, target, n)
    # a "1" outcome flips every surviving B qubit
    for q in range(n_a, n - 1):
        m1 = apply_x(m1, q, n - 1)
    return m0 + m1


def remove_dense(rho: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """X-basis removal of one qubit; "-" outcome gets a Z correction."""
    plus, minus = measure_x(rho, qubit, n)
    return plus + apply_z(minus, 0, n - 1)


def pipeline_fidelity(branches: Sequence[tuple[int, int, Sequence[float]]],
                      users: Sequence[int],
                      removal_nodes: Sequence[int]) -> float:
    """Dense mirror of the diagonal pipeline: swap, fuse, remove, project."""
    users = sorted(set(users))
    removal = sorted(set(removal_nodes) - set(users))
    total_qubits = 2 * sum(len(b[2]) for b in branches)
    if total_qubits > MAX_ORACLE_QUBITS:
        raise UnsupportedSizeError(
            f"{total_qubits} qubits exceeds the dense oracle limit of {MAX_ORACLE_QUBITS}")

    fragments: list[tuple[np.ndarray, list[int]]] = []
    for node_a, node_b, werners in branches:
        rho = werner_dm(werners[0])
        for w in werners[1:]:
            rho = swap_dense(rho, werner_dm(w))
        fragments.append((rho, [node_a, node_b]))

    changed = True
    while changed and len(fragments) > 1:
        changed = False
        node_map: dict[int, list[int]] = {}
        for fi, (_, nodes) in enumerate(fragments):
            for node in nodes:
                node_map.setdefault(node, []).append(fi)
        for node in sorted(node_map):
            holders = node_map[node]
            if len(holders) >= 2:
                fa, fb = holders[0], holders[1]
                rho_a, nodes_a = fragments[fa]
                rho_b, nodes_b = fragments[fb]
                qa, qb = nodes_a.index(node), nodes_b.index(node)
                rho = fuse_dense(rho_a, len(nodes_a), rho_b, len(nodes_b), qa, qb)
                nodes = nodes_a + [x for i, x in enumerate(nodes_b) if i != qb]
                fragments[fa] = (rho, nodes)
                del fragments[fb]
                changed = True
                break

    if len(fragments) != 1:
        raise ValueError("branches do not form a connected structure")
    rho, nodes = fragments[0]
    for node in removal:
        q = nodes.index(node)
        rho = remove_dense(rho, len(nodes), q)
        nodes.pop(q)
    if sorted(nodes) != users:
        raise ValueError("leftover qubits do not match the users")
    target = ghz_ket(len(nodes))
    return float(target @ rho @ target)


def dense_oracle_fidelity(edges: Sequence[tuple[int, int]],
                          edge_werner: Mapping[tuple[int, int], float],
                          users: Sequence[int]) -> float:
    """Same contract as the diagonal tree fidelity, via explicit matrices."""
    from . import routing

    if 2 * len(edges) > MAX_ORACLE_QUBITS:
        raise UnsupportedSizeError(
            f"{2 * len(edges)} qubits exceeds the dense oracle limit of {MAX_ORACLE_QUBITS}")
    branches, forks = routing.decompose_tree_branches(edges, users)
    return pipeline_fidelity(routing.branch_specs(branches, edge_werner),
                             list(users), forks)
