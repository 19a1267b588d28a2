"""Reference GHZ fidelity from explicit density matrices: the independent
oracle that the closed form ``noise.werner_tree_fidelity`` is checked against.

Everything here works on explicit density matrices: links are Werner
matrices, swaps are Bell-state measurements, fusion is a CNOT followed by a
Z measurement, removal is an X measurement, and measurement outcomes are
summed with their classically tracked corrections applied. Nothing is
assumed about the form of the intermediate states.

Qubit 0 is the most significant bit of the computational-basis index.
Matrices grow as ``4**n``, so the largest one a pipeline builds (four
qubits for a swap, b + 2 for the last fusion of b branches) is limited to
``MAX_ORACLE_QUBITS`` qubits: a chain of any length or a tree of 8 branches.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import routing
from .noise import check_werner

MAX_ORACLE_QUBITS = 10


class StateError(ValueError):
    """Raised for malformed branch structures or invalid reductions."""


class UnsupportedSizeError(ValueError):
    """Instance too large for the dense oracle."""


def ghz_ket(n: int) -> np.ndarray:
    ket = np.zeros(2 ** n)
    ket[0] = ket[-1] = 1.0 / np.sqrt(2.0)
    return ket


def ghz_fidelity(rho: np.ndarray) -> float:
    """Overlap with the GHZ state: half the sum of the four corner entries."""
    return 0.5 * float(rho[0, 0] + rho[0, -1] + rho[-1, 0] + rho[-1, -1])


# Bell kets times sqrt(2), in outcome order phi+, psi+, phi-, psi-; with
# integer entries every projector 0.5 * outer(s, s) is exact in floats
_BELL_SIGNS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]],
                       dtype=np.float64)


def werner_dm(w: float) -> np.ndarray:
    """Two-qubit Werner density matrix with parameter ``w``."""
    w = check_werner(w)
    phi = _BELL_SIGNS[0]
    return w * 0.5 * np.outer(phi, phi) + (1.0 - w) / 4.0 * np.eye(4)


def _block(rho: np.ndarray, n: int, row_fix: dict[int, int], col_fix: dict[int, int]) -> np.ndarray:
    """Submatrix with some qubits projected onto computational states and dropped."""
    rows = tuple(row_fix.get(q, slice(None)) for q in range(n))
    cols = tuple(col_fix.get(q, slice(None)) for q in range(n))
    m = 2 ** (n - len(row_fix))
    return rho.reshape((2,) * (2 * n))[rows + cols].reshape(m, m)


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
    for signs in _BELL_SIGNS:
        m = np.zeros((2 ** (n - 2), 2 ** (n - 2)))
        for a, b, c, d in itertools.product((0, 1), repeat=4):
            coeff = 0.5 * signs[2 * a + b] * signs[2 * c + d]
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


def swap_dense(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Entanglement swap of links (a, b) and (b, c), output on (a, c).

    Each Bell outcome gets the correction on c (I, X, Z, then X and Z) that
    makes swapping two perfect links yield a perfect link.
    """
    phi_p, psi_p, phi_m, psi_m = measure_bell(np.kron(rho1, rho2), 1, 2, 4)
    return (phi_p + apply_x(psi_p, 1, 2) + apply_z(phi_m, 1, 2)
            + apply_z(apply_x(psi_m, 1, 2), 1, 2))


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
    if n < 3:
        raise StateError("cannot remove a qubit from a two-qubit state")
    plus, minus = measure_x(rho, qubit, n)
    return plus + apply_z(minus, 0, n - 1)


def branch_specs(branches: Iterable[Sequence[int]], edge_werner: Mapping[tuple[int, int], float]
                 ) -> list[tuple[int, int, list[float]]]:
    """``(end, end, Werner values along the path)`` per branch node path, the
    input of ``pipeline_fidelity``; ``edge_werner`` may key an edge either way."""
    return [(path[0], path[-1],
             [edge_werner[(u, v) if (u, v) in edge_werner else (v, u)]
              for u, v in zip(path, path[1:])])
            for path in branches]


def pipeline_fidelity(branches: Sequence[tuple[int, int, Sequence[float]]],
                      users: Sequence[int],
                      removal_nodes: Sequence[int]) -> float:
    """Fidelity of the GHZ state built from a branch decomposition.

    Each branch is ``(node_a, node_b, edge_werner_values)``. Every branch is
    first collapsed to a Bell pair by swapping. Fragments sharing a node are
    then fused there (nodes processed in ascending order) and finally the
    qubits held at ``removal_nodes`` are measured out, leaving one qubit per
    user, which is projected onto the GHZ state.
    """
    users = sorted(set(users))
    removal = sorted(set(removal_nodes) - set(users))
    if not branches:
        raise StateError("no branches to realize")
    if any(len(werners) == 0 for _, _, werners in branches):
        raise StateError("empty branch")
    largest = max(4, len(branches) + 2)
    if largest > MAX_ORACLE_QUBITS:
        raise UnsupportedSizeError(
            f"{largest} qubits exceeds the dense oracle limit of {MAX_ORACLE_QUBITS}")

    fragments: list[tuple[np.ndarray, list[int]]] = []
    for node_a, node_b, werners in branches:
        rho = werner_dm(werners[0])
        for w in werners[1:]:
            rho = swap_dense(rho, werner_dm(w))
        fragments.append((rho, [node_a, node_b]))

    while len(fragments) > 1:
        node_map: dict[int, list[int]] = {}
        for fi, (_, nodes) in enumerate(fragments):
            # a fragment holding a node twice closed a cycle; never fuse it
            # with itself
            for node in set(nodes):
                node_map.setdefault(node, []).append(fi)
        shared = [node for node in sorted(node_map) if len(node_map[node]) >= 2]
        if not shared:
            break
        node = shared[0]
        fa, fb = node_map[node][:2]
        rho_a, nodes_a = fragments[fa]
        rho_b, nodes_b = fragments[fb]
        qa, qb = nodes_a.index(node), nodes_b.index(node)
        rho = fuse_dense(rho_a, len(nodes_a), rho_b, len(nodes_b), qa, qb)
        fragments[fa] = (rho, nodes_a + [x for i, x in enumerate(nodes_b) if i != qb])
        del fragments[fb]

    if len(fragments) != 1:
        raise StateError("branches do not form a connected structure")
    rho, nodes = fragments[0]
    if sorted(nodes) != sorted(users + removal):
        raise StateError("branch endpoints do not match users plus removal nodes")
    for node in removal:
        q = nodes.index(node)
        rho = remove_dense(rho, len(nodes), q)
        nodes.pop(q)
    return ghz_fidelity(rho)


def tree_ghz_fidelity(edges: Sequence[tuple[int, int]],
                      edge_werner: Mapping[tuple[int, int], float],
                      users: Sequence[int]) -> float:
    """Exact fidelity of the GHZ state distilled from a tree of links.

    ``edges`` must form a tree spanning the users with no non-user leaves;
    ``edge_werner`` holds the Werner parameter of each link at use time.
    """
    branches, forks = routing.decompose_tree_branches(edges, users)
    return pipeline_fidelity(branch_specs(branches, edge_werner), list(users), forks)
