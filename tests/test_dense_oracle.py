import numpy as np
import pytest

from ghznetsim import statesim
from ghznetsim.statesim import UnsupportedSizeError


def test_perfect_inputs_give_unit_fidelity():
    edges = [(0, 1), (1, 2), (1, 3)]
    werner = {e: 1.0 for e in edges}
    assert statesim.tree_ghz_fidelity(edges, werner, [0, 2, 3]) == pytest.approx(1.0)


def test_maximally_mixed_four_users():
    edges = [(4, 0), (4, 1), (4, 2), (4, 3)]
    werner = {e: 0.0 for e in edges}
    got = statesim.tree_ghz_fidelity(edges, werner, [0, 1, 2, 3])
    assert got == pytest.approx(1 / 16, abs=1e-12)


def test_size_guard():
    # the last fusion of 9 branches would build an 11-qubit matrix
    star = [(0, u) for u in range(1, 10)]
    with pytest.raises(UnsupportedSizeError):
        statesim.tree_ghz_fidelity(star, {e: 0.9 for e in star}, range(1, 10))
    # a chain only ever builds the 4-qubit matrices of its swaps
    chain = [(i, i + 1) for i in range(9)]
    got = statesim.tree_ghz_fidelity(chain, {e: 0.9 for e in chain}, [0, 9])
    assert got == pytest.approx((3 * 0.9 ** 9 + 1) / 4, abs=1e-15)


def test_trace_preservation():
    rho = np.kron(statesim.werner_dm(0.8), statesim.werner_dm(0.6))
    out = sum(statesim.measure_bell(rho, 1, 2, 4))
    assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
    plus, minus = statesim.measure_x(statesim.werner_dm(0.8), 0, 2)
    assert np.trace(plus) + np.trace(minus) == pytest.approx(1.0, abs=1e-12)


def test_gate_helpers():
    rho = np.outer(statesim.ghz_ket(2), statesim.ghz_ket(2))
    # X on both qubits maps the Bell state to itself
    out = statesim.apply_x(statesim.apply_x(rho, 0, 2), 1, 2)
    assert np.allclose(out, rho)
    # Z on one qubit maps it to the orthogonal phi-minus state
    out = statesim.apply_z(rho, 0, 2)
    assert statesim.ghz_ket(2) @ out @ statesim.ghz_ket(2) == pytest.approx(0.0, abs=1e-12)
