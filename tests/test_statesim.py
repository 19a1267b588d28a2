import numpy as np
import pytest

from ghznetsim import noise, statesim
from ghznetsim.statesim import (
    StateError,
    fuse_dense,
    ghz_ket,
    remove_dense,
    swap_dense,
    werner_dm,
)
from ghznetsim.validation import random_tree_instance

# Bell basis in the oracle's outcome order: phi+, psi+, phi-, psi-
BELL = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]]) / np.sqrt(2.0)


def bell_weights(rho):
    return np.array([k @ rho @ k for k in BELL])


def bell_diagonal(weights):
    return sum(w * np.outer(k, k) for w, k in zip(weights, BELL))


def fidelity(rho, n):
    return float(ghz_ket(n) @ rho @ ghz_ket(n))


def test_werner_state_weights():
    assert np.allclose(bell_weights(werner_dm(1.0)), [1, 0, 0, 0])
    assert np.allclose(bell_weights(werner_dm(0.0)), [0.25] * 4)
    weights = bell_weights(werner_dm(0.987))
    assert weights[0] == pytest.approx(0.99025, abs=1e-6)
    assert np.allclose(weights[1:], 0.00325, atol=1e-6)
    assert np.allclose(werner_dm(0.987), bell_diagonal(weights))


MALFORMED = [
    ([], [0, 1], []),                                            # no branches
    ([(0, 1, [])], [0, 1], []),                                  # empty branch
    ([(0, 1, [0.9]), (2, 3, [0.9])], [0, 1, 2, 3], []),          # disconnected
    ([(0, 1, [0.9])], [0, 1, 2], []),                            # missing user
    ([(0, 1, [0.9]), (1, 2, [0.9])], [0, 2], []),                # fork not removed
    ([(0, 1, [0.9])], [0, 1], [5]),                              # stray removal node
    ([(0, 1, [0.9]), (1, 2, [0.9]), (2, 0, [0.9])], [0, 1, 2], []),   # cycle
    ([(0, 1, [0.9]), (1, 1, [0.9])], [0, 1], []),                # self-loop
    ([(0, 1, [0.9]), (1, 0, [0.8])], [0, 1], []),                # doubled branch
    ([(0, 1, [0.9])], [0], [1]),                                 # one user
]


def test_state_validation():
    for branches, users, removal in MALFORMED:
        with pytest.raises(StateError):
            statesim.pipeline_fidelity(branches, users, removal)
    with pytest.raises(noise.NoiseError):
        statesim.pipeline_fidelity([(0, 1, [0.9, 1.5])], [0, 1], [])


def test_swap_identity_and_absorbing():
    x = bell_diagonal([0.7, 0.1, 0.15, 0.05])
    assert np.allclose(swap_dense(werner_dm(1.0), x), x)
    assert np.allclose(swap_dense(werner_dm(0.0), x), np.eye(4) / 4)


def test_swap_werner_product_law():
    # a swapped pair of Werner links is the Werner state of the product
    assert fidelity(swap_dense(werner_dm(0.9), werner_dm(0.8)), 2) == \
        pytest.approx((3 * 0.72 + 1) / 4)
    rng = np.random.default_rng(2)
    for _ in range(25):
        w1, w2 = rng.uniform(0, 1, 2)
        assert np.allclose(swap_dense(werner_dm(w1), werner_dm(w2)),
                           werner_dm(w1 * w2), atol=1e-12)


@pytest.mark.parametrize("length", range(1, 9))
def test_swap_chain_collapses_to_the_werner_product(length):
    ws = [float(w) for w in np.random.default_rng(length).uniform(0.0, 1.0, length)]
    got = statesim.pipeline_fidelity([(0, length, ws)], [0, length], [])
    assert got == pytest.approx(noise.werner_to_fidelity(np.prod(ws)), abs=1e-12)


def test_fuse_perfect_inputs():
    out = fuse_dense(werner_dm(1.0), 2, werner_dm(1.0), 2, 1, 0)
    assert out.shape == (8, 8)
    assert fidelity(out, 3) == pytest.approx(1.0)


def test_fuse_star_matches_closed_form():
    # fusing four Werner links star-wise equals the closed-form star fidelity
    w = 0.987
    frag, n = werner_dm(w), 2
    for _ in range(3):
        frag, n = fuse_dense(frag, n, werner_dm(w), 2, 1, 0), n + 1
    frag = remove_dense(frag, n, 1)
    want = noise.star_ghz_fidelity([noise.werner_to_fidelity(w)] * 4)
    assert fidelity(frag, 4) == pytest.approx(want, abs=1e-12)


def test_fuse_maximally_mixed():
    out = fuse_dense(werner_dm(0.0), 2, werner_dm(0.0), 2, 1, 0)
    assert fidelity(out, 3) == pytest.approx(1 / 8, abs=1e-12)
    assert np.allclose(out, np.eye(8) / 8)


def test_remove_preserves_perfect_state():
    ghz = np.outer(ghz_ket(4), ghz_ket(4))
    assert fidelity(remove_dense(ghz, 4, 2), 3) == pytest.approx(1.0)


def test_remove_maximally_mixed_marginal():
    out = remove_dense(np.eye(16) / 16, 4, 0)
    assert fidelity(out, 3) == pytest.approx(1 / 8, abs=1e-12)


def test_remove_never_decreases_fidelity():
    # holds for any state, not only GHZ-diagonal ones: the n-qubit GHZ overlap
    # is at most the sum of the two corrected X outcomes' (n-1)-qubit overlaps
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = (a @ a.conj().T).real
        rho /= np.trace(rho)
        for q in range(4):
            assert fidelity(remove_dense(rho, 4, q), 3) >= fidelity(rho, 4) - 1e-14


def test_remove_requires_three_qubits():
    with pytest.raises(StateError):
        remove_dense(werner_dm(0.9), 2, 0)


def test_normalization_preserved_through_pipeline():
    rng = np.random.default_rng(9)
    frag, n = werner_dm(float(rng.uniform(0.2, 1))), 2
    for _ in range(4):
        frag = fuse_dense(frag, n, werner_dm(float(rng.uniform(0.2, 1))), 2,
                          int(rng.integers(0, n)), 0)
        n += 1
        assert np.trace(frag) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(frag).min() >= -1e-12
    while n > 2:
        frag = remove_dense(frag, n, 0)
        n -= 1
        assert np.trace(frag) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(frag).min() >= -1e-12


def test_two_user_path_closed_form():
    w1, w2 = 0.91, 0.83
    got = statesim.tree_ghz_fidelity([(0, 1), (1, 2)], {(0, 1): w1, (1, 2): w2}, [0, 2])
    assert got == pytest.approx((3 * w1 * w2 + 1) / 4, abs=1e-12)


def test_tree_fidelity_star_equivalence():
    rng = np.random.default_rng(11)
    for k in (3, 4):
        edges = [(0, j + 1) for j in range(k)]
        ws = rng.uniform(0.4, 1.0, k)
        werner = {e: float(w) for e, w in zip(edges, ws)}
        got = statesim.tree_ghz_fidelity(edges, werner, list(range(1, k + 1)))
        want = noise.star_ghz_fidelity([noise.werner_to_fidelity(w) for w in ws])
        assert got == pytest.approx(want, abs=1e-12)


def test_tree_fidelity_relabel_invariant():
    rng = np.random.default_rng(13)
    edges, werner, users = random_tree_instance(rng)
    base = statesim.tree_ghz_fidelity(edges, werner, users)
    # relabel nodes with an arbitrary permutation
    nodes = sorted({n for e in edges for n in e})
    perm = {n: m for n, m in zip(nodes, rng.permutation(len(nodes)).tolist())}
    edges2 = [(perm[u], perm[v]) for u, v in edges]
    werner2 = {(perm[u], perm[v]): w for (u, v), w in werner.items()}
    users2 = [perm[u] for u in users]
    assert statesim.tree_ghz_fidelity(edges2, werner2, users2) == pytest.approx(base, abs=1e-12)


def test_tree_fidelity_rejects_non_tree():
    werner = {(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.9}
    with pytest.raises(Exception):
        statesim.tree_ghz_fidelity(list(werner), werner, [0, 2])


def test_tree_lower_bound_chain():
    rng = np.random.default_rng(17)
    for _ in range(50):
        edges, werner, users = random_tree_instance(rng)
        exact = statesim.tree_ghz_fidelity(edges, werner, users)
        w_r = float(np.prod(list(werner.values())))
        assert exact >= w_r - 1e-12
