import json
from pathlib import Path

import numpy as np
import pytest

from ghznetsim import dense, noise, statesim
from ghznetsim.statesim import (
    BellDiagonalState,
    GhzDiagonalState,
    StateError,
    fuse,
    maximally_mixed,
    perfect_ghz,
    remove_qubit,
    swap,
    werner_state,
)
from ghznetsim.validation import random_tree_instance


def test_werner_state_weights():
    assert np.allclose(werner_state(1.0).weights, [1, 0, 0, 0])
    assert np.allclose(werner_state(0.0).weights, [0.25] * 4)
    s = werner_state(0.987)
    assert s.weights[0] == pytest.approx(0.99025, abs=1e-6)
    assert np.allclose(s.weights[1:], 0.00325, atol=1e-6)


def test_state_validation():
    with pytest.raises(StateError):
        GhzDiagonalState(2, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(StateError):
        GhzDiagonalState(2, [1.0, 0.0, 0.0])
    with pytest.raises(StateError):
        GhzDiagonalState(2, [1.1, -0.1, 0.0, 0.0])
    # tiny negative drift is clamped
    s = GhzDiagonalState(2, [1.0 + 1e-15, -1e-15, 0.0, 0.0])
    assert s.weights.min() == 0.0


def test_swap_identity_and_absorbing():
    x = BellDiagonalState([0.7, 0.1, 0.15, 0.05])
    assert np.allclose(swap(werner_state(1.0), x).weights, x.weights)
    mixed = swap(werner_state(0.0), x)
    assert np.allclose(mixed.weights, [0.25] * 4)


def test_swap_werner_product_law():
    out = swap(werner_state(0.9), werner_state(0.8))
    assert out.fidelity() == pytest.approx((3 * 0.72 + 1) / 4)
    # stays Werner: non-target weights equal
    assert np.allclose(out.weights[1:], out.weights[1])


def test_swap_fidelity_matches_dense_bsm():
    rng = np.random.default_rng(2)
    for _ in range(25):
        w1, w2 = rng.uniform(0, 1, 2)
        got = swap(werner_state(w1), werner_state(w2)).fidelity()
        rho = dense.swap_dense(dense.werner_dm(w1), dense.werner_dm(w2))
        want = dense.ghz_ket(2) @ rho @ dense.ghz_ket(2)
        assert got == pytest.approx(want, abs=1e-12)


def test_fuse_perfect_inputs():
    out = fuse(werner_state(1.0), werner_state(1.0), 1, 0)
    assert out.n == 3
    assert out.fidelity() == pytest.approx(1.0)


def test_fuse_star_matches_closed_form():
    # fusing four Werner links star-wise equals the closed-form star fidelity
    w = 0.987
    frag = werner_state(w)
    for _ in range(3):
        frag = fuse(frag, werner_state(w), 1, 0)
    frag = remove_qubit(frag, 1)
    want = noise.star_ghz_fidelity([noise.werner_to_fidelity(w)] * 4)
    assert frag.fidelity() == pytest.approx(want, abs=1e-12)


def test_fuse_maximally_mixed():
    out = fuse(maximally_mixed(2), maximally_mixed(2), 1, 0)
    assert out.fidelity() == pytest.approx(1 / 8, abs=1e-12)
    assert np.allclose(out.weights, 1 / 8)


def test_remove_preserves_perfect_state():
    out = remove_qubit(perfect_ghz(4), 2)
    assert out.n == 3
    assert out.fidelity() == pytest.approx(1.0)


def test_remove_maximally_mixed_marginal():
    out = remove_qubit(maximally_mixed(4), 0)
    assert out.fidelity() == pytest.approx(1 / 8, abs=1e-12)


def test_remove_never_decreases_fidelity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        w = rng.dirichlet(np.ones(16))
        state = GhzDiagonalState(4, w)
        for q in range(4):
            assert remove_qubit(state, q).fidelity() >= state.fidelity() - 1e-14
    # and matches the dense X-measurement exactly on pipeline states
    for _ in range(10):
        w1, w2 = rng.uniform(0.3, 1.0, 2)
        diag = fuse(werner_state(w1), werner_state(w2), 1, 0)
        rho = dense.fuse_dense(dense.werner_dm(w1), 2, dense.werner_dm(w2), 2, 1, 0)
        for q in range(3):
            got = remove_qubit(diag, q).fidelity()
            want = dense.ghz_ket(2) @ dense.remove_dense(rho, 3, q) @ dense.ghz_ket(2)
            assert got == pytest.approx(want, abs=1e-12)


def test_remove_requires_three_qubits():
    with pytest.raises(StateError):
        remove_qubit(werner_state(0.9), 0)


def test_normalization_preserved_through_pipeline():
    rng = np.random.default_rng(9)
    frag = werner_state(float(rng.uniform(0.2, 1)))
    for _ in range(4):
        frag = fuse(frag, werner_state(float(rng.uniform(0.2, 1))),
                    int(rng.integers(0, frag.n)), 0)
        assert frag.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert frag.weights.min() >= 0.0
    while frag.n > 2:
        frag = remove_qubit(frag, 0)
        assert frag.weights.sum() == pytest.approx(1.0, abs=1e-12)


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


# ---------------------------------------------------------------------------
# golden outputs: every fidelity bit of the pipeline, recorded as float.hex

GOLDEN = Path(__file__).parent / "data" / "statesim_golden.json"


def _werner_values(rng, count, quantised):
    """Link Werner parameters: engine-style ``0.987 * 0.99**age`` values, or
    uniform draws with an occasional exact 0 or 1."""
    if quantised:
        return [0.987 * 0.99 ** int(rng.integers(0, 21)) for _ in range(count)]
    return [float(rng.choice([0.0, 1.0])) if rng.random() < 0.05
            else float(rng.uniform(0.0, 1.0)) for _ in range(count)]


def _outcome(fn, *args):
    """A call's fidelity as ``float.hex``, or the name of the error it raised."""
    try:
        return float(fn(*args)).hex()
    except (StateError, noise.NoiseError) as exc:
        return type(exc).__name__


def _golden_tree(rng, quantised):
    edges, _, users = random_tree_instance(rng, max_edges=10, max_users=6)
    werner = dict(zip(edges, _werner_values(rng, len(edges), quantised)))
    return _outcome(statesim.tree_ghz_fidelity, edges, werner, users)


def _golden_bell(rng, quantised):
    length = int(rng.integers(1, 8))
    ws = _werner_values(rng, length, quantised)
    a, b = sorted(rng.choice(50, size=2, replace=False).tolist())
    return _outcome(statesim.pipeline_fidelity, [(a, b, ws)], [a, b], [])


def _golden_star(rng, quantised):
    """Branches from a centre to each user; the centre is measured out, and
    sometimes also listed as a removal node that is a user (then kept)."""
    k = int(rng.integers(2, 6))
    nodes = rng.permutation(40)[:k + 1].tolist()
    center, users = nodes[0], nodes[1:]
    branches = [(center, u, _werner_values(rng, int(rng.integers(1, 4)), quantised))
                for u in users]
    if rng.random() < 0.5:
        branches = [(u, center, ws) for center, u, ws in branches]
    order = rng.permutation(k).tolist()
    branches = [branches[i] for i in order]
    return _outcome(statesim.pipeline_fidelity, branches, users, [center])


def _golden_errors():
    """Malformed structures: each must keep its error, or its odd result."""
    w = [0.9]
    cases = {
        "no_branches": ([], [0, 1], []),
        "empty_branch": ([(0, 1, [])], [0, 1], []),
        "disconnected": ([(0, 1, w), (2, 3, w)], [0, 1, 2, 3], []),
        "missing_user": ([(0, 1, w)], [0, 1, 2], []),
        "extra_endpoint": ([(0, 1, w), (1, 2, w)], [0, 2], []),
        "leaf_removal": ([(0, 1, w), (1, 2, w), (1, 3, w)], [0, 2], [1, 3]),
        "bad_werner": ([(0, 1, [0.9, 1.5])], [0, 1], []),
        "bad_werner_first": ([(0, 1, [1.5]), (1, 2, [])], [0, 2], [1]),
        "cycle": ([(0, 1, w), (1, 2, w), (2, 0, w)], [0, 1, 2], []),
        "self_loop": ([(0, 1, w), (1, 1, w)], [0, 1], []),
        # a doubled link fuses a fragment with itself, then the chain 5-6-7
        # is left as the whole structure
        "self_fusion": ([(0, 1, w), (1, 0, [0.8]), (5, 6, w), (6, 7, [0.7])],
                        [5, 7], [6]),
    }
    return {name: _outcome(statesim.pipeline_fidelity, *args)
            for name, args in cases.items()}


def golden_outcomes():
    rng = np.random.default_rng(2024)
    cases = {}
    for i in range(300):
        cases[f"tree{i}"] = _golden_tree(rng, quantised=i % 2 == 1)
    for i in range(100):
        cases[f"bell{i}"] = _golden_bell(rng, quantised=i % 2 == 1)
    for i in range(100):
        cases[f"star{i}"] = _golden_star(rng, quantised=i % 2 == 1)
    cases.update(_golden_errors())
    return cases


def test_golden_fidelities_bit_exact():
    want = json.loads(GOLDEN.read_text())
    got = golden_outcomes()
    assert got.keys() == want.keys()
    wrong = [(case, got[case], want[case]) for case in want if got[case] != want[case]]
    assert not wrong, f"{len(wrong)} outcomes differ from the recorded ones: {wrong[:5]}"
    errors = [case for case, v in want.items() if not v.startswith(("0x", "-0x"))]
    assert len(want) - len(errors) >= 500


if __name__ == "__main__":
    # records the fixture from whichever ghznetsim is importable
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_outcomes(), indent=0, sort_keys=True) + "\n")
