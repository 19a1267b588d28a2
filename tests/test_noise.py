import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghznetsim import noise, protocols, routing, statesim, topology
from ghznetsim.engine import ConfigError, LinkState, SimConfig
from ghznetsim.noise import NoiseError
from ghznetsim.topology import NetworkGraph


def test_werner_to_fidelity():
    assert noise.werner_to_fidelity(1.0) == 1.0
    assert noise.werner_to_fidelity(0.0) == 0.25
    assert noise.werner_to_fidelity(0.987) == pytest.approx(0.99, abs=1e-3)


def test_werner_range_enforced():
    with pytest.raises(NoiseError):
        noise.werner_to_fidelity(1.1)
    with pytest.raises(NoiseError):
        noise.werner_to_fidelity(-0.2)


def path_links(w0s, ages):
    """A path graph 0-1-...-n with one live link per edge at the given ages."""
    g = NetworkGraph(len(w0s) + 1, [(i, i + 1, 0.5, w) for i, w in enumerate(w0s)])
    links = LinkState(g, q_c=100)
    links.born[:] = [links.t - a for a in ages]
    return links


def realize_path(w0s, ages, delta):
    """Realize the GHZ (Bell) state between the ends of a fully live path."""
    links = path_links(w0s, ages)
    g = links.graph
    route = routing.exact_steiner_tree(g.edges, {e: 0.5 for e in g.edges},
                                       [0, g.n_nodes - 1])
    plan = protocols.plan_realisation(route, g, [0, g.n_nodes - 1])
    return protocols.realize_ghz(plan, links, delta)


def link_werner(w0, delta, age):
    """Werner parameter of one link of the given age when it is used."""
    return realize_path([w0], [age], delta).werner_product


def test_link_werner_decays_with_age():
    assert link_werner(0.9, 0.99, 0) == 0.9
    assert link_werner(0.987, 0.99, 2) == pytest.approx(0.96736, abs=1e-5)
    assert link_werner(0.7, 1.0, 57) == 0.7


def test_link_werner_monotone_in_age():
    values = [link_werner(0.9, 0.97, age) for age in range(20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def chain_fidelity(ws):
    """Bell fidelity after swapping a chain of links with Werner values ws."""
    return statesim.pipeline_fidelity([(0, len(ws), ws)], [0, len(ws)], [])


def test_swap_chain():
    assert chain_fidelity([1.0, 1.0, 1.0]) == 1.0
    assert chain_fidelity([0.9, 0.8]) == pytest.approx(noise.werner_to_fidelity(0.72))
    assert chain_fidelity([0.37]) == pytest.approx(noise.werner_to_fidelity(0.37))
    with pytest.raises(statesim.StateError):
        chain_fidelity([])


def test_swap_chain_permutation_invariant():
    rng = np.random.default_rng(4)
    ws = list(rng.uniform(0, 1, 6))
    base = chain_fidelity(ws)
    for _ in range(10):
        rng.shuffle(ws)
        assert chain_fidelity(ws) == pytest.approx(base, rel=1e-12)


def test_route_werner_product():
    assert realize_path([1.0] * 7, [0] * 7, 0.99).werner_product == 1.0
    assert realize_path([0.987] * 5, [0] * 5, 0.99).werner_product == \
        pytest.approx(0.9367, abs=1e-4)
    assert realize_path([0.9, 0.0, 0.8], [0] * 3, 0.99).werner_product == 0.0
    # a long route keeps its product accurate
    assert realize_path([0.987] * 40, [0] * 40, 1.0).werner_product == \
        pytest.approx(0.987 ** 40, rel=1e-10)


def test_star_ghz_fidelity_values():
    assert noise.star_ghz_fidelity([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert noise.star_ghz_fidelity([1.0] * 5) == pytest.approx(1.0)
    assert noise.star_ghz_fidelity([0.25] * 4) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert noise.star_ghz_fidelity([0.99025] * 3) == pytest.approx(0.97107, abs=1e-5)


def test_star_ghz_fidelity_needs_three_branches():
    with pytest.raises(NoiseError):
        noise.star_ghz_fidelity([0.9, 0.9])


def test_bound_ordering_random():
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(3, 7))
        fbs = rng.uniform(0.25, 1.0, k)
        star = noise.star_ghz_fidelity(list(fbs))
        prod_fb = math.prod(fbs)
        w_r = math.prod((4 * f - 1) / 3 for f in fbs)
        assert star >= prod_fb - 1e-12
        assert prod_fb >= w_r - 1e-12


def test_products_monotone_under_elementwise_decrease():
    rng = np.random.default_rng(8)
    for _ in range(50):
        ws = rng.uniform(0.1, 1.0, 5)
        base = chain_fidelity(list(ws))
        ws2 = ws.copy()
        ws2[int(rng.integers(0, 5))] *= 0.9
        assert chain_fidelity(list(ws2)) <= base


def test_ghz_fidelity_floor():
    assert realize_path([0.9], [0], 0.99).fidelity_floor == pytest.approx(0.9)
    assert realize_path([0.987] * 5, [0, 1, 2, 3, 4], 0.99).fidelity_floor == \
        pytest.approx(0.8471, abs=1e-3)
    assert realize_path([0.9] * 7, [3, 4, 3, 4, 3, 4, 3], 1.0).fidelity_floor == \
        pytest.approx(0.9 ** 7)


# ---------------------------------------------------------------------------
# the closed-form tree fidelity against the dense density-matrix pipeline

@st.composite
def werner_trees(draw):
    """``(branches, users)``, each branch a chain of link Werner values.

    Random trees take any two or more nodes as users, so users may be
    interior and non-users may be forks or dangling leaves; stars have a
    non-user centre; a Bell chain is one branch of up to 6 links.
    """
    shape = draw(st.sampled_from(("tree", "star", "bell")))
    if shape == "tree":
        n = draw(st.integers(2, 8))
        ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        users = draw(st.lists(st.sampled_from(range(n)), min_size=2, unique=True))
    elif shape == "star":
        n = draw(st.integers(3, 7))
        ends = [(0, v) for v in range(1, n)]
        users = list(range(1, n))
    else:
        n, ends, users = 2, [(0, 1)], [0, 1]
    label = draw(st.permutations(range(n)))
    links = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6 if shape == "bell" else 3)
    branches = [(label[a], label[b], draw(links)) for a, b in ends]
    return branches, [label[u] for u in users]


def closed_and_dense(branches, users):
    """The closed form and the dense pipeline on ``(a, b, ws)`` branches: the
    closed form takes each branch's Werner product, the oracle swaps every
    link of the branch."""
    nodes = {x for a, b, _ in branches for x in (a, b)}
    want = statesim.pipeline_fidelity(branches, users, sorted(nodes - set(users)))
    got = noise.werner_tree_fidelity([(a, b, math.prod(ws)) for a, b, ws in branches],
                                     users)
    return got, want


@settings(max_examples=300, deadline=None)
@given(werner_trees())
def test_werner_tree_fidelity_matches_pipeline(tree):
    branches, users = tree
    got, want = closed_and_dense(branches, users)
    assert abs(got - want) <= 1e-12


def routed_structures():
    """Exact Steiner trees and stars that multipath routing picks on seeded
    6x6 live snapshots for 4 and 5 users, with engine-style link ages. A
    grid node has at most 4 links, so only 4-user stars exist."""
    g = topology.make_grid(6, 0.5, 0.987)
    for seed in range(30):
        rng = np.random.default_rng([seed, 6])
        live = [e for e in g.edges if rng.random() < 0.7]
        werner = {e: 0.987 * 0.99 ** int(rng.integers(0, 20)) for e in live}
        for k in (4, 5):
            users = sorted(rng.choice(36, size=k, replace=False).tolist())
            degree = {x: sum(x in e for e in live) for x in range(36) if x not in users}
            center = max(degree, key=lambda x: (degree[x], -x))
            for kind in ("tree", "star"):
                sol = routing.select_multipath(live, werner, users, kind, center)
                if sol is not None:
                    yield sol, werner, users


def test_routed_structures_match_the_oracle():
    kinds = []
    for sol, werner, users in routed_structures():
        got, want = closed_and_dense(statesim.branch_specs(sol.branches, werner), users)
        assert abs(got - want) <= 1e-12, (sol, users)
        degree = Counter(x for e in sol.edges for x in e)
        kind = "tree" if sol.center is None else "star"
        kinds.append((kind, len(users), max(degree.values()) >= 3))
    # every kind and size that exists, including trees with interior forks
    assert {(kind, k) for kind, k, _ in kinds} == {("tree", 4), ("tree", 5), ("star", 4)}
    assert any(forked for kind, _, forked in kinds if kind == "tree")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=7), st.integers(0, 99))
def test_werner_tree_fidelity_matches_star_formula(ws, center):
    users = [center + 1 + i for i in range(len(ws))]
    got = noise.werner_tree_fidelity([(center, u, w) for u, w in zip(users, ws)], users)
    want = noise.star_ghz_fidelity([noise.werner_to_fidelity(w) for w in ws])
    assert got == pytest.approx(want, abs=1e-12)


def test_werner_tree_fidelity_bell_and_extremes():
    assert noise.werner_tree_fidelity([(3, 7, 0.72)], [7, 3]) == \
        noise.werner_to_fidelity(0.72)
    perfect = [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)]
    assert noise.werner_tree_fidelity(perfect, [0, 2, 4]) == 1.0
    # fully mixed branches into three users leave the maximally mixed state
    mixed = [(9, 0, 0.0), (9, 1, 0.0), (9, 2, 0.0)]
    assert noise.werner_tree_fidelity(mixed, [0, 1, 2]) == pytest.approx(1 / 8)


def test_fusion_adds_a_node_left_to_right():
    # exactly rounded per-node sums, as the built-in sum gives from Python
    # 3.12, end in ...955p-3
    ws = [float.fromhex(h) for h in
          ("0x1.229e2b11a1696p-2", "0x1.408f9e2edb9acp-2", "0x1.8ca0c709c35bep-1")]
    order = noise.fusion_order([(1, 0, 2), (1, 3), (1, 4)], [2, 3, 4])
    assert noise.fuse_werner_tree(order, ws).hex() == "0x1.d395f40101956p-3"


@pytest.mark.parametrize("branches, users", [
    ([(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9)], [0, 1, 2]),                # cycle
    ([(0, 1, 0.9), (2, 3, 0.9)], [0, 1, 2, 3]),                           # forest
    ([(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9), (3, 4, 0.9)], [0, 3]),       # forest, |B| = |V| - 1
    ([(0, 1, 0.9), (1, 1, 0.9)], [0, 1]),                                 # self-loop
    ([(0, 1, 0.9), (0, 1, 0.8)], [0, 1]),                                 # doubled branch
    ([(0, 1, 0.9)], [0, 1, 2]),                                           # missing user
    ([(0, 1, 0.9)], [0]),                                                 # one user
    ([], [0, 1]),                                                         # no branches
    ([(0, 1, 1.5)], [0, 1]),                                              # w > 1
    ([(0, 1, 0.9), (1, 2, -0.1)], [0, 2]),                                # w < 0
])
def test_werner_tree_fidelity_rejects_malformed_input(branches, users):
    with pytest.raises(NoiseError):
        noise.werner_tree_fidelity(branches, users)


def test_percolation_min_rounds():
    assert noise.percolation_min_rounds(0.5, 0.5) == 1
    assert noise.percolation_min_rounds(0.3, 0.5) == 2
    assert noise.percolation_min_rounds(0.1, 0.5) == 7


def test_percolation_minimality_scan():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.99))
        p_c = float(rng.uniform(0.01, 0.99))
        k = noise.percolation_min_rounds(p, p_c)
        assert 1.0 - (1.0 - p) ** k >= p_c
        if k > 1:
            assert 1.0 - (1.0 - p) ** (k - 1) < p_c


def test_percolation_rejects_degenerate_p():
    with pytest.raises(NoiseError):
        noise.percolation_min_rounds(0.0, 0.5)
    with pytest.raises(NoiseError):
        noise.percolation_min_rounds(1.0, 0.5)


def test_delta_outside_unit_interval_rejected():
    g = NetworkGraph(2, [(0, 1, 0.5, 0.9)])
    for delta in (0.0, 1.2):
        with pytest.raises(ConfigError):
            SimConfig(graph=g, protocol="sp-t", delta=delta, q_c=1, user_sets=((0, 1),))
