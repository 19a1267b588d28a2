import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ghznetsim import engine, routing, topology
from ghznetsim.topology import NetworkGraph, TopologyError, make_grid, users_connected


def test_grid_counts_table_defaults():
    g = make_grid(6, 0.1, 0.987)
    assert g.n_nodes == 36
    assert g.n_edges == 60


def test_grid_counts_smallest():
    g = make_grid(2, 0.5, 0.9)
    assert g.n_nodes == 4
    assert g.n_edges == 4


def test_grid_counts_m4():
    g = make_grid(4, 0.5, 0.9)
    assert g.n_nodes == 16
    assert g.n_edges == 24


@pytest.mark.parametrize("m", range(2, 13))
def test_grid_closed_forms(m):
    g = make_grid(m, 0.3, 0.9)
    assert g.n_nodes == m * m
    assert g.n_edges == 2 * m * (m - 1)
    assert users_connected(g.edges, range(g.n_nodes))


def test_grid_rejects_m1():
    with pytest.raises(TopologyError):
        make_grid(1, 0.5, 0.9)


def test_graph_validation():
    with pytest.raises(TopologyError):
        NetworkGraph(3, [(0, 0, 0.5, 0.9)])
    with pytest.raises(TopologyError):
        NetworkGraph(3, [(0, 1, 0.5, 0.9), (1, 0, 0.5, 0.9)])
    with pytest.raises(TopologyError):
        NetworkGraph(3, [(0, 1, 1.5, 0.9)])
    with pytest.raises(TopologyError):
        NetworkGraph(3, [(0, 1, 0.5, -0.1)])
    with pytest.raises(TopologyError):
        NetworkGraph(2, [(0, 5, 0.5, 0.9)])


def test_user_set_validation():
    g = make_grid(3, 0.5, 0.9)

    def config(users):
        return engine.SimConfig(graph=g, protocol="mp-t", delta=0.99, q_c=2,
                                user_sets=(users,))

    for bad in ((4,), (1, 1), (0, 99)):
        with pytest.raises(engine.ConfigError):
            config(bad)
    assert config((3, 1)).user_sets == ((3, 1),)
    with pytest.raises(TopologyError):
        topology.steiner_distance(g, [0, 99])


def test_disconnected_graph():
    with pytest.raises(TopologyError, match="not connected"):
        NetworkGraph(5, [(0, 1, 0.5, 0.9), (1, 2, 0.5, 0.9), (3, 4, 0.5, 0.9)])
    # an isolated node disconnects a graph whose edges are all joined
    with pytest.raises(TopologyError, match="not connected"):
        NetworkGraph(3, [(0, 1, 0.5, 0.9)])
    with pytest.raises(TopologyError, match="not connected"):
        NetworkGraph(2, [])


def test_one_node_graph_is_connected():
    g = NetworkGraph(1, [])
    assert g.n_edges == 0
    assert topology.centroid_node(g, [0]) == 0


def test_users_connected_cases():
    edges = [(0, 1), (1, 2), (3, 4)]
    assert users_connected(edges, [0, 2])
    assert not users_connected(edges, [0, 3])
    assert not users_connected(edges, [0, 5])   # a user no edge touches
    assert not users_connected([], [0, 1])
    # routing calls the same routine, under the name a tracer can wrap
    assert routing.users_connected is users_connected


def union_find_connected(n, edges, users):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    touched = {x for e in edges for x in e}
    return all(u in touched for u in users) and len({find(u) for u in users}) == 1


@st.composite
def edge_sets(draw):
    n = draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    users = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return n, sorted(edges), users


@settings(max_examples=300)
@given(edge_sets())
def test_users_connected_matches_union_find(case):
    n, edges, users = case
    want = union_find_connected(n, edges, users)
    assert users_connected(edges, users) == want


def test_steiner_distance_corners():
    for m in (2, 3, 4, 6):
        g = make_grid(m, 0.5, 0.9)
        corners = [0, m - 1, m * (m - 1), m * m - 1]
        assert topology.steiner_distance(g, corners) == 3 * (m - 1)


def test_steiner_distance_adjacent_pair():
    g = make_grid(3, 0.5, 0.9)
    assert topology.steiner_distance(g, [0, 1]) == 1


def test_steiner_distance_4x4_corners_vs_enumeration():
    from ghznetsim.validation import brute_force_steiner_product

    # exact edge count is recovered from the brute-force max product at
    # uniform edge value v: product = v**n_edges
    g = make_grid(3, 0.5, 0.9)
    users = [0, 2, 6, 8]
    values = {e: 0.5 for e in g.edges}
    best = brute_force_steiner_product(g.edges, values, users)
    import math

    n_edges = round(math.log(best) / math.log(0.5))
    assert topology.steiner_distance(g, users) == n_edges == 6


def test_steiner_distance_permutation_invariant():
    g = make_grid(4, 0.5, 0.9)
    users = (0, 5, 10, 15)
    base = topology.steiner_distance(g, users)
    for perm in itertools.permutations(users):
        assert topology.steiner_distance(g, perm) == base


def test_centroid_3x3_corners_is_center():
    g = make_grid(3, 0.5, 0.9)
    assert topology.centroid_node(g, [0, 2, 6, 8]) == 4


def test_centroid_single_node():
    g = make_grid(3, 0.5, 0.9)
    assert topology.centroid_node(g, [5]) == 5


def test_centroid_adjacent_pair_tie_breaks_low_id():
    g = make_grid(3, 0.5, 0.9)
    assert topology.centroid_node(g, [0, 1]) == 0
    assert topology.centroid_node(g, [1, 0]) == 0


def test_centroid_order_invariant():
    g = make_grid(4, 0.5, 0.9)
    users = (1, 7, 8, 14)
    base = topology.centroid_node(g, users)
    for perm in itertools.permutations(users):
        assert topology.centroid_node(g, perm) == base


def test_centroid_exclude():
    g = make_grid(3, 0.5, 0.9)
    c = topology.centroid_node(g, [0, 2, 6, 8], exclude=[4])
    assert c != 4
