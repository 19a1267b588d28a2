import itertools
import random

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


def round_pruned(edges, keep):
    # reference: drop every edge with a non-keep degree-1 end, round by round
    edges = set(edges)
    while True:
        degree = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        drop = {e for e in edges if any(degree[x] == 1 and x not in keep for x in e)}
        if not drop:
            return edges
        edges -= drop


@settings(max_examples=300)
@given(edge_sets())
def test_peel_leaves_matches_round_pruning(case):
    n, edges, keep = case
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    removed = topology.peel_leaves(adj, set(keep))
    assert {e for e in edges if removed.isdisjoint(e)} == round_pruned(edges, set(keep))


def live_born(g, live):
    # with expired = 0, edge i is live exactly when born[i] = 1
    return [1 if e in live else 0 for e in g.edges]


def test_live_core_peels_hanging_trees_and_other_components():
    g = make_grid(4, 0.5, 0.9)
    # users 0 and 3 joined along the top row; a tree hangs off node 1 and
    # another off node 2, and edge (10, 11) is a separate component
    live = {(0, 1), (1, 2), (2, 3), (1, 5), (5, 9), (5, 6), (2, 6), (6, 7),
            (10, 11)}
    born = live_born(g, live)
    core = topology.live_core(g, born, 0, (0, 3))
    # the cycle 1-2-6-5 stays; 9 and 7 hang off it and go
    assert [g.edges[i] for i in core] == sorted({(0, 1), (1, 2), (2, 3), (1, 5),
                                                 (5, 6), (2, 6)})
    # a kept node is never peeled, even at degree 1
    core = topology.live_core(g, born, 0, (0, 3, 7))
    assert (6, 7) in {g.edges[i] for i in core}
    assert topology.live_core(g, born, 0, (0, 10)) is None
    assert topology.live_core(g, born, 0, (0, 15)) is None   # a node no live edge touches


def test_live_core_routes_like_all_live_edges():
    # routing on the core returns the very route it returns on every live
    # edge, and the core exists exactly when the kept nodes are connected
    rng = random.Random(27)
    counts = {"tree": 0, "star": 0, "none": 0, "peeled": 0}
    for case in range(600):
        m = rng.randint(3, 6)
        g = make_grid(m, 0.5, 0.9)
        survive = rng.uniform(0.3, 0.9)
        live = [e for e in g.edges if rng.random() < survive]
        born = live_born(g, set(live))
        if case % 3 == 0:     # tie-heavy: one value everywhere
            pool = [rng.choice([0.9, 1.0])]
        else:                 # a few values, some exactly 1.0 and some 0
            pool = [0.0, 0.5, 0.8, 0.8, 1.0, 1.0]
        werner = {e: rng.choice(pool) for e in live}
        kind = "tree" if case % 2 else "star"
        if kind == "tree":
            users = sorted(rng.sample(range(g.n_nodes), rng.randint(2, min(7, m + 2))))
            center = None
        else:
            users = sorted(rng.sample(range(g.n_nodes), rng.randint(2, 4)))
            # prefer a centre with a live link per user, so stars exist
            degree = {v: sum(v in e for e in live) for v in range(g.n_nodes)}
            rest = [v for v in range(g.n_nodes) if v not in users]
            center = rng.choice([v for v in rest if degree[v] >= len(users)] or rest)
        keep = users if center is None else users + [center]
        core = topology.live_core(g, born, 0, keep)
        assert (core is None) == (not users_connected(live, keep))
        want = routing.select_multipath(live, werner, users, kind, center=center)
        if core is None:
            assert want is None
            counts["none"] += 1
            continue
        core_edges = [g.edges[i] for i in core]
        assert core_edges == sorted(core_edges) and set(core_edges) <= set(live)
        got = routing.select_multipath(core_edges, werner, users, kind, center=center)
        assert got == want      # the same branches and centre, or both None
        if got is not None:
            counts[kind] += 1
            counts["peeled"] += len(core_edges) < len(live)
    assert min(counts.values()) > 50
