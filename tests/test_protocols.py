import math

import numpy as np
import pytest

from ghznetsim import engine, noise, protocols, routing, topology
from ghznetsim.engine import LinkState
from ghznetsim.protocols import Protocol


def place(links, *edges, age=0):
    for e in edges:
        links.born[links.graph.edge_index[e]] = links.t - age


def test_initialize_sp_t_plans_min_steiner():
    g = topology.make_grid(6, 0.1, 0.987)
    users = (0, 7, 22, 35)
    state = protocols.initialize("sp-t", g, users)
    assert state.plan is not None
    assert state.plan.route.size == topology.steiner_distance(g, users)
    assert len(state.tracked) == state.plan.route.size


def test_initialize_mp_t_tracks_all_edges():
    g = topology.make_grid(6, 0.1, 0.987)
    state = protocols.initialize("mp-t", g, (0, 7, 22, 35))
    assert state.plan is None
    assert [i for i, _ in state.tracked] == list(range(g.n_edges))


def test_initialize_mp_s_center_is_centroid():
    g = topology.make_grid(6, 0.1, 0.987)
    users = (0, 5, 30, 35)
    state = protocols.initialize("mp-s", g, users)
    assert state.center == topology.centroid_node(g, users, exclude=users)


def test_initialize_mp_s_center_never_a_user():
    g = topology.make_grid(3, 0.5, 0.9)
    # the centroid of these users is a user; the centre must move off it
    users = (1, 3, 5)
    state = protocols.initialize("mp-s", g, users)
    assert state.center not in users
    assert len(g.adj[state.center]) >= len(users)


def test_initialize_mp_s_skips_low_degree_centroids():
    g = topology.make_grid(6, 0.1, 0.987)
    # users hug the left boundary; the raw centroid is a degree-3 edge node
    users = (0, 7, 12, 19)
    state = protocols.initialize("mp-s", g, users)
    assert len(g.adj[state.center]) >= 4


def test_initialize_mp_s_no_viable_center():
    g = topology.make_grid(3, 0.5, 0.9)
    # the only degree-4 node of a 3x3 grid is a user, so no centre can host
    # four disjoint branches
    with pytest.raises(routing.NoRouteError):
        protocols.initialize("mp-s", g, (1, 3, 4, 5))


def test_sp_completion_requires_every_planned_edge():
    g = topology.make_grid(3, 0.5, 0.9)
    users = (0, 2)
    state = protocols.initialize("sp-t", g, users)
    links = LinkState(g, q_c=10)
    planned = list(state.plan.route.edges)
    place(links, *planned[:-1])
    assert protocols.try_complete(state, links, 0.99) is None
    # an alternative live detour does not help a single-path protocol
    place(links, (3, 6), (6, 7))
    assert protocols.try_complete(state, links, 0.99) is None
    place(links, planned[-1])
    assert protocols.try_complete(state, links, 0.99) is state.plan


def test_mp_t_finds_detour():
    g = topology.make_grid(3, 0.5, 0.9)
    state = protocols.initialize("mp-t", g, (0, 2))
    links = LinkState(g, q_c=10)
    # only a roundabout route exists in the link-state graph
    place(links, (0, 3), (3, 4), (4, 5), (2, 5))
    plan = protocols.try_complete(state, links, 0.99)
    assert plan is not None
    assert sorted(plan.route.edges) == [(0, 3), (2, 5), (3, 4), (4, 5)]


def test_mp_solutions_only_use_live_edges():
    g = topology.make_grid(4, 0.3, 0.95)
    state = protocols.initialize("mp-t", g, (0, 3, 12))
    rng = np.random.default_rng(0)
    for _ in range(200):
        links = LinkState(g, q_c=5)
        idx = rng.choice(g.n_edges, size=18, replace=False)
        for i in idx:
            links.born[i] = links.t - int(rng.integers(0, 5))
        plan = protocols.try_complete(state, links, 0.99)
        if plan is not None:
            ages = links.t - np.asarray(links.born)
            live = {g.edges[i] for i in np.nonzero(ages < links.q_c)[0]}
            assert set(plan.route.edges) <= live


def test_mp_t_beats_mp_s_on_same_snapshot():
    g = topology.make_grid(4, 0.3, 0.95)
    users = (0, 3, 12, 15)
    t_state = protocols.initialize("mp-t", g, users)
    s_state = protocols.initialize("mp-s", g, users)
    rng = np.random.default_rng(1)
    compared = 0
    for _ in range(300):
        links = LinkState(g, q_c=4)
        idx = rng.choice(g.n_edges, size=21, replace=False)
        for i in idx:
            links.born[i] = links.t - int(rng.integers(0, 4))
        t_plan = protocols.try_complete(t_state, links, 0.99)
        s_plan = protocols.try_complete(s_state, links, 0.99)
        if t_plan is None or s_plan is None:
            continue
        compared += 1
        w = {e: w0 * 0.99 ** (links.t - b)
             for e, w0, b in zip(g.edges, g.w0, links.born)}
        w_t = math.prod(w[e] for e in t_plan.route.edges)
        w_s = math.prod(w[e] for e in s_plan.route.edges)
        assert w_t >= w_s - 1e-12
    assert compared > 10


@pytest.mark.parametrize("protocol", ["mp-t", "mp-s"])
def test_routing_ranks_the_values_that_are_realised(monkeypatch, protocol):
    # one rule for a link's Werner value, w0 * delta ** age in Python floats:
    # the map routing ranks holds exactly the values the GHZ state is built from
    g = topology.make_grid(4, 0.5, 0.987)
    users = (0, 3, 12, 15)
    state = protocols.initialize(protocol, g, users)
    links = LinkState(g, q_c=6)
    links.t = 10
    for i in range(g.n_edges):
        links.born[i] = links.t - (1 + i % 4)       # ages 1 to 4
    seen = []
    select = routing.select_multipath

    def capture(live_edges, werner, *args, **kwargs):
        seen.append(dict(werner))
        return select(live_edges, werner, *args, **kwargs)

    monkeypatch.setattr(routing, "select_multipath", capture)
    plan = protocols.try_complete(state, links, 0.99)
    (werner,) = seen
    assert sorted(werner) == sorted(g.edges)
    for e, w in werner.items():
        i = g.edge_index[e]
        assert w.hex() == (g.w0[i] * 0.99 ** (links.t - links.born[i])).hex()
    realized = protocols.realize_ghz(plan, links, 0.99)
    assert realized.werner_product.hex() == \
        math.prod(werner[e] for e in plan.route.edges).hex()


def test_realize_perfect_links():
    g = topology.make_grid(3, 0.5, 1.0)
    users = (0, 2, 6, 8)
    state = protocols.initialize("sp-t", g, users)
    links = LinkState(g, q_c=3)
    place(links, *state.plan.route.edges)
    realized = protocols.realize_ghz(state.plan, links, 1.0)
    assert realized.fidelity == pytest.approx(1.0)
    assert realized.mean_age == 0.0
    assert realized.r_size == state.plan.route.size


def test_realize_star_matches_closed_form():
    g = topology.make_grid(3, 0.5, 0.9)
    users = (1, 3, 5, 7)
    sol = routing.star_route(g.edges, {e: 0.5 for e in g.edges}, users, 4)
    links = LinkState(g, q_c=5)
    ages = {e: a for e, a in zip(sol.edges, (0, 1, 2, 3))}
    for e, a in ages.items():
        place(links, e, age=a)
    delta = 0.97
    realized = protocols.realize_ghz(protocols.plan_realisation(sol, g, users), links, delta)
    fbs = [noise.werner_to_fidelity(0.9 * delta ** ages[e]) for e in sol.edges]
    assert realized.fidelity == pytest.approx(noise.star_ghz_fidelity(fbs), abs=1e-12)
    assert realized.mean_age == pytest.approx(np.mean(list(ages.values())))


def test_realize_respects_bounds():
    g = topology.make_grid(4, 0.4, 0.92)
    users = (0, 3, 12, 15)
    state = protocols.initialize("mp-t", g, users)
    rng = np.random.default_rng(3)
    seen = 0
    for _ in range(200):
        links = LinkState(g, q_c=6)
        idx = rng.choice(g.n_edges, size=20, replace=False)
        for i in idx:
            links.born[i] = links.t - int(rng.integers(0, 6))
        plan = protocols.try_complete(state, links, 0.98)
        if plan is None:
            continue
        seen += 1
        r = protocols.realize_ghz(plan, links, 0.98)
        assert r.fidelity >= r.branch_fidelity_product - 1e-12
        assert r.branch_fidelity_product >= r.werner_product - 1e-12
        assert r.fidelity >= r.fidelity_floor - 1e-12
    assert seen > 20


def test_realize_missing_link_is_an_error():
    g = topology.make_grid(3, 0.5, 0.9)
    users = (0, 2)
    state = protocols.initialize("sp-t", g, users)
    links = LinkState(g, q_c=3)
    with pytest.raises(RuntimeError):
        protocols.realize_ghz(state.plan, links, 0.99)


def test_two_user_realize_swap_chain():
    g = topology.make_grid(3, 0.5, 0.9)
    users = (0, 8)
    state = protocols.initialize("sp-t", g, users)
    links = LinkState(g, q_c=2)
    place(links, *state.plan.route.edges)
    realized = protocols.realize_ghz(state.plan, links, 0.99)
    want = noise.werner_to_fidelity(0.9 ** state.plan.route.size)
    assert realized.fidelity == pytest.approx(want, abs=1e-12)


def test_protocol_enum_round_trip():
    for name in ("sp-s", "sp-t", "mp-s", "mp-t"):
        kind = Protocol(name)
        assert kind.value == name
    assert Protocol("mp-t").routing_kind == "tree"
    assert Protocol("sp-s").routing_kind == "star"
    assert Protocol("sp-s").is_single_path
    assert not Protocol("mp-s").is_single_path


def reference_try_complete(state, links, delta):
    # try_complete as it was before the live-core search: a Werner map over
    # every live link and routing's own connectivity test
    born, t = links.born, links.t
    expired = t - links.q_c
    if state.plan is not None:
        all_live = all(born[i] > expired for i, _ in state.tracked)
        return state.plan if all_live else None
    for inc in state.user_incidence:
        if all(born[i] <= expired for i in inc):
            return None
    if state.center_incidence is not None:
        if sum(born[i] > expired for i in state.center_incidence) < len(state.users):
            return None
    edges, w0 = links.graph.edges, links.graph.w0
    werner = {edges[i]: w0[i] * delta ** (t - b)
              for i, b in enumerate(born) if b > expired}
    route = routing.select_multipath(list(werner), werner, state.users,
                                     state.kind.routing_kind, center=state.center)
    return None if route is None else protocols.plan_realisation(route, links.graph,
                                                                 state.users)


@pytest.mark.parametrize("kind", [p.value for p in Protocol])
def test_try_complete_matches_reference(kind):
    rng = np.random.default_rng(27)
    planned = 0
    for m in (3, 4, 5, 6):
        g = topology.make_grid(m, 0.3, 0.95)
        # a few links of w0 = 0, which routing drops before it connects
        g = topology.NetworkGraph(g.n_nodes, [(u, v, 0.3, 0.0 if (u + v) % 7 == 0 else 0.95)
                                              for u, v in g.edges])
        for _ in range(12):
            users = tuple(rng.choice(g.n_nodes, size=int(rng.integers(2, 5)), replace=False))
            try:
                state = protocols.initialize(kind, g, users)
            except routing.NoRouteError:
                continue
            for _ in range(10):
                q_c = int(rng.integers(1, 6))
                links = LinkState(g, q_c=q_c)
                links.t = 20
                links.born = [links.t - int(a) for a in rng.integers(0, q_c + 2, g.n_edges)]
                want = reference_try_complete(state, links, 0.98)
                got = protocols.try_complete(state, links, 0.98)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.route == want.route
                    planned += 1
    assert planned > 20


def test_failed_prechecks_skip_the_graph_search(monkeypatch):
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(protocols, "live_core", forbidden)
    monkeypatch.setattr(routing, "select_multipath", forbidden)
    g = topology.make_grid(4, 0.5, 0.9)
    users = (0, 3, 12, 15)
    # mp-s: every edge live but one of the centre's four links
    state = protocols.initialize("mp-s", g, users)
    links = LinkState(g, q_c=5)
    place(links, *g.edges)
    links.born[state.center_incidence[0]] = links.t - links.q_c
    assert protocols.try_complete(state, links, 0.99) is None
    # mp-t: every edge live but those at user 3
    state = protocols.initialize("mp-t", g, users)
    links = LinkState(g, q_c=5)
    place(links, *(e for e in g.edges if 3 not in e))
    assert protocols.try_complete(state, links, 0.99) is None
    assert calls == []


def test_mp_s_centre_cut_off_from_the_users_is_not_routed(monkeypatch):
    calls = []
    search = protocols.live_core

    def spy(*args):
        calls.append("live_core")
        return search(*args)

    monkeypatch.setattr(protocols, "live_core", spy)
    monkeypatch.setattr(routing, "select_multipath", lambda *a, **k: calls.append("routing"))
    g = topology.make_grid(6, 0.5, 0.9)
    state = protocols.initialize("mp-s", g, (0, 5, 30, 35))
    # the users are joined by the grid's border; the centre's four links
    # touch interior nodes only, so the centre is kept apart from them
    border = [(u, v) for u, v in g.edges
              if u // 6 == v // 6 in (0, 5) or u % 6 == v % 6 in (0, 5)]
    links = LinkState(g, q_c=5)
    place(links, *border, *(e for e in g.edges if state.center in e))
    assert protocols.try_complete(state, links, 0.99) is None
    assert calls == ["live_core"]
