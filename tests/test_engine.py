import math
import statistics

import numpy as np
import pytest

from ghznetsim import engine, experiments, noise, protocols, routing, statesim, topology
from ghznetsim.engine import ConfigError, LinkState, SimConfig
from ghznetsim.experiments import SweepSpec
from ghznetsim.protocols import TrialResult


def single_edge_graph(p=0.1, w0=0.987):
    return topology.NetworkGraph(2, [(0, 1, p, w0)])


def sampled_sets(g, n_users, count, seed):
    """The user sets a sweep at ``seed`` draws for ``g``."""
    return experiments.user_sets(SweepSpec(n_users=n_users, user_sets=count, seed=seed),
                                 g.n_nodes)


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def ages(links):
    """Age of each edge's link, -1 where the edge is free."""
    age = links.t - np.asarray(links.born)
    return np.where(age < links.q_c, age, -1)


def drawn(links):
    """Uniforms the trial has taken from its stream so far."""
    return links.filled - len(links.buffer)


def test_step_generates_everywhere_at_p1():
    g = topology.make_grid(3, 1.0, 0.9)
    state = protocols.initialize("mp-t", g, (0, 8))
    links = LinkState(g, q_c=4, rng=make_rng())
    assert engine.step(links, state)
    assert (ages(links) >= 0).sum() == g.n_edges
    assert (ages(links) == 0).all()


def test_step_qc1_links_survive_exactly_one_check():
    g = topology.make_grid(2, 1.0, 0.9)
    state = protocols.initialize("mp-t", g, (0, 3))
    links = LinkState(g, q_c=1, rng=make_rng())
    engine.step(links, state)
    first = ages(links)
    assert (first == 0).all()
    engine.step(links, state)
    # previous links expired before regeneration, ages reset to 0
    assert (ages(links) == 0).all()


def test_step_occupied_edges_draw_nothing():
    g = single_edge_graph(p=0.5)
    state = protocols.initialize("sp-t", g, (0, 1))
    links = LinkState(g, q_c=10, rng=make_rng(2))
    links.born[g.edge_index[(0, 1)]] = links.t
    assert not engine.step(links, state)
    assert ages(links)[0] == 1
    assert drawn(links) == 0  # no uniform consumed while the edge is occupied


def test_step_draws_one_uniform_per_free_tracked_edge_in_edge_order():
    g = topology.make_grid(3, 0.5, 0.9)
    state = protocols.initialize("mp-t", g, (0, 8))
    links = LinkState(g, q_c=2, rng=make_rng(5))
    reference = make_rng(5)
    for _ in range(30):
        born = np.asarray(links.born)
        free = np.nonzero(born <= links.t + 1 - links.q_c)[0]
        hits = free[reference.random(free.size) < np.asarray(g.gen_prob)[free]]
        before = drawn(links)
        made = engine.step(links, state)
        assert drawn(links) - before == free.size
        assert made == (hits.size > 0)
        born[hits] = links.t
        assert links.born == born.tolist()


def test_step_aging_and_cutoff():
    g = single_edge_graph(p=1e-12)
    state = protocols.initialize("sp-t", g, (0, 1))
    links = LinkState(g, q_c=3, rng=make_rng())
    links.born[g.edge_index[(0, 1)]] = links.t
    seen = []
    for _ in range(4):
        engine.step(links, state)
        seen.append(int(ages(links)[0]))
    assert seen == [1, 2, -1, -1]


def test_run_trial_completes_first_slot_at_p1():
    g = topology.make_grid(3, 1.0, 1.0)
    state = protocols.initialize("sp-t", g, (0, 2, 6, 8))
    result = engine.run_trial(g, state, delta=1.0, q_c=1, max_timeslots=10,
                              rng=make_rng(3))
    assert result.success and result.timeslots == 1
    assert result.fidelity == pytest.approx(1.0)
    assert result.mean_age == 0.0


# (timeslots, fidelity.hex()) of trial 0 of user set 0 at seed 2024 on a 6x6
# grid; they pin the trial stream across engine changes, so a change that
# moves the random stream or any realised float must update them and say so
PINNED_TRIALS = {
    "sp-s": (63, "0x1.1a58b4eeae39ap-1"),
    "sp-t": (64, "0x1.69a437cbfcf05p-1"),
    "mp-s": (266, "0x1.2f2cb3b0d1188p-1"),
    "mp-t": (7, "0x1.641a52435a6a7p-1"),
}


@pytest.mark.parametrize("protocol", sorted(PINNED_TRIALS))
def test_trial_stream_is_pinned(protocol):
    g = topology.make_grid(6, 0.2, 0.987)
    state = protocols.initialize(protocol, g, (0, 7, 22, 35))
    seq = np.random.SeedSequence(2024, spawn_key=(0, 0, 0))
    result = engine.run_trial(g, state, 0.99, 8, 10_000,
                              np.random.Generator(np.random.PCG64(seq)))
    assert (result.timeslots, result.fidelity.hex()) == PINNED_TRIALS[protocol]


def test_uniform_blocks_concatenate_to_one_draw():
    # the trial buffer draws uniforms in blocks; that gives the per-slot
    # draws only because a split draw continues the same stream
    for a, b in ((0, 5), (1, 63), (64, 64), (57, 4096), (3000, 1200)):
        whole, split = make_rng(a * 7 + b), make_rng(a * 7 + b)
        joined = np.concatenate([split.random(a), split.random(b)])
        assert np.array_equal(whole.random(a + b), joined)


def reference_realize(g, solution, t, born, delta, users):
    """The GHZ state of a fully live ``solution``, realised the way the engine
    did before route plans: a Werner value per edge, each branch swapped into
    one value, the branches fused, and the three products."""
    idx = [g.edge_index[e] for e in solution.edges]
    ages = [t - born[i] for i in idx]
    werner = {e: g.w0[i] * delta ** a for e, i, a in zip(solution.edges, idx, ages)}
    branches = [(a, b, math.prod(map(noise.check_werner, ws)))
                for a, b, ws in statesim.branch_specs(solution.branches, werner)]
    mean_age = sum(ages) / len(ages)
    r_size = len(solution.edges)
    return TrialResult(
        status="success", timeslots=t,
        fidelity=noise.werner_tree_fidelity(branches, users),
        r_size=r_size, mean_age=mean_age,
        werner_product=math.prod(werner.values()),
        branch_fidelity_product=math.prod(noise.werner_to_fidelity(w)
                                          for _, _, w in branches),
        fidelity_floor=math.prod(g.w0[i] for i in idx) * delta ** (mean_age * r_size),
        center=solution.center, edges=solution.edges)


def reference_trial(g, state, delta, q_c, max_timeslots, rng):
    """The engine before buffered uniforms: one ``rng.random(n_free)`` per
    slot on a numpy ``born``, a full completion check in every slot, and
    ``reference_realize`` on success."""
    tracked = np.array([i for i, _ in state.tracked], dtype=np.int64)
    gen_prob = np.asarray(g.gen_prob)
    born = np.full(g.n_edges, -q_c, dtype=np.int64)
    for t in range(1, max_timeslots + 1):
        expired = t - q_c
        free = tracked[born[tracked] <= expired]
        if free.size:
            hits = rng.random(free.size) < gen_prob[free]
            born[free[hits]] = t
        if state.plan is not None:
            solution = state.plan.route if (born[tracked] > expired).all() else None
        else:
            live = np.nonzero(born > expired)[0].tolist()
            # the engine's rule for a link's value: Python floats, Python int ages
            werner = {g.edges[i]: g.w0[i] * delta ** (t - int(born[i])) for i in live}
            solution = routing.select_multipath(
                [g.edges[i] for i in live], werner, state.users,
                state.kind.routing_kind, center=state.center)
        if solution is not None:
            return reference_realize(g, solution, t, born.tolist(), delta, state.users)
    return TrialResult(status="timeout", timeslots=max_timeslots)


def random_graph(rng):
    """A small connected graph whose edges mix p in {0, 1, random} and w0 in
    {0, 1, random}."""
    n = int(rng.integers(3, 8))
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}   # a spanning tree
    pairs |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
              for _ in range(int(rng.integers(0, 2 * n)))}

    def pick():
        return float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9)]))

    return topology.NetworkGraph(n, [(u, v, pick(), pick()) for u, v in sorted(pairs)])


def summary(r):
    """Every field of a trial result, floats by ``.hex()``."""
    floats = (r.fidelity, r.mean_age, r.werner_product, r.branch_fidelity_product,
              r.fidelity_floor)
    return (r.status, r.timeslots, r.r_size, r.center, r.edges,
            *(x.hex() for x in floats))


@pytest.mark.parametrize("protocol", ["sp-t", "sp-s", "mp-t", "mp-s"])
def test_run_trial_matches_reference_engine(protocol):
    rng = np.random.default_rng(sum(map(ord, protocol)))
    compared = successes = 0
    while compared < 200:
        g = random_graph(rng)
        n_users = int(rng.integers(2, min(5, g.n_nodes + 1)))
        users = tuple(int(u) for u in rng.choice(g.n_nodes, n_users, replace=False))
        try:
            state = protocols.initialize(protocol, g, users)
        except routing.NoRouteError:
            continue
        q_c = int(rng.integers(1, 6))
        delta = float(rng.choice([1.0, rng.uniform(0.5, 1.0)]))
        for _ in range(4):
            seed, budget = int(rng.integers(2**32)), int(rng.integers(1, 40))
            got = engine.run_trial(g, state, delta, q_c, budget, make_rng(seed))
            want = reference_trial(g, state, delta, q_c, budget, make_rng(seed))
            assert summary(got) == summary(want)
            compared += 1
            successes += got.success
    assert 0 < successes < compared


@pytest.mark.parametrize("protocol", ["sp-t", "sp-s", "mp-t"])
def test_routes_are_planned_once_per_user_set_or_success(monkeypatch, protocol):
    # a single-path route is fixed per user set, so its realisation plan is
    # built once; a multi-path route is found per success and planned then
    plans = []
    plan_realisation = protocols.plan_realisation

    def counting(*args):
        plans.append(args)
        return plan_realisation(*args)

    monkeypatch.setattr(protocols, "plan_realisation", counting)
    users = (0, 3, 12, 15)
    cfg = SimConfig(graph=topology.make_grid(4, 0.5, 0.987), protocol=protocol,
                    delta=0.99, q_c=4, user_sets=(users,), target_successes=12,
                    max_set_timeslots=100_000, seed=5)
    metrics = engine.run_user_set(cfg, users, 0)
    assert metrics.successes == len(metrics.trials) == 12
    assert len(plans) == (1 if protocol.startswith("sp") else 12)


def test_run_trial_timeout():
    g = single_edge_graph(p=1e-12)
    state = protocols.initialize("sp-t", g, (0, 1))
    result = engine.run_trial(g, state, delta=0.99, q_c=1, max_timeslots=50,
                              rng=make_rng(4))
    assert result.status == "timeout"
    assert result.timeslots == 50


def test_geometric_expected_timeslots():
    cfg = SimConfig(graph=single_edge_graph(p=0.1), protocol="sp-t", delta=0.99,
                    q_c=1, user_sets=((0, 1),), target_successes=10_000,
                    max_set_timeslots=10_000_000, seed=7)
    metrics = engine.run_experiment(cfg, workers=1, keep_trials=False)
    s = metrics.sets[0]
    mean_t = s.total_timeslots / s.successes
    sigma = math.sqrt(90.0 / 10_000)
    assert abs(mean_t - 10.0) < 3 * sigma


def test_noiseless_network_distributes_perfect_states():
    g = topology.make_grid(3, 0.4, 1.0)
    cfg = SimConfig(graph=g, protocol="mp-t", delta=1.0, q_c=5, user_sets=((0, 8),),
                    target_successes=20,
                    max_set_timeslots=100_000, seed=5)
    metrics = engine.run_experiment(cfg, workers=1)
    assert metrics.successes == 20
    for s in metrics.sets:
        for t in s.trials:
            if t.success:
                assert t.fidelity == pytest.approx(1.0)


def test_mean_age_below_cutoff():
    g = topology.make_grid(4, 0.3, 0.95)
    for q_c in (1, 2, 5):
        cfg = SimConfig(graph=g, protocol="mp-t", delta=0.99, q_c=q_c,
                        user_sets=((0, 5, 15),), target_successes=25,
                        max_set_timeslots=50_000, seed=8)
        metrics = engine.run_experiment(cfg, workers=1)
        for s in metrics.sets:
            for t in s.trials:
                if t.success:
                    assert t.mean_age <= q_c - 1


def test_determinism_same_seed():
    g = topology.make_grid(4, 0.2, 0.95)
    cfg = SimConfig(graph=g, protocol="mp-s", delta=0.99, q_c=4,
                    user_sets=sampled_sets(g, 3, 3, 21), target_successes=15,
                    max_set_timeslots=20_000, seed=21)
    a = engine.run_experiment(cfg, workers=1)
    b = engine.run_experiment(cfg, workers=1)
    assert a == b


def test_parallel_matches_serial():
    g = topology.make_grid(4, 0.2, 0.95)
    cfg = SimConfig(graph=g, protocol="mp-t", delta=0.99, q_c=3,
                    user_sets=sampled_sets(g, 3, 4, 33), target_successes=10,
                    max_set_timeslots=10_000, seed=33)
    serial = engine.run_experiment(cfg, workers=1)
    parallel = engine.run_experiment(cfg, workers=4)
    assert serial == parallel


def test_different_seeds_differ():
    g = topology.make_grid(4, 0.2, 0.95)
    base = dict(graph=g, protocol="mp-t", delta=0.99, q_c=3, user_sets=((0, 15),),
                target_successes=20, max_set_timeslots=50_000)
    a = engine.run_experiment(SimConfig(**base, seed=1), workers=1, keep_trials=False)
    b = engine.run_experiment(SimConfig(**base, seed=2), workers=1, keep_trials=False)
    assert a.dr != b.dr


def test_omission_rule():
    g = single_edge_graph(p=1e-12)  # generation is hopeless
    cfg = SimConfig(graph=g, protocol="sp-t", delta=0.99, q_c=1, user_sets=((0, 1),),
                    target_successes=5, max_set_timeslots=200, seed=1)
    metrics = engine.run_experiment(cfg, workers=1)
    assert not metrics.valid
    assert "zero successes" in metrics.omit_reason


def test_infeasible_static_star_is_flagged():
    g = single_edge_graph(p=0.5)
    cfg = SimConfig(graph=g, protocol="sp-s", delta=0.99, q_c=1, user_sets=((0, 1),),
                    target_successes=5, max_set_timeslots=200, seed=1)
    metrics = engine.run_experiment(cfg, workers=1)
    assert not metrics.valid
    assert metrics.sets[0].status == "infeasible"
    # shared states record the set as infeasible, and a second cell reads that
    states = {}
    for _ in range(2):
        metrics = engine.run_experiment(cfg, workers=1, states=states)
        assert metrics.sets[0].status == "infeasible"
        assert states == {0: None}


@pytest.mark.parametrize("protocol", ["sp-t", "mp-t", "sp-s", "mp-s"])
def test_seven_users_route_as_trees_but_no_grid_node_hosts_their_star(protocol):
    # seven users are beyond the exact Steiner search, so trees come from the
    # approximation; a star needs a centre of degree 7, which no grid node has
    users = (0, 3, 5, 9, 10, 12, 15)
    cfg = SimConfig(graph=topology.make_grid(4, 0.5, 0.987), protocol=protocol,
                    delta=0.99, q_c=5, user_sets=(users,), target_successes=5,
                    max_set_timeslots=20_000, seed=3)
    metrics = engine.run_experiment(cfg, workers=1)
    if protocol.endswith("-t"):
        assert metrics.valid and metrics.successes == 5
        assert all(t.r_size >= len(users) - 1 for t in metrics.sets[0].trials if t.success)
    else:
        assert not metrics.valid
        assert metrics.omit_reason == "infeasible user set"


def test_dr_confidence_interval_examples():
    lo, hi = engine.dr_confidence_interval(300, 3000)
    assert lo < 0.1 < hi
    assert hi - lo == pytest.approx(0.036, rel=0.2)
    assert engine.dr_confidence_interval(5, 5)[1] == 1.0
    assert engine.dr_confidence_interval(0, 50)[0] == 0.0
    with pytest.raises(ConfigError):
        engine.dr_confidence_interval(1, 0)


def test_dr_confidence_interval_matches_likelihood_ratio_direct():
    # scan the likelihood-ratio condition directly on a grid of rates
    s, n = 40, 640
    crit = engine.CHI2_999
    q_hat = s / n
    peak = s * math.log(q_hat) + (n - s) * math.log1p(-q_hat)
    lo, hi = engine.dr_confidence_interval(s, n)
    qs = np.linspace(1e-6, 0.3, 30_000)
    keep = [q for q in qs
            if 2 * (peak - (s * math.log(q) + (n - s) * math.log1p(-q))) <= crit]
    assert min(keep) == pytest.approx(lo, abs=2e-4)
    assert max(keep) == pytest.approx(hi, abs=2e-4)


def test_chi2_999_is_the_normal_quantile_squared():
    # chi-square with one degree of freedom is a squared standard normal
    assert engine.CHI2_999 == pytest.approx(
        statistics.NormalDist().inv_cdf(0.9995) ** 2, rel=1e-12)


@pytest.mark.parametrize("s, n", [(1, 10**7), (1, 2), (40, 640), (99, 100),
                                  (12345, 10**6), (3, 400), (799, 800)])
def test_dr_confidence_interval_ends_are_float_tight(s, n):
    q_hat = s / n
    peak = s * math.log(q_hat) + (n - s) * math.log1p(-q_hat)

    def inside(q):
        return 2.0 * (peak - s * math.log(q) - (n - s) * math.log1p(-q)) <= engine.CHI2_999

    lo, hi = engine.dr_confidence_interval(s, n)
    assert 0.0 < lo < q_hat < hi < 1.0
    assert inside(lo) and inside(hi)
    assert not inside(math.nextafter(lo, 0.0))
    assert not inside(math.nextafter(hi, 1.0))


def test_config_validation():
    g = single_edge_graph()
    with pytest.raises(ConfigError):
        SimConfig(graph=g, protocol="sp-t", delta=0.99, q_c=0, user_sets=((0, 1),))
    with pytest.raises(ConfigError):
        SimConfig(graph=g, protocol="sp-t", delta=1.5, q_c=1, user_sets=((0, 1),))
    with pytest.raises(ConfigError):
        SimConfig(graph=g, protocol="nope", delta=0.99, q_c=1, user_sets=((0, 1),))
    with pytest.raises(ConfigError):
        SimConfig(graph=g, protocol="sp-t", delta=0.99, q_c=1, user_sets=((0,),))
    with pytest.raises(ConfigError):
        SimConfig(graph=g, protocol="sp-t", delta=0.99, q_c=1, user_sets=())
    with pytest.raises(ConfigError):
        engine.resolve_workers(0)
    # out-of-range, negative and duplicate ids used to reach numpy indexing
    # or silently simulate fewer users; too many users failed in sampling
    grid = topology.make_grid(3, 0.3, 0.95)
    for protocol in ("sp-t", "sp-s", "mp-t", "mp-s"):
        for users in ((0, 99), (-1, 8), (0, 9), (0, 0, 8)):
            with pytest.raises(ConfigError):
                SimConfig(graph=grid, protocol=protocol, delta=0.99, q_c=3,
                          user_sets=(users,))
        SimConfig(graph=grid, protocol=protocol, delta=0.99, q_c=3,
                  user_sets=sampled_sets(grid, 9, 1, 0))
        SimConfig(graph=grid, protocol=protocol, delta=0.99, q_c=3, user_sets=((0, 8),))
        # every set is checked, not only the first
        with pytest.raises(ConfigError):
            SimConfig(graph=grid, protocol=protocol, delta=0.99, q_c=3,
                      user_sets=((0, 8), (0, 9)))
    with pytest.raises(ConfigError, match="10 users but only 9 nodes"):
        sampled_sets(grid, 10, 1, 0)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**128 + 3])
@pytest.mark.parametrize("set_idx", [0, 2**40])
def test_trial_streams_are_numpys(seed, set_idx):
    # at the edges of a hashed batch, and where the trial index grows a
    # second 32-bit word, trial k draws SeedSequence's stream for its key
    b = engine.SEED_BATCH
    got = dict(zip(range(b + 2), engine.trial_rngs(seed, set_idx)))
    late = engine.trial_rngs(seed, set_idx, first=2**32 - 1)
    got.update({2**32 - 1: next(late), 2**32: next(late)})
    for k in (0, 1, b - 1, b, b + 1, 2**32 - 1, 2**32):
        seq = np.random.SeedSequence(seed, spawn_key=(0, set_idx, k))
        want = np.random.Generator(np.random.PCG64(seq))
        assert got[k].bit_generator.state == want.bit_generator.state, k
        assert got[k].random(16).tolist() == want.random(16).tolist(), k


def test_trial_rng_streams_are_order_insensitive():
    # the engine's stream for a (seed, set, trial) key is the same however
    # many other trials were drawn before it
    g = topology.make_grid(3, 0.3, 0.95)
    state = protocols.initialize("mp-t", g, (0, 8))

    def trial(rng):
        return engine.run_trial(g, state, 0.99, 3, 10_000, rng)

    in_order = [rng for _, rng in zip(range(8), engine.trial_rngs(5, 2))]
    assert trial(in_order[7]) == trial(next(engine.trial_rngs(5, 2, first=7)))


def test_pooled_dr_is_successes_per_timeslot():
    # user sets at different distances wait for different times, so a mean of
    # per-set rates would differ from the pooled rate and leave its interval
    g = topology.make_grid(4, 0.3, 0.95)
    cfg = SimConfig(graph=g, protocol="sp-t", delta=0.99, q_c=4,
                    user_sets=sampled_sets(g, 3, 4, 3), target_successes=20,
                    max_set_timeslots=20_000, seed=3)
    metrics = engine.run_experiment(cfg, workers=1, keep_trials=False)
    assert len({s.dr for s in metrics.sets}) > 1
    assert metrics.total_timeslots == sum(s.total_timeslots for s in metrics.sets)
    assert metrics.dr == metrics.successes / metrics.total_timeslots
    assert metrics.dr_ci[0] <= metrics.dr <= metrics.dr_ci[1]
