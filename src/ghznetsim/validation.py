"""Cross-checking suites: independent oracles against the production code.

Each suite returns (passed, detail). The brute-force helpers here enumerate
small instances exhaustively and are deliberately written without reusing
the production algorithms they check.
"""

from __future__ import annotations

import itertools
import math
import statistics

import numpy as np

from . import experiments, noise, routing, statesim, topology


# ---------------------------------------------------------------------------
# brute-force oracles

def _spanning_trees(edges, terminals):
    """Every edge subset that is a tree containing all terminals."""
    edges = [routing.canon(*e) for e in edges]
    terminals = set(terminals)
    for r in range(len(terminals) - 1, len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            nodes = {n for e in subset for n in e}
            if not terminals <= nodes:
                continue
            if len(subset) != len(nodes) - 1:
                continue
            parent = {n: n for n in nodes}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for u, v in subset:
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if acyclic:
                yield subset


def brute_force_steiner_product(edges, values, terminals) -> float:
    """Best edge-value product over all trees spanning the terminals,
    by enumerating every edge subset."""
    return max((math.prod(values[e] for e in subset)
                for subset in _spanning_trees(edges, terminals)), default=0.0)


def _simple_paths(adj, start, goal, max_len):
    """All simple paths from start to goal as edge tuples."""
    out = []
    stack = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == goal:
            out.append(tuple(routing.canon(a, b) for a, b in zip(path, path[1:])))
            continue
        if len(path) > max_len:
            continue
        for nbr in adj.get(node, ()):
            if nbr not in path:
                stack.append((nbr, path + [nbr]))
    return out


def _path_systems(edges, users, center):
    """Every edge-disjoint system of simple centre-user paths, as the
    tuple of their edges."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    per_user = [_simple_paths(adj, center, u, max_len=len(edges) + 1) for u in users]
    for combo in itertools.product(*per_user):
        used: set = set()
        for path in combo:
            if not used.isdisjoint(path):
                break
            used.update(path)
        else:
            yield tuple(e for path in combo for e in path)


def brute_force_star_cost(edges, values, users, center) -> float | None:
    """Minimum total -log(value) cost over all edge-disjoint path systems
    from the centre to every user, or None if none exists."""
    return min((-sum(math.log(values[e]) for e in system)
                for system in _path_systems(edges, users, center)), default=None)


def random_tree_instance(rng, max_edges=7, max_users=4):
    """Random tree with Werner-weighted edges whose leaves are all users."""
    while True:
        n = int(rng.integers(2, max_edges + 2))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        deg: dict[int, int] = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        users = {x for x in deg if deg[x] == 1}
        interior = [x for x in deg if deg[x] >= 2]
        if interior and rng.random() < 0.3 and len(users) < max_users:
            users.add(int(rng.choice(interior)))
        if 2 <= len(users) <= max_users:
            werner = {e: float(rng.uniform(0.5, 1.0)) for e in edges}
            return edges, werner, sorted(users)


# ---------------------------------------------------------------------------
# suites

def suite_state_oracle(n_trees: int = 200, tol: float = 1e-10, seed: int = 99):
    """Closed-form tree fidelities against the dense density-matrix oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trees):
        edges, werner, users = random_tree_instance(rng)
        branches, _ = routing.decompose_tree_branches(edges, users)
        f_closed = noise.werner_tree_fidelity(
            [(a, b, math.prod(ws)) for a, b, ws in statesim.branch_specs(branches, werner)],
            users)
        f_dense = statesim.tree_ghz_fidelity(edges, werner, users)
        worst = max(worst, abs(f_closed - f_dense))
    return worst < tol, f"max |closed form - dense| = {worst:.3e} over {n_trees} trees"


def suite_star_formula(n_samples: int = 100, tol: float = 1e-12, seed: int = 7):
    """Closed-form star fusion fidelity against the dense oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in (3, 4):
        for _ in range(n_samples):
            ws = rng.uniform(0.0, 1.0, k)
            closed = noise.star_ghz_fidelity([noise.werner_to_fidelity(w) for w in ws])
            edges = [(0, j + 1) for j in range(k)]
            werner = {e: float(w) for e, w in zip(edges, ws)}
            f_dense = statesim.tree_ghz_fidelity(edges, werner, list(range(1, k + 1)))
            worst = max(worst, abs(closed - f_dense))
    return worst < tol, f"max |closed form - dense| = {worst:.3e}"


def suite_steiner_oracle(seed: int = 5, tol: float = 1e-9):
    """Exact Steiner trees against subset enumeration on every 3x3-grid
    instance with 3 or 4 terminals (uniform and random edge values)."""
    g = topology.make_grid(3, 0.5, 0.9)
    rng = np.random.default_rng(seed)
    checked = 0
    for k in (3, 4):
        for terminals in itertools.combinations(range(9), k):
            for mode in ("uniform", "random"):
                if mode == "uniform":
                    values = {e: 0.5 for e in g.edges}
                else:
                    values = {e: float(v) for e, v in
                              zip(g.edges, rng.uniform(0.05, 0.99, g.n_edges))}
                sol = routing.exact_steiner_tree(g.edges, values, terminals)
                got = math.prod(values[e] for e in sol.edges)
                want = brute_force_steiner_product(g.edges, values, terminals)
                if abs(got - want) > tol * max(want, 1e-30):
                    return False, (f"mismatch at terminals {terminals} ({mode}): "
                                   f"{got} vs {want}")
                sol.check(terminals)
                checked += 1
    return True, f"{checked} instances match subset enumeration"


def suite_star_flow_oracle(n_graphs: int = 40, seed: int = 17, tol: float = 1e-9):
    """Min-cost star routing against exhaustive edge-disjoint path systems
    on random graphs with at most 12 edges."""
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(n_graphs):
        n = int(rng.integers(5, 9))
        all_pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(all_pairs)
        m = int(rng.integers(n - 1, 13))
        edges = sorted(all_pairs[:m])
        values = {e: float(v) for e, v in zip(edges, rng.uniform(0.1, 0.99, len(edges)))}
        nodes = sorted({x for e in edges for x in e})
        if len(nodes) < 4:
            continue
        center = nodes[0]
        others = [x for x in nodes if x != center]
        k = int(rng.integers(2, min(4, len(others)) + 1))
        users = sorted(rng.choice(others, size=k, replace=False).tolist())
        want = brute_force_star_cost(edges, values, users, center)
        try:
            sol = routing.star_route(edges, values, users, center)
            got = -sum(math.log(values[e]) for e in sol.edges)
        except routing.NoRouteError:
            got = None
        if (got is None) != (want is None):
            return False, f"feasibility mismatch: center {center} users {users} edges {edges}"
        if got is not None and abs(got - want) > tol * max(1.0, abs(want)):
            return False, f"cost mismatch {got} vs {want} (users {users}, center {center})"
        if got is not None:
            sol.check(users)
        checked += 1
    return True, f"{checked} instances match path-system enumeration"


def _value_of_cost(cost: float) -> float:
    """An edge value whose cost -log(value) is exactly ``cost``.

    With dyadic costs every route cost is an exact float sum, so routes of
    equal probability (or Werner product) tie exactly in any summation order.
    """
    value = math.exp(-cost)
    for _ in range(8):
        if -math.log(value) == cost:
            return value
        value = math.nextafter(value, 0.0 if -math.log(value) < cost else 1.0)
    raise ValueError(f"no float value has cost exactly {cost}")


def suite_lexicographic_oracle(n_graphs: int = 250, seed: int = 41):
    """Two-objective routing against enumeration: the exact Steiner tree and
    the star route with a secondary map must be lexicographic optima
    (probability, then Werner product, then size) on small random graphs
    whose edge values take two levels each, so ties are everywhere."""
    rng = np.random.default_rng(seed)
    p_levels = [_value_of_cost(c) for c in (0.5, 1.0)]
    w_levels = [_value_of_cost(c) for c in (0.25, 0.75)]
    checked = 0
    for _ in range(n_graphs):
        n = int(rng.integers(5, 8))
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        edges = sorted(pairs[: int(rng.integers(n, 11))])
        prob = {e: p_levels[int(rng.integers(0, 2))] for e in edges}
        werner = {e: w_levels[int(rng.integers(0, 2))] for e in edges}
        nodes = sorted({x for e in edges for x in e})
        k = min(int(rng.integers(2, 5)), len(nodes) - 1)
        users = sorted(int(x) for x in rng.choice(nodes, size=k, replace=False))
        center = int(rng.choice([x for x in nodes if x not in users]))

        def key(route):
            return (-math.fsum(math.log(prob[e]) for e in route),
                    -math.fsum(math.log(werner[e]) for e in route), len(route))

        for name, want, solve in (
                ("steiner", min(map(key, _spanning_trees(edges, users)), default=None),
                 lambda: routing.exact_steiner_tree(edges, prob, users, secondary=werner)),
                ("star", min(map(key, _path_systems(edges, users, center)), default=None),
                 lambda: routing.star_route(edges, prob, users, center, secondary=werner))):
            try:
                sol = solve()
            except routing.NoRouteError:
                got = None
            else:
                sol.check(users)
                got = key(sol.edges)
            if got != want:
                return False, (f"{name} optimum {got} vs enumerated {want} "
                               f"(users {users}, centre {center}, edges {edges})")
            checked += 1
    return True, f"{checked} two-objective optima match enumeration"


def suite_noise_identities(seed: int = 23, n_samples: int = 300):
    """Algebraic orderings of the noise layer on random inputs."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        k = int(rng.integers(3, 7))
        ws = rng.uniform(0.0, 1.0, k)
        fbs = [noise.werner_to_fidelity(w) for w in ws]
        prod_fb = math.prod(fbs)
        w_r = math.prod(ws)
        star = noise.star_ghz_fidelity(fbs)
        if not (star >= prod_fb - 1e-12 and prod_fb >= w_r - 1e-12):
            return False, f"bound ordering violated at ws={ws}"
    for p, p_c, want in ((0.5, 0.5, 1), (0.3, 0.5, 2), (0.1, 0.5, 7)):
        got = noise.percolation_min_rounds(p, p_c)
        if got != want:
            return False, f"percolation rounds({p}, {p_c}) = {got}, want {want}"
        if 1.0 - (1.0 - p) ** got < p_c or (got > 1 and 1.0 - (1.0 - p) ** (got - 1) >= p_c):
            return False, f"minimality violated at ({p}, {p_c})"
    return True, "bound ordering and percolation minimality hold"


def bound_chain_stats(cells) -> dict:
    """Chain violations and bound gaps over the realized states of a sweep.

    The gap statistics weight every experiment cell equally (mean of
    per-cell means), so heavily decohered operating points do not dominate
    just because they produce the most successes per unit budget.
    """
    violations = 0
    count = 0
    cell_gaps_fb = []
    cell_gaps_wr = []
    usable_gaps_fb = []
    for cell in cells:
        gaps_fb = []
        gaps_wr = []
        for s in cell.metrics.sets:
            for t in s.trials:
                if not t.success:
                    continue
                count += 1
                chain_ok = (t.fidelity >= t.branch_fidelity_product - 1e-12
                            and t.branch_fidelity_product >= t.werner_product - 1e-12
                            and t.fidelity >= t.fidelity_floor - 1e-12)
                if not chain_ok:
                    violations += 1
                gaps_fb.append((t.fidelity - t.branch_fidelity_product) / t.fidelity)
                gaps_wr.append((t.fidelity - t.werner_product) / t.fidelity)
        if gaps_fb:
            cell_gaps_fb.append(statistics.mean(gaps_fb))
            cell_gaps_wr.append(statistics.mean(gaps_wr))
            if cell.metrics.mean_fidelity >= experiments.FIDELITY_FLOOR:
                usable_gaps_fb.append(statistics.mean(gaps_fb))
    return {
        "states": count,
        "violations": violations,
        # gap over operating points whose mean fidelity clears the 2/3
        # usefulness floor; deep-decoherence cells are reported separately
        "mean_gap_usable": statistics.mean(usable_gaps_fb) if usable_gaps_fb else math.nan,
        "mean_gap_branch_product": statistics.mean(cell_gaps_fb) if cell_gaps_fb else math.nan,
        "mean_gap_werner_product": statistics.mean(cell_gaps_wr) if cell_gaps_wr else math.nan,
    }


def suite_bound_gap(seed: int = 31, qc_values=(1, 3, 5, 8, 13, 20),
                    n_sets: int = 4, successes: int = 25,
                    mean_tol: float = 0.005):
    """Realized GHZ states respect the bound chain; the branch-fidelity
    product tracks the exact fidelity closely on selected routes."""
    spec = experiments.SweepSpec(
        protocols=("mp-t", "sp-t", "mp-s", "sp-s"), qc_values=tuple(qc_values),
        p_values=(0.1,), grid_sizes=(6,), user_sets=n_sets, target_successes=successes,
        max_set_timeslots=20_000, seed=seed)
    stats = bound_chain_stats(experiments.run_sweep(spec, workers=1))
    mean_gap = stats["mean_gap_usable"]
    ok = stats["violations"] == 0 and mean_gap < mean_tol
    return ok, (f"{stats['states']} states, {stats['violations']} chain violations, "
                f"mean branch-product gap {mean_gap * 100:.3f}% at fidelity >= 2/3 "
                f"(limit {mean_tol * 100:.1f}%; all cutoffs "
                f"{stats['mean_gap_branch_product'] * 100:.2f}%, plain Werner-product "
                f"{stats['mean_gap_werner_product'] * 100:.2f}%)")


# (name, suite, keyword arguments of the quick pass)
ALL_SUITES = (
    ("state-oracle", suite_state_oracle, dict(n_trees=40)),
    ("star-formula", suite_star_formula, dict(n_samples=25)),
    ("steiner-oracle", suite_steiner_oracle, {}),
    ("star-flow-oracle", suite_star_flow_oracle, dict(n_graphs=12)),
    ("lexicographic-oracle", suite_lexicographic_oracle, {}),
    ("noise-identities", suite_noise_identities, {}),
    ("bound-gap", suite_bound_gap, dict(qc_values=(1, 5, 13), n_sets=2, successes=10)),
)


def run_all(quick: bool = False) -> bool:
    """Run every suite, with smaller samples when quick; prints one line per
    suite."""
    all_ok = True
    for name, fn, quick_args in ALL_SUITES:
        ok, detail = fn(**quick_args) if quick else fn()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
