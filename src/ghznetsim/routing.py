"""Route selection on probability- or fidelity-weighted graphs.

All algorithms maximise a product of edge values in (0, 1] by minimising the
sum of per-edge costs ``-log(value)``. A cost has three components compared
lexicographically: a primary float, a secondary float and an integer hop
count. The secondary component carries two-step objectives (e.g. success
probability first, Werner product as tie-break) in a single pass and is 0.0
when there is none; every edge adds one hop, so ties never leave zero-cost
cycles. Edges with primary value 0 are unusable and dropped.

The three components are held in parallel lists indexed by a dense node
index (nodes in ascending id order) or by arc id, so the inner loops of the
Steiner DP, the star flow and Dijkstra do scalar arithmetic only. All
tie-breaks are deterministic: adjacency is iterated in ascending neighbour
order and heaps are keyed by (primary, secondary, hops, node).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .topology import NetworkGraph, canon, peel_leaves, reachable, users_connected

Edge = tuple[int, int]

# stand-in for an infinite cost component; keeps residual-arc arithmetic finite
_HUGE_COST = 1e18
_INF = math.inf
# the exact Steiner DP is exponential in the number of terminals
_EXACT_TERMINALS = 6


class RoutingError(ValueError):
    """Invalid routing input."""


class NoRouteError(RoutingError):
    """No feasible routing solution exists."""


class UnsupportedSizeError(RoutingError):
    """Instance too large for the exact algorithm."""


def edge_cost_map(edges: Iterable[Edge], primary: Mapping[Edge, float],
                  secondary: Mapping[Edge, float] | None = None
                  ) -> dict[Edge, tuple[float, float]]:
    """(primary, secondary) cost per usable edge; every edge also costs one hop.

    Primary-value-0 edges are dropped (a route through them can never be
    used); a secondary value of 0 costs infinity but keeps the edge usable
    for the primary objective. Without a secondary map that component is 0.0.
    """
    costs: dict[Edge, tuple[float, float]] = {}
    for e in edges:
        e = canon(*e)
        p = primary[e]
        if not 0.0 <= p <= 1.0:
            raise RoutingError(f"edge value {p} outside [0, 1] on {e}")
        if p == 0.0:
            continue
        cs = 0.0
        if secondary is not None:
            s = secondary[e]
            if not 0.0 <= s <= 1.0:
                raise RoutingError(f"edge value {s} outside [0, 1] on {e}")
            cs = _HUGE_COST if s == 0.0 else -math.log(s)
        costs[e] = (-math.log(p), cs)
    return costs


def _relax(adj: list, cp: list, cs: list, ch: list, prov: list,
           heap: list, stop: int = -1) -> None:
    """Dijkstra from the seeded heap over costs held in ``cp/cs/ch``.

    Improves the per-node cost lists in place, records the predecessor of
    every improved node in ``prov`` and returns early once node ``stop`` is
    settled. Heap entries are (primary, secondary, hops, node).
    """
    done = [False] * len(adj)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, ds, dh, x = pop(heap)
        if done[x]:
            continue
        if x == stop:
            return
        done[x] = True
        dh += 1
        for y, ep, es in adj[x]:
            nd = d + ep
            py = cp[y]
            if nd > py:
                continue
            ns = ds + es
            if nd == py and (ns > cs[y] or (ns == cs[y] and dh >= ch[y])):
                continue
            cp[y] = nd
            cs[y] = ns
            ch[y] = dh
            prov[y] = x
            push(heap, (nd, ns, dh, y))


class _Net:
    """Adjacency over a cost-weighted undirected edge set.

    Nodes are renumbered 0..n-1 in ascending id order (``nodes`` maps back,
    ``index`` forward), so index order and id order agree in every
    tie-break. ``adj[i]`` lists (neighbour, primary, secondary) by neighbour.
    """

    def __init__(self, edge_costs: Mapping[Edge, tuple[float, float]]):
        self.nodes = sorted({x for e in edge_costs for x in e})
        self.index = {x: i for i, x in enumerate(self.nodes)}
        self.adj: list[list[tuple[int, float, float]]] = [[] for _ in self.nodes]
        for (u, v), (ep, es) in edge_costs.items():
            iu, iv = self.index[u], self.index[v]
            self.adj[iu].append((iv, ep, es))
            self.adj[iv].append((iu, ep, es))
        for nbrs in self.adj:
            nbrs.sort()

    def costs(self) -> tuple[list[float], list[float], list[int], list[int]]:
        """Fresh (primary, secondary, hops, provenance) lists, all unreached."""
        n = len(self.nodes)
        return [_INF] * n, [0.0] * n, [0] * n, [-1] * n

    def dijkstra(self, source: int) -> tuple[list[float], list[float], list[int], list[int]]:
        """Cheapest costs from node index ``source`` and each node's parent index."""
        cp, cs, ch, parent = self.costs()
        cp[source] = 0.0
        _relax(self.adj, cp, cs, ch, parent, [(0.0, 0.0, 0, source)])
        return cp, cs, ch, parent


@dataclass(frozen=True)
class RoutingSolution:
    """A route as its branches: node paths whose edges together connect the users.

    A tree has no ``center``: its branches are the decomposition
    ``decompose_tree_branches`` makes, paths between users and forks (nodes
    of degree >= 3). A star's branches are edge-disjoint paths from each
    user to the hub ``center``; they may pass through other users. ``edges``
    is the sorted union of the branch edges.
    """

    branches: tuple[tuple[int, ...], ...]
    center: int | None = None
    edges: tuple[Edge, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(
            {canon(u, v) for path in self.branches for u, v in zip(path, path[1:])})))

    @property
    def size(self) -> int:
        return len(self.edges)

    def check(self, users: Sequence[int]) -> None:
        """Validate structural invariants; raises RoutingError on failure."""
        if sum(len(path) - 1 for path in self.branches) != len(self.edges):
            raise RoutingError("branches share an edge")
        if self.center is None:
            want, _ = decompose_tree_branches(self.edges, users)
            if _undirected(self.branches) != _undirected(want):
                raise RoutingError("not the tree's branches: a branch interior holds "
                                   "a user or fork, or a branch ends at neither")
        else:
            if self.center in users:
                raise RoutingError("centre coincides with a user")
            if sorted(path[0] for path in self.branches) != sorted(set(users)):
                raise RoutingError("star branches do not start at the users")
            if any(path[-1] != self.center for path in self.branches):
                raise RoutingError("star branch does not reach the centre")


def _undirected(paths: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    return sorted(min(tuple(p), tuple(reversed(p))) for p in paths)


def decompose_tree_branches(edges: Sequence[Edge],
                            users: Sequence[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Split a tree into branches between users and forks.

    Returns (branches, forks); each branch is a node path, forks are the
    nodes of degree >= 3. Rejects inputs that are not trees spanning the
    users or that have dangling non-user leaves.
    """
    users_set = set(int(u) for u in users)
    edge_set = {canon(*e) for e in edges}
    if len(edge_set) != len(list(edges)):
        raise RoutingError("duplicate edges")
    adj: dict[int, list[int]] = {}
    for u, v in edge_set:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for nbrs in adj.values():
        nbrs.sort()
    if not users_set <= adj.keys():
        raise RoutingError("tree does not span the users")
    if not adj:
        raise RoutingError("edge set is empty")
    if len(reachable(adj, next(iter(adj)))) != len(adj):
        raise RoutingError("edge set is not connected")
    if len(edge_set) != len(adj) - 1:
        raise RoutingError("edge set is not a tree")
    for node, nbrs in adj.items():
        if len(nbrs) == 1 and node not in users_set:
            raise RoutingError(f"non-user leaf {node}")

    forks = sorted(node for node, nbrs in adj.items() if len(nbrs) >= 3)
    endpoints = users_set | set(forks)
    branches: list[tuple[int, ...]] = []
    used: set[Edge] = set()
    for endpoint in sorted(endpoints):
        for nbr in adj[endpoint]:
            e = canon(endpoint, nbr)
            if e in used:
                continue
            path = [endpoint, nbr]
            used.add(e)
            # past the tree checks, every node but an endpoint has two neighbours
            while path[-1] not in endpoints:
                prev, here = path[-2], path[-1]
                a, b = adj[here]
                nxt = b if a == prev else a
                path.append(nxt)
                used.add(canon(here, nxt))
            branches.append(tuple(path))
    return branches, forks


def _tree_solution(edges: set[Edge], users: Sequence[int]) -> RoutingSolution:
    return RoutingSolution(tuple(decompose_tree_branches(edges, users)[0]))


def _steiner_dp(net: _Net, terminals: Sequence[int]) -> set[Edge]:
    """Exact minimum-cost Steiner tree by dynamic programming over terminal subsets.

    ``terminals`` are node indices. For every terminal subset ``mask``,
    ``dp[mask]`` holds per-node lists (primary, secondary, hops, provenance)
    of the cheapest tree joining the subset to each node. Provenance is -1
    for a terminal seed, a parent node >= 0 for an edge step and ``~sub``
    for a merge of the subtrees of ``sub`` and ``mask ^ sub``.
    """
    adj = net.adj
    full = (1 << len(terminals)) - 1
    dp: list = [None] * (full + 1)
    for i, t in enumerate(terminals):
        dp[1 << i] = net.dijkstra(t)
    root = terminals[0]
    if any(dp[1][0][t] == _INF for t in terminals):
        raise NoRouteError("terminals are not connected")
    # every subset's tree reaches exactly the terminals' component
    reach = [v for v, c in enumerate(dp[1][0]) if c != _INF]

    for mask in range(3, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        dp[mask] = cp, cs, ch, prov = net.costs()
        sub = (mask - 1) & mask
        while sub:
            # canonical split: the half containing the lowest terminal
            if sub & low:
                ap, as_, ah, _ = dp[sub]
                bp, bs, bh, _ = dp[mask ^ sub]
                merged = ~sub
                for v in reach:
                    nd = ap[v] + bp[v]
                    pv = cp[v]
                    if nd > pv:
                        continue
                    ns = as_[v] + bs[v]
                    nh = ah[v] + bh[v]
                    if nd == pv and (ns > cs[v] or (ns == cs[v] and nh >= ch[v])):
                        continue
                    cp[v] = nd
                    cs[v] = ns
                    ch[v] = nh
                    prov[v] = merged
            sub = (sub - 1) & mask
        heap = [(cp[v], cs[v], ch[v], v) for v in reach]
        heapq.heapify(heap)
        # only the root of the full set is read back, and it is final once settled
        _relax(adj, cp, cs, ch, prov, heap, stop=root if mask == full else -1)

    nodes = net.nodes
    edges: set[Edge] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        how = dp[mask][3][v]
        if how >= 0:
            edges.add(canon(nodes[how], nodes[v]))
            stack.append((mask, how))
        elif how != -1:
            stack.append((~how, v))
            stack.append((mask ^ ~how, v))
    return edges


def exact_steiner_tree(edges: Sequence[Edge], values: Mapping[Edge, float],
                       terminals: Sequence[int],
                       secondary: Mapping[Edge, float] | None = None) -> RoutingSolution:
    """Tree spanning the terminals with maximal edge-value product, exactly.

    Dynamic programming over terminal subsets, at most ``_EXACT_TERMINALS``
    of them. Every edge adds a hop, so the optimum has no non-terminal leaf.
    """
    terminals = sorted(set(int(t) for t in terminals))
    if len(terminals) < 2:
        raise RoutingError("need at least two terminals")
    if len(terminals) > _EXACT_TERMINALS:
        raise UnsupportedSizeError(
            f"exact Steiner search limited to {_EXACT_TERMINALS} terminals")
    net = _Net(edge_cost_map(edges, values, secondary))
    for t in terminals:
        if t not in net.index:
            raise NoRouteError(f"terminal {t} has no usable edges")
    tree = _steiner_dp(net, [net.index[t] for t in terminals])
    return _tree_solution(tree, terminals)


def approx_steiner_tree(edges: Sequence[Edge], values: Mapping[Edge, float],
                        terminals: Sequence[int]) -> RoutingSolution:
    """Kou-Markowsky-Berman 2-approximation of the maximum-product Steiner
    tree: the paths of the metric closure's minimum spanning tree, thinned."""
    terminals = sorted(set(int(t) for t in terminals))
    if len(terminals) < 2:
        raise RoutingError("need at least two terminals")
    net = _Net(edge_cost_map(edges, values))
    index = net.index
    spt: dict[int, tuple] = {}
    for t in terminals:
        if t not in index:
            raise NoRouteError(f"terminal {t} has no usable edges")
        spt[t] = net.dijkstra(index[t])
    # minimum spanning tree over the terminal metric closure (Prim)
    in_tree = {terminals[0]}
    closure_edges: list[tuple[int, int]] = []
    while len(in_tree) < len(terminals):
        best = None
        for a in sorted(in_tree):
            cp, cs, ch, _ = spt[a]
            for b in terminals:
                if b in in_tree:
                    continue
                ib = index[b]
                if cp[ib] == _INF:
                    raise NoRouteError("terminals are not connected")
                cand = (cp[ib], cs[ib], ch[ib], a, b)
                if best is None or cand < best:
                    best = cand
        a, b = best[3:]
        closure_edges.append((a, b))
        in_tree.add(b)
    tree: set[Edge] = set()
    for a, b in closure_edges:
        parent = spt[a][3]
        x, ia = index[b], index[a]
        while x != ia:
            p = parent[x]
            tree.add(canon(net.nodes[p], net.nodes[x]))
            x = p
    # overlapping closure paths can create cycles
    return _spanning_fallback(tree, values, terminals)


def steiner_tree(edges: Sequence[Edge], values: Mapping[Edge, float],
                 terminals: Sequence[int],
                 secondary: Mapping[Edge, float] | None = None) -> RoutingSolution:
    """Maximum-product Steiner tree: exact up to ``_EXACT_TERMINALS``
    terminals, the metric-closure approximation (which has no secondary
    objective) beyond."""
    if len(set(int(t) for t in terminals)) <= _EXACT_TERMINALS:
        return exact_steiner_tree(edges, values, terminals, secondary=secondary)
    return approx_steiner_tree(edges, values, terminals)


def _spanning_fallback(tree: set[Edge], values: Mapping[Edge, float],
                       terminals: Sequence[int]) -> RoutingSolution:
    """Cheapest spanning tree of the closure-path union (Kruskal), then prune."""
    ranked = sorted(tree, key=lambda e: (-math.log(values[e]), e))
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: set[Edge] = set()
    adj: dict[int, list[int]] = {}
    for e in ranked:
        ra, rb = find(e[0]), find(e[1])
        if ra != rb:
            parent[ra] = rb
            chosen.add(e)
            adj.setdefault(e[0], []).append(e[1])
            adj.setdefault(e[1], []).append(e[0])
    removed = peel_leaves(adj, set(terminals))
    return _tree_solution({e for e in chosen if removed.isdisjoint(e)}, terminals)


class _FlowNet:
    """Unit-capacity flow from a centre to a sink behind every user.

    Arcs are held in parallel lists ``to``, ``cap``, ``flow`` and
    ``cost_p``/``cost_s``/``cost_h`` indexed by arc id; arc ``i ^ 1`` is the
    residual of arc ``i``. Node index 0 is the sink and real nodes follow in
    ascending id order, so the sink sorts first as it would with id -1.
    Without ``costs`` no cost lists are built and only ``saturate`` runs.

    ``send`` finds min-cost augmenting paths with a Bellman-Ford queue, which
    stays correct on the negative-cost residual arcs without potential
    bookkeeping; the graphs here are tiny.
    """

    def __init__(self, edges: Sequence[Edge], users: Sequence[int],
                 costs: Mapping[Edge, tuple[float, float]] | None = None):
        self.nodes = [-1] + sorted({x for e in edges for x in e} | set(users))
        self.index = index = {x: i for i, x in enumerate(self.nodes)}
        self.out: list[list[int]] = [[] for _ in self.nodes]
        self.to: list[int] = []
        to, out = self.to, self.out
        for u, v in edges:
            iu, iv, i = index[u], index[v], len(to)
            # u->v and its residual, then v->u and its residual
            to += (iv, iu, iu, iv)
            out[iu] += (i, i + 3)
            out[iv] += (i + 1, i + 2)
        for u in users:
            iu, i = index[u], len(to)
            to += (0, iu)
            out[iu].append(i)
            out[0].append(i + 1)
        self.cap = [1, 0] * (len(to) // 2)
        self.flow = [0] * len(to)
        if costs is not None:
            self.cost_p: list[float] = []
            self.cost_s: list[float] = []
            for e in edges:
                ep, es = costs[e]
                self.cost_p += (ep, -ep, ep, -ep)
                self.cost_s += (es, -es, es, -es)
            self.cost_p += (0.0, -0.0) * len(users)
            self.cost_s += (0.0, -0.0) * len(users)
            self.cost_h = [1, -1] * (2 * len(edges)) + [0, 0] * len(users)

    def _augment(self, source: int, prev_arc: list[int]) -> None:
        """Push one unit along the arcs recorded back from the sink."""
        to, flow = self.to, self.flow
        x = 0
        while x != source:
            ai = prev_arc[x]
            flow[ai] += 1
            flow[ai ^ 1] -= 1
            x = to[ai ^ 1]

    def saturate(self, source: int, units: int) -> int:
        """Augment up to ``units`` along any paths (BFS); returns count."""
        to, cap, flow, out = self.to, self.cap, self.flow, self.out
        for sent in range(units):
            prev_arc = [-1] * len(out)
            prev_arc[source] = -2
            queue = deque([source])
            while queue and prev_arc[0] == -1:
                x = queue.popleft()
                for ai in out[x]:
                    y = to[ai]
                    if cap[ai] > flow[ai] and prev_arc[y] == -1:
                        prev_arc[y] = ai
                        queue.append(y)
            if prev_arc[0] == -1:
                return sent
            self._augment(source, prev_arc)
        return units

    def send(self, source: int, units: int, tol: float = 1e-12) -> int:
        """Augment up to ``units`` along successive cheapest paths; returns count.

        Relaxation uses a lexicographic less-than that treats components
        within ``tol`` as ties: rounding drift between equal-cost paths would
        otherwise fabricate epsilon-negative residual cycles and the search
        would circle them forever.
        """
        to, cap, flow, out = self.to, self.cap, self.flow, self.out
        arc_p, arc_s, arc_h = self.cost_p, self.cost_s, self.cost_h
        n = len(out)
        relax_budget = 200 * n * max(1, len(to))
        for sent in range(units):
            cp, cs, ch = [_INF] * n, [0.0] * n, [0] * n
            prev_arc = [-1] * n
            queued = [False] * n
            cp[source] = 0.0
            queued[source] = True
            queue = deque([source])
            spent = 0
            while queue:
                x = queue.popleft()
                queued[x] = False
                d, ds, dh = cp[x], cs[x], ch[x]
                for ai in out[x]:
                    if cap[ai] - flow[ai] <= 0:
                        continue
                    spent += 1
                    y = to[ai]
                    nd = d + arc_p[ai]
                    py = cp[y]
                    if nd > py + tol:
                        continue
                    ns = ds + arc_s[ai]
                    nh = dh + arc_h[ai]
                    if not nd < py - tol:
                        sy = cs[y]
                        if ns > sy + tol or (not ns < sy - tol and not nh < ch[y] - tol):
                            continue
                    cp[y] = nd
                    cs[y] = ns
                    ch[y] = nh
                    prev_arc[y] = ai
                    if y != 0 and not queued[y]:
                        queued[y] = True
                        queue.append(y)
                if spent > relax_budget:
                    raise RoutingError("flow relaxation failed to converge")
            if prev_arc[0] == -1:
                return sent
            self._augment(source, prev_arc)
        return units

    def path_decomposition(self, source: int) -> list[list[int]]:
        """Follow positive flows from the source; one node-id path per sink unit."""
        succ: list[list[int]] = [sorted(self.to[ai] for ai in arcs if self.flow[ai] > 0)
                                 for arcs in self.out]
        paths = []
        while succ[source]:
            path = [source]
            while path[-1] != 0:
                path.append(succ[path[-1]].pop(0))
            paths.append([self.nodes[x] for x in path[:-1]])
        return paths


def star_route(edges: Sequence[Edge], values: Mapping[Edge, float],
               users: Sequence[int], center: int,
               secondary: Mapping[Edge, float] | None = None) -> RoutingSolution:
    """Edge-disjoint min-cost paths from the centre to every user (unit capacities)."""
    users = sorted(set(int(u) for u in users))
    if center in users:
        raise RoutingError("centre node cannot be a user")
    costs = edge_cost_map(edges, values, secondary)
    flow = _FlowNet(sorted(costs), users, costs)
    if center not in flow.index:
        raise NoRouteError("centre has no usable edges")
    source = flow.index[center]
    if flow.send(source, len(users)) < len(users):
        raise NoRouteError("no edge-disjoint path system to all users")
    paths = flow.path_decomposition(source)
    return RoutingSolution(tuple(sorted(tuple(reversed(p)) for p in paths)), center)


def star_flow_feasible(edges: Sequence[Edge], users: Sequence[int], center: int) -> bool:
    """True if unit-capacity edge-disjoint paths reach every user from the centre.

    Plain BFS augmentation without costs; much cheaper than the min-cost
    pass, so callers use it to filter infeasible link-state snapshots.
    """
    users = sorted(set(int(u) for u in users))
    # one unit of capacity per distinct edge, as in star_route's cost map
    flow = _FlowNet(sorted({canon(*e) for e in edges}), users)
    if center not in flow.index:
        return False
    return flow.saturate(flow.index[center], len(users)) == len(users)


def select_single_path(g: NetworkGraph, users: Sequence[int],
                       kind: str) -> RoutingSolution:
    """Static routing solution maximising the one-shot success probability.

    Ties between equal-probability solutions are broken by the largest
    fresh-link Werner product; for stars the centre with the smallest id
    wins remaining ties.

    A star's branches are paths from its centre to each user, so the sum of
    the centre's shortest-path costs to the users bounds its primary cost
    from below. Centres are tried in order of that bound, and the search
    stops once the bound exceeds the best star's cost by more than float
    drift, so no centre that could win or tie is skipped.
    """
    users = sorted(set(int(u) for u in users))
    p_map = dict(zip(g.edges, g.gen_prob))
    w_map = dict(zip(g.edges, g.w0))
    if kind == "tree":
        return steiner_tree(g.edges, p_map, users, secondary=w_map)
    if kind != "star":
        raise RoutingError(f"unknown routing kind {kind!r}")
    costs = edge_cost_map(g.edges, p_map, w_map)
    net = _Net(costs)
    bound = [0.0] * len(net.nodes)
    for u in users:
        if u not in net.index:
            raise NoRouteError("no feasible star for any centre")
        dist = net.dijkstra(net.index[u])[0]
        bound = [b + d for b, d in zip(bound, dist)]
    best: tuple | None = None
    best_solution = None
    for lower, center in sorted(zip(bound, net.nodes)):
        if center in users:
            continue
        if best is not None and lower > best[0] + 1e-9 * max(1.0, best[0]):
            break
        try:
            sol = star_route(g.edges, p_map, users, center, secondary=w_map)
        except NoRouteError:
            continue
        cost = (math.fsum(costs[e][0] for e in sol.edges),
                math.fsum(costs[e][1] for e in sol.edges), sol.size, center)
        if best is None or cost < best:
            best = cost
            best_solution = sol
    if best_solution is None:
        raise NoRouteError("no feasible star for any centre")
    return best_solution


def select_multipath(live_edges: Sequence[Edge], werner: Mapping[Edge, float],
                     users: Sequence[int], kind: str,
                     center: int | None = None) -> RoutingSolution | None:
    """Best routing solution on the current link-state graph, or None.

    Maximises the Werner product over the live links; links of Werner
    parameter 0 are unusable and dropped before any check. Infeasibility
    (users not connected, or no full star flow) is a normal outcome.
    """
    users = sorted(set(int(u) for u in users))
    if 0.0 in werner.values():
        live_edges = [e for e in live_edges if werner[canon(*e)] != 0.0]
    if kind == "tree":
        if not users_connected(live_edges, users):
            return None
        return steiner_tree(live_edges, werner, users)
    if kind != "star":
        raise RoutingError(f"unknown routing kind {kind!r}")
    if center is None:
        raise RoutingError("star routing needs a centre")
    if not users_connected(live_edges, list(users) + [center]):
        return None
    if not star_flow_feasible(live_edges, users, center):
        return None
    return star_route(live_edges, werner, users, center)
