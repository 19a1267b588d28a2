"""Static network topology: graphs, grids, connectivity and hop-distance utilities.

Nodes are dense integers ``0..n-1``. Edges are unordered pairs ``(u, v)`` with
``u < v``, each carrying a Bell-state generation probability and an initial
Werner parameter, held as tuples of floats in edge order. A graph is
checked to be connected when it is built, is immutable after that, and is
safe to share between threads or processes.

``live_core`` is the trial loop's connectivity test: it walks a graph's
live links by edge index, reading birth slots in place, and returns the
edges left once ``peel_leaves`` has removed the non-user leaves.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Iterable, Mapping, Sequence


class TopologyError(ValueError):
    """Raised for malformed graphs, edges or user sets."""


def canon(u: int, v: int) -> tuple[int, int]:
    """The edge ``{u, v}`` as the ordered pair ``(min, max)``."""
    return (u, v) if u < v else (v, u)


class NetworkGraph:
    """Connected simple undirected graph with per-edge generation probability and w0."""

    def __init__(self, n_nodes: int, edges: Iterable[tuple[int, int, float, float]]):
        if n_nodes < 1:
            raise TopologyError("graph needs at least one node")
        self.n_nodes = int(n_nodes)
        edge_list: list[tuple[int, int]] = []
        gen_prob: list[float] = []
        w0: list[float] = []
        seen: set[tuple[int, int]] = set()
        for u, v, p, w in edges:
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            e = canon(int(u), int(v))
            if not (0 <= e[0] and e[1] < self.n_nodes):
                raise TopologyError(f"edge {e} out of node range 0..{self.n_nodes - 1}")
            if e in seen:
                raise TopologyError(f"parallel edge {e}")
            if not 0.0 <= p <= 1.0:
                raise TopologyError(f"gen_prob {p} outside [0, 1] on edge {e}")
            if not 0.0 <= w <= 1.0:
                raise TopologyError(f"w0 {w} outside [0, 1] on edge {e}")
            seen.add(e)
            edge_list.append(e)
            gen_prob.append(float(p))
            w0.append(float(w))
        if self.n_nodes > 1 and not users_connected(edge_list, range(self.n_nodes)):
            raise TopologyError("graph is not connected")
        order = sorted(range(len(edge_list)), key=lambda i: edge_list[i])
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_list[i] for i in order)
        self.gen_prob: tuple[float, ...] = tuple(gen_prob[i] for i in order)
        self.w0: tuple[float, ...] = tuple(w0[i] for i in order)
        self.edge_index: dict[tuple[int, int], int] = {e: i for i, e in enumerate(self.edges)}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_nodes)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        # (neighbour, edge index) pairs in neighbour order: deterministic traversal
        self.adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(sorted(a)) for a in adj
        )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def hop_distances(self, source: int) -> list[int]:
        """Unweighted shortest-path hop distance from ``source`` to every node."""
        dist = [-1] * self.n_nodes
        dist[source] = 0
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y, _ in self.adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def __repr__(self) -> str:
        return f"NetworkGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def make_grid(m: int, gen_prob: float, w0: float) -> NetworkGraph:
    """Build an M x M square lattice with uniform edge parameters.

    Nodes are numbered row-major, so node (r, c) has id ``r * m + c``. The
    lattice has ``m**2`` nodes and ``2 * m * (m - 1)`` edges.
    """
    if m < 2:
        raise TopologyError(f"grid size must be at least 2, got {m}")
    edges = []
    for r in range(m):
        for c in range(m):
            node = r * m + c
            if c + 1 < m:
                edges.append((node, node + 1, gen_prob, w0))
            if r + 1 < m:
                edges.append((node, node + m, gen_prob, w0))
    return NetworkGraph(m * m, edges)


def users_connected(edges: Iterable[tuple[int, int]], users: Iterable[int]) -> bool:
    """True if all users lie in one connected component of the edge set.

    A user that no edge touches counts as disconnected.
    """
    users = [int(u) for u in users]
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return users[0] in adj and reachable(adj, users[0]).issuperset(users)


def reachable(adj: Mapping[int, Iterable[int]], source: int) -> set[int]:
    """Nodes reachable from ``source`` over an adjacency mapping."""
    seen = {source}
    stack = [source]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def peel_leaves(adj: Mapping[int, Sequence[int]], keep: Container[int]) -> set[int]:
    """Nodes deleted by repeatedly deleting a node of degree 1 not in ``keep``.

    One linear pass over a stack of such leaves: deleting one lowers its
    neighbour's degree, which may make the neighbour the next leaf. What
    remains does not depend on the deletion order.
    """
    degree = {x: len(nbrs) for x, nbrs in adj.items()}
    stack = [x for x, d in degree.items() if d == 1 and x not in keep]
    removed: set[int] = set()
    while stack:
        x = stack.pop()
        removed.add(x)
        for y in adj[x]:
            if y not in removed:
                degree[y] -= 1
                if degree[y] == 1 and y not in keep:
                    stack.append(y)
    return removed


def live_core(g: NetworkGraph, born: Sequence[int], expired: int,
              keep: Sequence[int]) -> list[int] | None:
    """Ascending indices of the live edges a route joining ``keep`` can use.

    Edge ``i`` is live while ``born[i] > expired``. Searches the live edges
    from ``keep[0]`` by graph index and returns None if some ``keep`` node
    is not reached; otherwise peels the non-``keep`` leaves of that
    component and returns the edges left. Other components and the peeled
    trees hang off no path between two kept nodes, so a cheapest tree or
    star over the live edges never enters them.
    """
    adj = g.adj
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        for y, i in adj[stack.pop()]:
            if born[i] > expired and y not in seen:
                seen.add(y)
                stack.append(y)
    for k in keep:
        if k not in seen:
            return None
    core = seen - peel_leaves(
        {x: [y for y, i in adj[x] if born[i] > expired] for x in seen}, keep)
    return [i for i, (u, v) in enumerate(g.edges)
            if born[i] > expired and u in core and v in core]


def _check_users(g: NetworkGraph, users: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(u) for u in users)
    for u in out:
        if not 0 <= u < g.n_nodes:
            raise TopologyError(f"user {u} not a node of the graph")
    return out


def steiner_distance(g: NetworkGraph, users: Sequence[int]) -> int:
    """Edge count of a minimum Steiner tree connecting the users (unit weights)."""
    terminals = _check_users(g, users)
    if len(set(terminals)) < 2:
        return 0
    from . import routing

    unit = {e: 1.0 for e in g.edges}
    return len(routing.steiner_tree(g.edges, unit, terminals).edges)


def centroid_node(g: NetworkGraph, users: Sequence[int],
                  exclude: Iterable[int] = ()) -> int:
    """Node minimising total hop distance to the users.

    Grid graphs tie many nodes on the plain distance sum, so ties prefer the
    most balanced node (smallest sum of squared distances) and then the
    smallest id. ``exclude`` removes candidate nodes (used when the centre of
    a star route must not coincide with a user).
    """
    terminals = _check_users(g, users)
    excluded = set(exclude)
    totals = [0] * g.n_nodes
    squares = [0] * g.n_nodes
    for u in terminals:
        dist = g.hop_distances(u)
        for v in range(g.n_nodes):
            totals[v] += dist[v]
            squares[v] += dist[v] * dist[v]
    best = None
    for v in range(g.n_nodes):
        if v in excluded:
            continue
        if best is None or (totals[v], squares[v]) < (totals[best], squares[best]):
            best = v
    if best is None:
        raise TopologyError("all candidate centroid nodes excluded")
    return best
