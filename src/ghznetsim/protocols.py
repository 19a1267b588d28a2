"""The four distribution protocols: what to attempt each timeslot and when
a GHZ state can be realized.

Single-path protocols (sp-s, sp-t) fix one routing solution up front and
attempt link generation only on its edges; they complete when every planned
edge holds a live link. Multi-path protocols (mp-s, mp-t) attempt generation
on every edge and re-run routing on the link-state graph each timeslot,
completing as soon as any feasible solution exists; the solution returned is
the one maximising the Werner product over the current links.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import routing
from .noise import check_werner, werner_to_fidelity, werner_tree_fidelity
from .topology import NetworkGraph, TopologyError, centroid_node


class Protocol(str, enum.Enum):
    SP_S = "sp-s"
    SP_T = "sp-t"
    MP_S = "mp-s"
    MP_T = "mp-t"

    @property
    def is_single_path(self) -> bool:
        return self in (Protocol.SP_S, Protocol.SP_T)

    @property
    def routing_kind(self) -> str:
        return "star" if self in (Protocol.SP_S, Protocol.MP_S) else "tree"


@dataclass(frozen=True)
class ProtocolState:
    """Immutable per-run protocol context, shared by all trials of a user set."""

    kind: Protocol
    users: tuple[int, ...]
    planned_route: routing.RoutingSolution | None
    center: int | None
    # (edge index, generation probability) in edge order where generation is
    # attempted: the planned route for single-path protocols, else every edge
    tracked: tuple[tuple[int, float], ...]
    user_incidence: tuple[tuple[int, ...], ...]   # per user, incident edge indices
    center_incidence: tuple[int, ...] | None


def initialize(kind: Protocol | str, g: NetworkGraph, users) -> ProtocolState:
    """Set up a protocol run: fixed route for sp-*, centre node for mp-s."""
    kind = Protocol(kind)
    users = tuple(sorted(set(int(u) for u in users)))

    planned = None
    tracked = tuple(enumerate(g.gen_prob))
    center = None
    if kind.is_single_path:
        planned = routing.select_single_path(g, users, kind.routing_kind)
        center = planned.center
        tracked = tuple(sorted(tracked[g.edge_index[e]] for e in planned.edges))
    else:
        if kind is Protocol.MP_S:
            # the centre must be able to host one disjoint branch per user,
            # so nodes of insufficient degree are skipped along with users
            too_small = [v for v in range(g.n_nodes) if len(g.adj[v]) < len(users)]
            try:
                center = centroid_node(g, users,
                                       exclude=set(users) | set(too_small))
            except TopologyError as exc:
                raise routing.NoRouteError(
                    f"no viable centre node for {len(users)} users") from exc

    user_inc = tuple(tuple(i for _, i in g.adj[u]) for u in users)
    center_inc = tuple(i for _, i in g.adj[center]) if kind is Protocol.MP_S else None
    return ProtocolState(kind=kind, users=users, planned_route=planned,
                         center=center, tracked=tracked,
                         user_incidence=user_inc, center_incidence=center_inc)


def try_complete(state: ProtocolState, links, delta: float) -> routing.RoutingSolution | None:
    """Routing solution realizable from the current links, if any.

    Single-path protocols return their planned route only when it is fully
    live. Multi-path protocols search the link-state graph; cheap incidence
    checks reject most infeasible timeslots before any graph algorithm runs.
    """
    born, t = links.born, links.t
    expired = t - links.q_c
    if state.planned_route is not None:
        all_live = all(born[i] > expired for i, _ in state.tracked)
        return state.planned_route if all_live else None
    for inc in state.user_incidence:
        if all(born[i] <= expired for i in inc):
            return None
    if state.center_incidence is not None:
        if sum(born[i] > expired for i in state.center_incidence) < len(state.users):
            return None
    edges, w0 = links.graph.edges, links.graph.w0
    werner = {edges[i]: w0[i] * delta ** (t - b)
              for i, b in enumerate(born) if b > expired}
    return routing.select_multipath(list(werner), werner, state.users,
                                    state.kind.routing_kind, center=state.center)


@dataclass(frozen=True)
class TrialResult:
    """One independent run until a GHZ state is distributed or time runs out."""

    status: str                 # "success" or "timeout"
    timeslots: int
    fidelity: float = math.nan
    r_size: int = 0
    mean_age: float = math.nan
    werner_product: float = math.nan           # product of link Werner parameters
    branch_fidelity_product: float = math.nan  # product of per-branch Bell fidelities
    fidelity_floor: float = math.nan           # w0^|R| * delta^(mean_age |R|) bound
    center: int | None = None
    edges: tuple[tuple[int, int], ...] = ()

    @property
    def success(self) -> bool:
        return self.status == "success"


def realize_ghz(solution: routing.RoutingSolution, links, delta: float,
                users) -> TrialResult:
    """Swap, fuse and trim the live links of ``solution`` into a GHZ state.

    Uses each link's decohered Werner parameter at its current age; each
    branch's links swap into one Werner state with their product. Raises if
    any solution edge has no live link (caller bug).
    """
    graph, t = links.graph, links.t
    idx = [graph.edge_index[e] for e in solution.edges]
    born = [links.born[i] for i in idx]
    if t - min(born) >= links.q_c:
        raise RuntimeError("routing solution includes an edge with no live link")
    w0 = graph.w0
    # try_complete's expression, so these are the values routing ranked
    w_use = {e: w0[i] * delta ** (t - b) for e, i, b in zip(solution.edges, idx, born)}

    branches = [(a, b, math.prod(map(check_werner, ws)))
                for a, b, ws in routing.branch_specs(solution.branches, w_use)]
    prod_fb = math.prod(werner_to_fidelity(w) for _, _, w in branches)
    fidelity = werner_tree_fidelity(branches, users)

    mean_age = sum(t - b for b in born) / len(born)
    r_size = len(solution.edges)
    w_r = math.prod(w_use.values())
    w0_prod = math.prod(w0[i] for i in idx)
    floor = w0_prod * delta ** (mean_age * r_size)
    return TrialResult(status="success", timeslots=links.t, fidelity=fidelity,
                       r_size=r_size, mean_age=mean_age, werner_product=w_r,
                       branch_fidelity_product=prod_fb, fidelity_floor=floor,
                       center=solution.center, edges=solution.edges)
