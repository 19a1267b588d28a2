"""The four distribution protocols: what to attempt each timeslot and when
a GHZ state can be realized.

Single-path protocols (sp-s, sp-t) fix one routing solution up front and
attempt link generation only on its edges; they complete when every planned
edge holds a live link. Multi-path protocols (mp-s, mp-t) attempt generation
on every edge and re-run routing on the link-state graph each timeslot,
completing as soon as any feasible solution exists; the solution returned is
the one maximising the Werner product over the current links. Their check
runs the most selective test first: the mp-s centre's live links, each
user's, then the live core (``topology.live_core``); routing sees only the
core's edges, on which it finds the same route as on every live link.

A route becomes a ``RealisationPlan`` before any state is realised from it:
single-path protocols plan once per user set, multi-path ones once per
routed solution, so a trial only gathers the ages of the route's links.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import routing
from .noise import (FusionOrder, check_werner, fuse_werner_tree, fusion_order,
                    werner_to_fidelity)
from .topology import NetworkGraph, TopologyError, canon, centroid_node, live_core


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


class RealisationPlan(NamedTuple):
    """Everything realising a GHZ state from ``route`` reads that the route
    and the graph fix; only the links' ages change from trial to trial.
    (A named tuple: mp-* builds one per routed solution, and it builds
    faster than a frozen dataclass.)"""

    route: routing.RoutingSolution
    edge_indices: tuple[int, ...]          # graph index of each of route.edges
    w0: tuple[float, ...]                  # their w0 values
    w0_prod: float                         # math.prod(w0)
    branches: tuple[tuple[int, ...], ...]  # per branch, route.edges positions in path order
    fusion: FusionOrder


def plan_realisation(route: routing.RoutingSolution, g: NetworkGraph,
                     users) -> RealisationPlan:
    """The realisation plan of ``route`` on ``g`` for ``users``."""
    position = {e: k for k, e in enumerate(route.edges)}.__getitem__
    branches = tuple([tuple(map(position, map(canon, path, path[1:])))
                      for path in route.branches])
    idx = tuple([g.edge_index[e] for e in route.edges])
    w0 = tuple([g.w0[i] for i in idx])
    return RealisationPlan(route, idx, w0, math.prod(w0), branches,
                           fusion_order(route.branches, users))


@dataclass(frozen=True)
class ProtocolState:
    """Immutable per-run protocol context, shared by all trials of a user set."""

    kind: Protocol
    users: tuple[int, ...]
    plan: RealisationPlan | None            # the planned route's, for sp-*
    center: int | None
    # (edge index, generation probability) in edge order where generation is
    # attempted: the planned route for single-path protocols, else every edge
    tracked: tuple[tuple[int, float], ...]
    user_incidence: tuple[tuple[int, ...], ...]   # per user, incident edge indices
    center_incidence: tuple[int, ...] | None


def initialize(kind: Protocol | str, g: NetworkGraph, users) -> ProtocolState:
    """Set up a protocol run: planned route for sp-*, centre node for mp-s."""
    kind = Protocol(kind)
    users = tuple(sorted(set(int(u) for u in users)))

    plan = None
    tracked = tuple(enumerate(g.gen_prob))
    center = None
    if kind.is_single_path:
        route = routing.select_single_path(g, users, kind.routing_kind)
        plan = plan_realisation(route, g, users)
        center = route.center
        tracked = tuple(sorted(tracked[i] for i in plan.edge_indices))
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
    return ProtocolState(kind=kind, users=users, plan=plan,
                         center=center, tracked=tracked,
                         user_incidence=user_inc, center_incidence=center_inc)


def try_complete(state: ProtocolState, links, delta: float) -> RealisationPlan | None:
    """Plan of a route realizable from the current links, if any.

    Single-path protocols return their plan only when its route is fully
    live. Multi-path protocols search the link-state graph and plan the
    solution found; cheap incidence checks, then the live-core search,
    reject most infeasible timeslots before any Werner value is computed.
    Each check only returns None, so their order changes no result.
    """
    born, t = links.born, links.t
    expired = t - links.q_c
    # plain loops, not all(<genexpr>): these run on every checked slot, and
    # a generator costs more than the few edge tests it makes
    if state.plan is not None:
        for i, _ in state.tracked:
            if born[i] <= expired:
                return None
        return state.plan
    # one live centre link per user: the most selective test, so it runs first
    if state.center_incidence is not None:
        live = 0
        for i in state.center_incidence:
            if born[i] > expired:
                live += 1
        if live < len(state.users):
            return None
    for inc in state.user_incidence:
        for i in inc:
            if born[i] > expired:
                break
        else:
            return None
    g = links.graph
    keep = state.users if state.center is None else (*state.users, state.center)
    core = live_core(g, born, expired, keep)
    if core is None:
        return None
    edges, w0 = g.edges, g.w0
    werner = {edges[i]: w0[i] * delta ** (t - born[i]) for i in core}
    route = routing.select_multipath(list(werner), werner, state.users,
                                     state.kind.routing_kind, center=state.center)
    return None if route is None else plan_realisation(route, g, state.users)


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


def realize_ghz(plan: RealisationPlan, links, delta: float) -> TrialResult:
    """Swap, fuse and trim the live links of ``plan``'s route into a GHZ state.

    Uses each link's decohered Werner parameter at its current age; each
    branch's links swap into one Werner state with their product. Raises if
    any route edge has no live link (caller bug).
    """
    t, all_born = links.t, links.born
    born = [all_born[i] for i in plan.edge_indices]
    if t - min(born) >= links.q_c:
        raise RuntimeError("routing solution includes an edge with no live link")
    # try_complete's expression, so these are the values routing ranked
    ws = [check_werner(w0 * delta ** (t - b)) for w0, b in zip(plan.w0, born)]
    w_at = ws.__getitem__
    branch_ws = [math.prod(map(w_at, path)) for path in plan.branches]
    prod_fb = math.prod(map(werner_to_fidelity, branch_ws))   # checks each value
    fidelity = fuse_werner_tree(plan.fusion, branch_ws)

    r_size = len(born)
    mean_age = (t * r_size - sum(born)) / r_size      # integer sum of ages
    floor = plan.w0_prod * delta ** (mean_age * r_size)
    return TrialResult(status="success", timeslots=t, fidelity=fidelity,
                       r_size=r_size, mean_age=mean_age, werner_product=math.prod(ws),
                       branch_fidelity_product=prod_fb, fidelity_floor=floor,
                       center=plan.route.center, edges=plan.route.edges)
