"""Experiment sweeps, matched protocol comparisons and result files.

A sweep runs one experiment cell per (protocol, generation probability,
cutoff, grid size) combination from one root seed, and every cell of a grid
size runs the same user sets. The cells of one (grid size, p) share one
graph, on which each protocol plans a user set once. Results are written as
a CSV of per-set and pooled rows, a JSON summary, and optionally JSON-lines
trial records.
All floating-point output uses 17 significant digits so files round-trip
exactly and re-runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine, topology
from .engine import AggregateMetrics, ConfigError, SimConfig

CSV_HEADER = ("protocol,p,Qc,M,user_set,dr,dr_lo,dr_hi,mean_fidelity,"
              "mean_r_size,mean_age,successes,timeouts")

# desk scale resolves the trends in minutes; full scale mirrors the
# 100-set, 300-success, 1e6-slot setting used for the headline figures
SCALES = {
    "desk": dict(user_sets=20, target_successes=100, max_set_timeslots=50_000),
    "full": dict(user_sets=100, target_successes=300, max_set_timeslots=1_000_000),
}

FIDELITY_FLOOR = 2.0 / 3.0      # usefulness floor: distance default, validate cut


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass(frozen=True)
class SweepSpec:
    """Axes and base parameters for a sweep of experiment cells."""

    protocols: tuple[str, ...] = ("mp-t", "mp-s", "sp-t", "sp-s")
    qc_values: tuple[int, ...] = tuple(range(1, 21))
    p_values: tuple[float, ...] = (0.1,)
    grid_sizes: tuple[int, ...] = (6,)
    w0: float = 0.987
    delta: float = 0.99
    users: tuple[int, ...] | None = None     # explicit set; None samples
    n_users: int = 4
    user_sets: int = SCALES["desk"]["user_sets"]
    target_successes: int = SCALES["desk"]["target_successes"]
    max_set_timeslots: int = SCALES["desk"]["max_set_timeslots"]
    seed: int = 2024

    def __post_init__(self):
        for name in ("protocols", "qc_values", "p_values", "grid_sizes"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"sweep axis {name} is empty")
            # a repeated value would run its cells twice and write each twice
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ConfigError(f"sweep axis {name} repeats {v}")


@dataclass(frozen=True)
class CellResult:
    protocol: str
    p: float
    q_c: int
    m: int
    metrics: AggregateMetrics


def user_sets(spec: SweepSpec, n_nodes: int) -> tuple[tuple[int, ...], ...]:
    """The user sets that every cell on an ``n_nodes`` graph runs: the spec's
    explicit set, once, or ``spec.user_sets`` sets drawn from the root seed."""
    if spec.users is not None:
        return (tuple(sorted(int(u) for u in spec.users)),)
    # checked here, before sampling, because numpy's own errors would escape
    if spec.n_users < 2:
        raise ConfigError("need at least two users")
    if spec.n_users > n_nodes:
        raise ConfigError(f"{spec.n_users} users but only {n_nodes} nodes")
    if spec.user_sets < 1:
        raise ConfigError("user_sets must be positive")
    if spec.seed < 0:
        raise ConfigError(f"seed {spec.seed} must be non-negative")
    seq = np.random.SeedSequence(spec.seed, spawn_key=(1,))
    rng = np.random.Generator(np.random.PCG64(seq))
    picks = (rng.choice(n_nodes, size=spec.n_users, replace=False)
             for _ in range(spec.user_sets))
    return tuple(tuple(sorted(int(u) for u in pick)) for pick in picks)


def cell_config(spec: SweepSpec, graph: topology.NetworkGraph, protocol: str,
                q_c: int, sets: tuple[tuple[int, ...], ...]) -> SimConfig:
    """One cell of the sweep, on ``graph`` and its user sets ``sets``."""
    return SimConfig(
        graph=graph, protocol=protocol, delta=spec.delta,
        q_c=q_c, user_sets=sets, target_successes=spec.target_successes,
        max_set_timeslots=spec.max_set_timeslots, seed=spec.seed)


def run_sweep(spec: SweepSpec, workers: int | None = None, keep_trials: bool = True,
              progress=None, start=None, grid_users=None) -> list[CellResult]:
    """Every cell, in order: ``start()`` runs once all are checked, ``progress(cell)``
    after each; ``grid_users(m)``, if given, is each m x m cell's one user set.

    The cells of one (m, p) share one graph, and those that differ only in
    cutoff share their protocol states, so each user set is planned at most
    once per protocol; nothing planned outlives the call.
    """
    # every cell's configuration is built, and so checked, before any cell runs
    sets = {m: (grid_users(m),) if grid_users else user_sets(spec, m * m)
            for m in spec.grid_sizes}
    graphs = {(m, p): topology.make_grid(m, p, spec.w0)
              for m in spec.grid_sizes for p in spec.p_values}
    plan = [(protocol, p, q_c, m, cell_config(spec, graphs[m, p], protocol, q_c, sets[m]))
            for m in spec.grid_sizes for p in spec.p_values
            for protocol in spec.protocols for q_c in spec.qc_values]
    if start is not None:
        start()
    states: dict[tuple, dict] = {}      # (m, p, protocol) -> run_user_set's states
    cells = []
    for protocol, p, q_c, m, config in plan:
        metrics = engine.run_experiment(config, workers=workers, keep_trials=keep_trials,
                                        states=states.setdefault((m, p, protocol), {}))
        cells.append(CellResult(protocol, p, q_c, m, metrics))
        if progress is not None:
            progress(cells[-1])
    return cells


def csv_rows(cells: list[CellResult]) -> list[str]:
    """Each cell's per-set rows, then its pooled row; both records name the same fields."""
    rows = [CSV_HEADER]
    for cell in cells:
        met = cell.metrics
        for label, s in [*enumerate(met.sets), ("pooled", met)]:
            rows.append(",".join(fmt(v) for v in (
                cell.protocol, cell.p, cell.q_c, cell.m, label,
                s.dr, s.dr_ci[0], s.dr_ci[1], s.mean_fidelity,
                s.mean_r_size, s.mean_age, s.successes, s.timeouts)))
    return rows


def write_csv(cells: list[CellResult], path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(csv_rows(cells)) + "\n")


def write_trials_jsonl(cells: list[CellResult], path, which: str = "successes") -> None:
    """Per-trial records, one JSON object per line.

    ``which`` chooses "successes", "all" or "none"; "none" writes nothing and
    removes a file left at ``path``, so no other sweep's trials stay behind.
    """
    if which not in ("successes", "all", "none"):
        raise ValueError(f"trial log {which!r} is not one of 'successes', 'all', 'none'")
    if which == "none":
        Path(path).unlink(missing_ok=True)
        return
    with open(path, "w") as fh:
        for cell in cells:
            for set_idx, s in enumerate(cell.metrics.sets):
                for trial_idx, t in enumerate(s.trials):
                    if which == "successes" and not t.success:
                        continue
                    record = {
                        "protocol": cell.protocol, "p": cell.p, "Qc": cell.q_c,
                        "M": cell.m, "user_set": set_idx, "trial": trial_idx,
                        "status": t.status, "T": t.timeslots,
                        "fidelity": t.fidelity, "r_size": t.r_size,
                        "mean_age": t.mean_age, "werner_product": t.werner_product,
                        "branch_fidelity_product": t.branch_fidelity_product,
                        "fidelity_floor": t.fidelity_floor,
                        "center": t.center, "edges": [list(e) for e in t.edges],
                    }
                    fh.write(json.dumps(record, sort_keys=True) + "\n")


def summary_dict(cells: list[CellResult]) -> dict:
    out = []
    for cell in cells:
        met = cell.metrics
        out.append({
            "protocol": cell.protocol, "p": cell.p, "Qc": cell.q_c, "M": cell.m,
            "dr": met.dr, "dr_ci": list(met.dr_ci),
            "mean_fidelity": met.mean_fidelity, "mean_r_size": met.mean_r_size,
            "mean_age": met.mean_age, "successes": met.successes,
            "timeouts": met.timeouts, "total_timeslots": met.total_timeslots,
            "valid": met.valid, "omit_reason": met.omit_reason,
        })
    return {"cells": out}


def write_summary(cells: list[CellResult], path, extra: dict | None = None) -> None:
    payload = summary_dict(cells)
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# matched protocol comparisons

@dataclass(frozen=True)
class Point:
    q_c: int
    dr: float
    fidelity: float


def valid_points(rows: list[dict], protocol: str,
                 p: float | None = None, m: int | None = None) -> list[Point]:
    """Valid cells of one protocol, from ``summary_dict`` rows."""
    pts = []
    for row in rows:
        if row["protocol"] != protocol:
            continue
        if p is not None and row["p"] != p:
            continue
        if m is not None and row["M"] != m:
            continue
        if row["valid"]:
            pts.append(Point(row["Qc"], row["dr"], row["mean_fidelity"]))
    return pts


def pareto_frontier(points: list[Point]) -> list[Point]:
    """Points not weakly dominated (rate and fidelity) by any other point."""
    frontier = []
    for a in points:
        dominated = any(
            (b.dr >= a.dr and b.fidelity >= a.fidelity) and
            (b.dr > a.dr or b.fidelity > a.fidelity)
            for b in points if b is not a)
        if not dominated:
            frontier.append(a)
    return sorted(frontier, key=lambda pt: pt.q_c)


def frontier_dominates(better: list[Point], worse: list[Point]) -> bool:
    """True if every point of ``worse`` is weakly dominated by some ``better`` point."""
    return all(
        any(b.dr >= w.dr and b.fidelity >= w.fidelity for b in better)
        for w in worse)


def _best_matched_ratio(ours: list[Point], base: list[Point], gain: str,
                       hold: str) -> float:
    """Largest ratio of ``gain`` between point pairs where ours is at least
    as good as the base on ``hold``; nan if no pair qualifies."""
    return max((getattr(a, gain) / getattr(b, gain) for a in ours for b in base
                if getattr(a, hold) >= getattr(b, hold) and getattr(b, gain) > 0),
               default=math.nan)


def max_rate_speedup(fast: list[Point], slow: list[Point]) -> float:
    """Largest rate ratio between point pairs where the fast protocol's
    fidelity is at least as good as the slow one's."""
    return _best_matched_ratio(fast, slow, "dr", "fidelity")


def max_fidelity_gain(better: list[Point], base: list[Point]) -> float:
    """Largest relative fidelity gain between point pairs where the improved
    protocol's rate is at least as good as the baseline's."""
    return _best_matched_ratio(better, base, "fidelity", "dr") - 1.0


def comparison_stats(rows: list[dict], p: float | None = None,
                     m: int | None = None) -> dict:
    """Tree and star matched comparisons plus per-protocol frontiers, from
    ``summary_dict`` rows."""
    pts = {proto: valid_points(rows, proto, p=p, m=m)
           for proto in ("mp-t", "sp-t", "mp-s", "sp-s")}
    stats = {
        "points": {proto: [vars(pt) for pt in series] for proto, series in pts.items()},
        "frontier": {proto: [vars(pt) for pt in pareto_frontier(series)]
                     for proto, series in pts.items()},
    }
    if pts["mp-t"] and pts["sp-t"]:
        stats["tree_speedup"] = max_rate_speedup(pts["mp-t"], pts["sp-t"])
        stats["tree_fidelity_gain"] = max_fidelity_gain(pts["mp-t"], pts["sp-t"])
        stats["tree_dominates"] = frontier_dominates(pts["mp-t"], pts["sp-t"])
    if pts["mp-s"] and pts["sp-s"]:
        stats["star_speedup"] = max_rate_speedup(pts["mp-s"], pts["sp-s"])
        stats["star_fidelity_gain"] = max_fidelity_gain(pts["mp-s"], pts["sp-s"])
        stats["star_dominates"] = frontier_dominates(pts["mp-s"], pts["sp-s"])
    return stats


# ---------------------------------------------------------------------------
# distance experiment: corner users, cutoff optimised under a fidelity floor

@dataclass(frozen=True)
class DistanceRow:
    protocol: str
    m: int
    steiner_distance: int
    best_qc: int | None
    dr: float
    dr_ci: tuple[float, float]
    mean_fidelity: float
    feasible: bool


def _corners(m: int) -> tuple[int, ...]:
    return (0, m - 1, m * (m - 1), m * m - 1)


def distance_experiment(spec: SweepSpec, fidelity_floor: float = FIDELITY_FLOOR,
                        workers: int | None = None, progress=None,
                        start=None) -> list[DistanceRow]:
    """For each protocol and grid size, the cutoff maximising the rate while
    the mean fidelity stays at or above the floor, at the spec's one p, for
    users on the grid's corners; ``progress`` and ``start`` are ``run_sweep``'s."""
    if not 0.0 <= fidelity_floor <= 1.0:
        raise ConfigError(f"fidelity floor {fidelity_floor} outside [0, 1]")
    if len(spec.p_values) > 1:
        raise ConfigError(f"distance experiment takes one p, not {list(spec.p_values)}")
    if spec.users is not None:
        raise ConfigError("distance experiment places its users on the grid corners")
    cells = run_sweep(spec, workers=workers, keep_trials=False, progress=progress,
                      start=start, grid_users=_corners)
    rows = []
    # one run of cutoffs per (grid size, protocol), in sweep order
    for i in range(0, len(cells), len(spec.qc_values)):
        runs = cells[i:i + len(spec.qc_values)]
        protocol, m = runs[0].protocol, runs[0].m
        dist = topology.steiner_distance(topology.make_grid(m, runs[0].p, spec.w0),
                                         _corners(m))
        best = max((c for c in runs if c.metrics.valid
                    and c.metrics.mean_fidelity >= fidelity_floor),
                   key=lambda c: c.metrics.dr, default=None)
        if best is None:
            rows.append(DistanceRow(protocol, m, dist, None, 0.0, (0.0, 0.0),
                                    math.nan, False))
        else:
            met = best.metrics
            rows.append(DistanceRow(protocol, m, dist, best.q_c, met.dr,
                                    met.dr_ci, met.mean_fidelity, True))
    return rows


def write_distance_csv(rows: list[DistanceRow], path) -> None:
    header = "protocol,M,steiner_distance,best_Qc,dr,dr_lo,dr_hi,mean_fidelity,feasible"
    lines = [header]
    for r in rows:
        lines.append(",".join(fmt(v) for v in (
            r.protocol, r.m, r.steiner_distance,
            r.best_qc if r.best_qc is not None else -1,
            r.dr, r.dr_ci[0], r.dr_ci[1], r.mean_fidelity, int(r.feasible))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
