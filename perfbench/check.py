"""Output check for every benchmark cell, done from outside the program.

A cell is one (user set, protocol, cutoff) experiment; a sweep point is one
(protocol, cutoff) pooled over the workload's user sets, as the program pools
a cell over its user sets. A cell passes when

- every success satisfies the bound chain that ``validation.bound_chain_stats``
  checks (fidelity >= branch-fidelity product >= Werner product, and fidelity
  >= the age floor), with fidelity in (0, 1];
- every success's recorded edges connect its users, plus the centre for
  star protocols;
- its 99.9% DR interval overlaps the reference cell's interval;

and its sweep point passes:

- the point's pooled 99.9% DR interval overlaps the reference point's;
- its pooled mean fidelity is within FID_ABS_TOL + FID_SIGMAS standard errors
  of the reference's, the error estimated from the run's per-success spread
  within user sets, pooled over them. Only user sets with at least two
  successes on both sides count, and the test needs FID_MIN_SUCCESSES
  successes of them on each side: routes, and so fidelities, differ widely
  between the few successes of a budget-exhausted cell, and the spread of so
  few is no estimate of the error.

The reference is the concatenation of the per-user-set ``results.csv`` files
that the seed code wrote at the default seed, so it also serves the
byte-identity report.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

CHAIN_TOL = 1e-12            # as in validation.bound_chain_stats
FID_ABS_TOL = 0.002
FID_SIGMAS = 5.0
FID_MIN_SUCCESSES = 20
CHI2_999 = 10.827566170662733   # chi-square quantile at 0.999, one degree of freedom
CSV_HEADER = ("protocol,p,Qc,M,user_set,dr,dr_lo,dr_hi,mean_fidelity,"
              "mean_r_size,mean_age,successes,timeouts")
STAR_PROTOCOLS = ("sp-s", "mp-s")


@dataclass
class Success:
    fidelity: float
    werner_product: float
    branch_fidelity_product: float
    fidelity_floor: float
    center: int | None
    edges: tuple


@dataclass
class Cell:
    set_idx: int
    protocol: str
    qc: int
    users: tuple
    successes: int
    timeslots: int
    dr_lo: float
    dr_hi: float
    mean_fidelity: float
    trials: list = field(default_factory=list)    # Success records

    @property
    def key(self) -> tuple:
        return (self.set_idx, self.protocol, self.qc)


def parse_results(text: str) -> dict[tuple, dict]:
    """Pooled rows of concatenated results.csv files, keyed like Cell.key.

    Each file starts with the header line and covers one user set, so the
    n-th header opens user set n.
    """
    rows: dict[tuple, dict] = {}
    set_idx = -1
    columns = CSV_HEADER.split(",")
    for line in text.splitlines():
        if line == CSV_HEADER:
            set_idx += 1
            continue
        row = dict(zip(columns, line.split(",")))
        if set_idx < 0 or len(row) != len(columns):
            raise ValueError(f"malformed results line {line!r}")
        if row["user_set"] != "pooled":
            continue
        rows[(set_idx, row["protocol"], int(row["Qc"]))] = {
            "dr": float(row["dr"]), "dr_lo": float(row["dr_lo"]), "dr_hi": float(row["dr_hi"]),
            "mean_fidelity": float(row["mean_fidelity"]),
            "successes": int(row["successes"]),
        }
    return rows


def connected(edges, nodes) -> bool:
    """True if ``nodes`` all lie in one component of the edge set."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    nodes = list(nodes)
    if any(n not in adj for n in nodes):
        return False
    seen = {nodes[0]}
    todo = [nodes[0]]
    while todo:
        for y in adj[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return all(n in seen for n in nodes)


def check_cell(cell: Cell, reference: dict[tuple, dict]) -> list[str]:
    """Problems found in one cell; empty when it passes."""
    problems = []
    star = cell.protocol in STAR_PROTOCOLS
    for i, t in enumerate(cell.trials):
        if not 0.0 < t.fidelity <= 1.0:
            problems.append(f"success {i}: fidelity {t.fidelity} outside (0, 1]")
        if not (t.fidelity >= t.branch_fidelity_product - CHAIN_TOL
                and t.branch_fidelity_product >= t.werner_product - CHAIN_TOL
                and t.fidelity >= t.fidelity_floor - CHAIN_TOL):
            problems.append(f"success {i}: bound chain violated")
        ends = list(cell.users)
        if star:
            if t.center is None:
                problems.append(f"success {i}: star without a centre")
                continue
            ends.append(t.center)
        if not connected(t.edges, ends):
            problems.append(f"success {i}: edges do not connect {ends}")
    if len(cell.trials) != cell.successes:
        problems.append(f"{len(cell.trials)} success records for {cell.successes} successes")

    ref = reference.get(cell.key)
    if ref is None:
        return problems + ["no reference cell"]
    if not (cell.dr_lo <= ref["dr_hi"] and ref["dr_lo"] <= cell.dr_hi):
        problems.append(f"DR interval [{cell.dr_lo:.4g}, {cell.dr_hi:.4g}] misses reference "
                        f"[{ref['dr_lo']:.4g}, {ref['dr_hi']:.4g}]")
    return problems


def rate_interval(successes: int, timeslots: int) -> tuple[float, float]:
    """99.9% likelihood-ratio interval of a per-timeslot success rate."""
    s, n = successes, timeslots
    edge = math.exp(-CHI2_999 / (2.0 * n))
    if s == 0:
        return 0.0, 1.0 - edge
    if s == n:
        return edge, 1.0
    q = s / n
    peak = s * math.log(q) + (n - s) * math.log1p(-q)

    def outside(x: float) -> bool:
        return 2.0 * (peak - s * math.log(x) - (n - s) * math.log1p(-x)) > CHI2_999

    def bisect(inner: float, outer: float) -> float:
        for _ in range(200):
            mid = 0.5 * (inner + outer)
            if outside(mid):
                outer = mid
            else:
                inner = mid
        return inner

    return bisect(q, 0.0), bisect(q, 1.0)


def check_point(cells: list[Cell], reference: dict[tuple, dict], budget: int) -> list[str]:
    """Problems of one sweep point, given all its cells.

    A reference set without successes ran its whole timeslot ``budget``;
    otherwise its timeslots are its successes over its DR.
    """
    refs = [reference.get(c.key) for c in cells]
    if None in refs:
        return ["no reference cell"]
    problems = []
    lo, hi = rate_interval(sum(c.successes for c in cells), sum(c.timeslots for c in cells))
    ref_slots = sum(round(r["successes"] / r["dr"]) if r["successes"] else budget for r in refs)
    ref_lo, ref_hi = rate_interval(sum(r["successes"] for r in refs), ref_slots)
    if not (lo <= ref_hi and ref_lo <= hi):
        problems.append(f"pooled DR interval [{lo:.4g}, {hi:.4g}] misses reference "
                        f"[{ref_lo:.4g}, {ref_hi:.4g}]")
    pairs = [(c, r) for c, r in zip(cells, refs) if c.successes >= 2 and r["successes"] >= 2]
    n_run = sum(c.successes for c, _ in pairs)
    n_ref = sum(r["successes"] for _, r in pairs)
    if min(n_run, n_ref) >= FID_MIN_SUCCESSES:
        mean = sum(c.successes * c.mean_fidelity for c, _ in pairs) / n_run
        ref_mean = sum(r["successes"] * r["mean_fidelity"] for _, r in pairs) / n_ref
        within = sum((c.successes - 1) * statistics.variance(t.fidelity for t in c.trials)
                     for c, _ in pairs) / sum(c.successes - 1 for c, _ in pairs)
        tol = FID_ABS_TOL + FID_SIGMAS * math.sqrt(within * (1 / n_run + 1 / n_ref))
        if not abs(mean - ref_mean) <= tol:
            problems.append(f"pooled mean fidelity {mean:.6f} vs reference {ref_mean:.6f} "
                            f"(tolerance {tol:.6f})")
    return problems
