"""Discrete-timeslot Monte Carlo engine.

Each timeslot has two phases: every free tracked edge makes one Bernoulli
generation attempt, then, if that made a link, the protocol checks whether a
GHZ state can be realized (in other slots links only expire and decay, so a
failed check would fail again). A link is stored as the slot b it was made
in; in slot t it has age t - b and is usable while that age is below the
cutoff, so with a cutoff of 1 a link is usable only in the slot it was made in.

Randomness is derived from one root seed: trial k of user set s draws from
``Generator(PCG64(SeedSequence(seed, spawn_key=(0, s, k))))``, so results are
independent of execution order and experiments parallelise across user sets
without losing reproducibility. ``trial_rngs`` builds these generators bit
for bit without a ``SeedSequence`` per trial: it hashes the seed words of a
batch of trials in one numpy pass and hands each trial's words to numpy's
own PCG64 seeding. A trial takes its uniforms from a buffer of
``rng.random`` blocks, the values one ``rng.random(n_free)`` per slot would
give. Aggregation always merges results in user-set index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import protocols
from .protocols import TrialResult
from .routing import NoRouteError
from .topology import NetworkGraph


CHI2_999 = 10.827566170662733  # chi2.ppf(0.999, df=1), the 99.9% quantile

SEED_BATCH = 64                 # trials whose seed words are hashed in one pass
# numpy's SeedSequence hash (NEP 19) works on 32-bit words with these constants
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875       # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED       # generating words from the pool
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class ConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    """One experiment cell: a protocol on a graph at fixed noise and cutoff."""

    graph: NetworkGraph
    protocol: str
    delta: float
    q_c: int
    user_sets: tuple[tuple[int, ...], ...]
    target_successes: int = 100
    max_set_timeslots: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.q_c < 1:
            raise ConfigError(f"cutoff {self.q_c} must be at least 1")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"delta {self.delta} outside (0, 1]")
        if self.target_successes < 1:
            raise ConfigError("target_successes must be positive")
        if not self.user_sets:
            raise ConfigError("need at least one user set")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be non-negative")
        if self.max_set_timeslots < 1:
            raise ConfigError("timeslot budget must be positive")
        n_nodes = self.graph.n_nodes
        for users in self.user_sets:
            if len(users) < 2:
                raise ConfigError("need at least two users")
            if len(set(users)) != len(users):
                raise ConfigError(f"duplicate users in {tuple(users)}")
            outside = [u for u in users if not 0 <= u < n_nodes]
            if outside:
                raise ConfigError(f"users {outside} outside the node range [0, {n_nodes})")
        try:
            protocols.Protocol(self.protocol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


class LinkState:
    """One trial's links and its stream of uniforms.

    At slot ``t`` the link on edge ``i`` has age ``t - born[i]`` and is live
    while that age is below the cutoff; every edge starts free. ``buffer``
    holds ``rng``'s next uniforms, last first; ``filled`` counts those drawn.
    """

    def __init__(self, graph: NetworkGraph, q_c: int, rng=None):
        self.graph = graph
        self.q_c = int(q_c)
        self.t = 0
        self.born = [-self.q_c] * graph.n_edges
        self.rng = rng
        self.buffer: list[float] = []
        self.filled = 0


def step(links: LinkState, state: protocols.ProtocolState) -> bool:
    """Advance one timeslot and attempt generation on free tracked edges.

    Draws exactly one uniform per free tracked edge, in ascending edge order;
    occupied edges consume no randomness. A link that reaches the cutoff at
    this slot is free again and may be regenerated within it. Returns whether
    any link was made.
    """
    t = links.t = links.t + 1
    expired = t - links.q_c
    born, buffer = links.born, links.buffer
    made = False
    for i, p in state.tracked:
        if born[i] <= expired:
            if not buffer:
                block = min(4096, max(64, links.filled))
                buffer = links.buffer = links.rng.random(block)[::-1].tolist()
                links.filled += block
            if buffer.pop() < p:
                born[i] = t
                made = True
    return made


def run_trial(graph: NetworkGraph, state: protocols.ProtocolState, delta: float,
              q_c: int, max_timeslots: int, rng: np.random.Generator) -> TrialResult:
    """Step until one GHZ state is realized, checking after slots with a new link."""
    links = LinkState(graph, q_c, rng)
    for _ in range(max_timeslots):
        if step(links, state):
            plan = protocols.try_complete(state, links, delta)
            if plan is not None:
                return protocols.realize_ghz(plan, links, delta)
    return TrialResult(status="timeout", timeslots=max_timeslots)


@dataclass(frozen=True)
class SetMetrics:
    """Aggregated outcomes for one user set; the defaults describe a set
    that ran no trials ("infeasible" or "skipped")."""

    status: str                 # "ok", "infeasible" (no static route exists)
                                # or "skipped" (early omit)
    successes: int = 0
    timeouts: int = 0
    total_timeslots: int = 0
    dr: float = 0.0
    dr_ci: tuple[float, float] = (0.0, 0.0)
    mean_fidelity: float = math.nan
    mean_r_size: float = math.nan
    mean_age: float = math.nan
    trials: tuple[TrialResult, ...] = field(repr=False, default=())


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of 32-bit words held in a uint64 array: the hashed
    words and the next hash constant."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _trial_seed_words(pool: list[int], const: int, ks: np.ndarray) -> np.ndarray:
    """PCG64's four seed words for each trial index in ``ks``, one row per trial.

    Each index (below 2**32, so one entropy word) is mixed into ``pool``,
    whose next hash constant is ``const``. Then, as in
    ``generate_state(4, np.uint64)``, eight 32-bit words are hashed from the
    pool and paired little-endian.
    """
    pool = list(pool)
    for dst in range(4):
        hashed, const = _hash(ks, const, _MULT_A)
        mixed = (_MIX_L * pool[dst] - _MIX_R * hashed) & _M32
        pool[dst] = mixed ^ mixed >> 16
    const, out = _INIT_B, []
    for i in range(8):
        value, const = _hash(pool[i % 4], const, _MULT_B)
        out.append(value)
    return np.stack([lo | hi << 32 for lo, hi in zip(out[0::2], out[1::2])], axis=1)


def trial_rngs(seed: int, set_idx: int, first: int = 0):
    """Generators of trials ``first``, ``first + 1``, ... of user set ``set_idx``.

    Trial k's is ``Generator(PCG64(SeedSequence(seed, spawn_key=(0, set_idx,
    k))))`` bit for bit. k's entropy word comes last, so the pool before it
    is ``SeedSequence(seed, spawn_key=(0, set_idx))``'s; k is mixed in, and
    the PCG64 seed words generated, for SEED_BATCH trials at a time in exact
    uint32 arithmetic held in uint64 arrays. A k of 2**32 or more has two
    words, and SeedSequence seeds it itself.
    """
    # numpy.random is imported on first use, not with the engine (about 12 ms)
    class SeedWords(np.random.bit_generator.ISeedSequence):
        """Seed words computed ahead, for numpy's own PCG64 seeding, which
        asks for exactly these four uint64 words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    prefix = np.random.SeedSequence(seed, spawn_key=(0, set_idx))
    pool = [int(word) for word in prefix.pool]
    # the pool took 16 hashes to fill and cross-mix, then 4 per later word:
    # the seed's beyond the pool's 4 (it is padded to 4), 0 and set_idx's
    n_words = [max(1, (int(n).bit_length() + 31) // 32) for n in (seed, set_idx)]
    n_hashed = 16 + 4 * (max(n_words[0], 4) - 4 + 1 + n_words[1])
    const = _INIT_A * pow(_MULT_A, n_hashed, 2**32) & _M32
    k = first
    while k < 2**32:
        ks = np.arange(k, min(k + SEED_BATCH, 2**32), dtype=np.uint64)
        for words in _trial_seed_words(pool, const, ks):
            yield np.random.Generator(np.random.PCG64(SeedWords(words)))
        k += len(ks)
    while True:
        seq = np.random.SeedSequence(seed, spawn_key=(0, set_idx, k))
        yield np.random.Generator(np.random.PCG64(seq))
        k += 1


def run_user_set(config: SimConfig, users: tuple[int, ...], set_idx: int,
                 keep_trials: bool = True, states: dict | None = None) -> SetMetrics:
    """All trials for one user set, stopping at the success target or budget.

    ``states`` maps set indices to the protocol states planned for them (None
    where no static route exists); this set's is taken from it, or planned
    and added.
    """
    states = {} if states is None else states
    if set_idx not in states:
        try:
            states[set_idx] = protocols.initialize(config.protocol, config.graph, users)
        except NoRouteError:
            states[set_idx] = None
    state = states[set_idx]
    if state is None:
        return SetMetrics(status="infeasible")
    rngs = trial_rngs(config.seed, set_idx)
    consumed = 0
    trials: list[TrialResult] = []
    successes = 0
    timeouts = 0
    fid_sum = 0.0
    rs_sum = 0.0
    age_sum = 0.0
    while successes < config.target_successes and consumed < config.max_set_timeslots:
        cap = config.max_set_timeslots - consumed
        result = run_trial(config.graph, state, config.delta, config.q_c, cap, next(rngs))
        consumed += result.timeslots
        if result.success:
            successes += 1
            fid_sum += result.fidelity
            rs_sum += result.r_size
            age_sum += result.mean_age
        else:
            timeouts += 1
        if keep_trials:
            trials.append(result)
    dr = successes / consumed if consumed else 0.0
    ci = dr_confidence_interval(successes, consumed) if consumed else (0.0, 0.0)
    return SetMetrics(
        status="ok", successes=successes, timeouts=timeouts,
        total_timeslots=consumed, dr=dr, dr_ci=ci,
        mean_fidelity=fid_sum / successes if successes else math.nan,
        mean_r_size=rs_sum / successes if successes else math.nan,
        mean_age=age_sum / successes if successes else math.nan,
        trials=tuple(trials))


@dataclass(frozen=True)
class AggregateMetrics:
    """Pooled outcomes over all user sets of one experiment cell."""

    sets: tuple[SetMetrics, ...]
    dr: float
    dr_ci: tuple[float, float]
    mean_fidelity: float
    mean_r_size: float
    mean_age: float
    successes: int
    timeouts: int
    total_timeslots: int
    valid: bool                 # datapoint survives the omission rule
    omit_reason: str = ""


def _worker(args) -> tuple[SetMetrics, dict]:
    """One user set in a pool process, returned with the state planned for it."""
    *job, states = args
    return run_user_set(*job, states=states), states


def resolve_workers(workers: int | None = None) -> int:
    """Worker count for parallel user sets, capped by the CPU count."""
    if workers is not None and workers < 1:
        raise ConfigError(f"workers {workers} must be at least 1")
    cap = os.cpu_count() or 1
    return cap if workers is None else min(workers, cap)


def run_experiment(config: SimConfig, workers: int | None = None,
                   keep_trials: bool = True, states: dict | None = None) -> AggregateMetrics:
    """Run every user set and pool the results (merged in index order).

    A first user set with zero successes already dooms the datapoint under
    the omission rule, so the later sets are then skipped without changing
    any valid result. The first set always runs alone, so this decision is
    identical whether or not the remaining sets run in parallel.

    ``states`` is ``run_user_set``'s, for cells that differ only in cutoff to
    share; sets planned in pool processes are added to it as well.
    """
    states = {} if states is None else states
    jobs = [(config, users, i, keep_trials) for i, users in enumerate(config.user_sets)]
    first = run_user_set(*jobs[0], states=states)
    if len(jobs) > 1 and first.successes == 0:      # an infeasible set has none
        return aggregate((first,) + (SetMetrics(status="skipped"),) * (len(jobs) - 1))
    rest = jobs[1:]
    n_workers = resolve_workers(workers)
    if n_workers > 1 and len(rest) > 1:
        # each job carries only its own set's state, if planned
        own = [(*job, {i: s for i, s in states.items() if i == job[2]}) for job in rest]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            done = list(pool.map(_worker, own))
        for _, planned in done:
            states.update(planned)
        sets = [first] + [metrics for metrics, _ in done]
    else:
        sets = [first] + [run_user_set(*job, states=states) for job in rest]
    return aggregate(tuple(sets))


def aggregate(sets: tuple[SetMetrics, ...]) -> AggregateMetrics:
    """Pool per-set metrics and apply the omission rule.

    DR is pooled: total successes over total timeslots, the quantity that
    ``dr_ci`` describes. Fidelity, route size and link age are means of the
    per-set means over sets with at least one success. A skipped set adds
    nothing to any total.

    A datapoint is marked invalid when any user set recorded zero successes
    (including infeasible static routes) or the total success count falls
    below two per user set.
    """
    successes = sum(s.successes for s in sets)
    timeouts = sum(s.timeouts for s in sets)
    slots = sum(s.total_timeslots for s in sets)
    ok = [s for s in sets if s.successes > 0]
    min_total = 2 * len(sets)
    if any(s.status == "infeasible" for s in sets):
        reason = "infeasible user set"
    elif any(s.status == "skipped" for s in sets):
        reason = "stopped early: first user set had zero successes"
    elif any(s.successes == 0 for s in sets):
        reason = "user set with zero successes"
    elif successes < min_total:
        reason = f"only {successes} successes (minimum {min_total})"
    else:
        reason = ""
    dr = successes / slots if slots else 0.0
    ci = dr_confidence_interval(successes, slots) if slots else (0.0, 0.0)
    return AggregateMetrics(
        sets=sets, dr=dr, dr_ci=ci,
        mean_fidelity=float(np.mean([s.mean_fidelity for s in ok])) if ok else math.nan,
        mean_r_size=float(np.mean([s.mean_r_size for s in ok])) if ok else math.nan,
        mean_age=float(np.mean([s.mean_age for s in ok])) if ok else math.nan,
        successes=successes, timeouts=timeouts, total_timeslots=slots,
        valid=not reason, omit_reason=reason)


def dr_confidence_interval(successes: int, timeslots: int) -> tuple[float, float]:
    """99.9% likelihood-ratio confidence interval for a per-timeslot success rate.

    Contains every rate q whose log-likelihood is within the chi-square
    quantile of the maximum: 2 * (l(q_hat) - l(q)) <= CHI2_999. Each end is
    the last float inside that set, found by bisection from q_hat outwards.
    """
    if timeslots <= 0:
        raise ConfigError("need at least one timeslot")
    if not 0 <= successes <= timeslots:
        raise ConfigError("successes outside [0, timeslots]")
    s, n = successes, timeslots
    if s == 0:
        return 0.0, 1.0 - math.exp(-CHI2_999 / (2.0 * n))
    if s == n:
        return math.exp(-CHI2_999 / (2.0 * n)), 1.0

    q_hat = s / n
    peak = s * math.log(q_hat) + (n - s) * math.log1p(-q_hat)

    def end(inside: float, outside: float) -> float:
        while (mid := 0.5 * (inside + outside)) not in (inside, outside):
            if 2.0 * (peak - s * math.log(mid) - (n - s) * math.log1p(-mid)) <= CHI2_999:
                inside = mid
            else:
                outside = mid
        return inside

    return end(q_hat, 0.0), end(q_hat, 1.0)
