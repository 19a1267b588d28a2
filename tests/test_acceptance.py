"""End-to-end acceptance suite.

Every criterion prints one PASS/FAIL line. The heavy Monte Carlo sweeps are
deterministic for a fixed spec and program, so their results are cached on
disk under tests/.sweep_cache, keyed on the spec and a SHA-256 of the package
source (src/ghznetsim/*.py). Each entry's name starts with the source digest,
so a source change invalidates the cache by itself, and writing an entry
deletes those of any other source; set GHZNETSIM_TEST_CACHE=0 to bypass the
cache altogether.
"""

import hashlib
import math
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from ghznetsim import engine, experiments, noise, topology, validation
from ghznetsim.experiments import SweepSpec

CACHE_DIR = Path(__file__).parent / ".sweep_cache"
SOURCE_DIR = Path(engine.__file__).parent     # src/ghznetsim when run from the repo


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _source_digest() -> str:
    """SHA-256 over the package's source files, read in sorted order."""
    h = hashlib.sha256()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cached(key: str, builder):
    if os.environ.get("GHZNETSIM_TEST_CACHE", "1") == "0":
        return builder()
    CACHE_DIR.mkdir(exist_ok=True)
    source = _source_digest()[:16]
    path = CACHE_DIR / f"{source}-{hashlib.sha256(key.encode()).hexdigest()[:24]}.pkl"
    if path.exists():
        with open(path, "rb") as fh:
            return pickle.load(fh)
    value = builder()
    for stale in CACHE_DIR.glob("*.pkl"):
        if not stale.name.startswith(f"{source}-"):
            stale.unlink(missing_ok=True)
    with open(path, "wb") as fh:
        pickle.dump(value, fh)
    return value


def desk_spec(**overrides) -> SweepSpec:
    base = dict(
        protocols=("mp-t", "mp-s", "sp-t", "sp-s"),
        qc_values=(1, 2, 3, 5, 8, 13, 20),
        p_values=(0.1,), grid_sizes=(6,), w0=0.987, delta=0.99,
        users=None, n_users=4, user_sets=20, target_successes=100,
        max_set_timeslots=50_000, seed=2024)
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="session")
def sweep_p01():
    spec = desk_spec()
    return _cached(f"sweep:{spec!r}", lambda: experiments.run_sweep(spec, workers=1))


@pytest.fixture(scope="session")
def sweep_p02():
    spec = desk_spec(p_values=(0.2,))
    return _cached(f"sweep:{spec!r}", lambda: experiments.run_sweep(spec, workers=1))


@pytest.fixture(scope="session")
def sweep_p03():
    spec = desk_spec(p_values=(0.3,), protocols=("mp-t", "sp-t"))
    return _cached(f"sweep:{spec!r}", lambda: experiments.run_sweep(spec, workers=1))


@pytest.fixture(scope="session")
def distance_rows():
    spec = desk_spec(protocols=("mp-t", "sp-t"), qc_values=tuple(range(1, 21)),
                     p_values=(0.3,), grid_sizes=(3, 4, 5, 6),
                     target_successes=300, max_set_timeslots=40_000)
    return _cached(
        f"distance:{spec!r}",
        lambda: experiments.distance_experiment(spec, fidelity_floor=2.0 / 3.0,
                                                workers=1))


def test_criterion_01_state_oracle_agreement():
    ok, detail = validation.suite_state_oracle(n_trees=200, tol=1e-10)
    report("criterion 1 (closed form vs dense oracle)", ok, detail)


def test_criterion_02_star_closed_form():
    ok, detail = validation.suite_star_formula(n_samples=100, tol=1e-12)
    report("criterion 2 (star closed form vs dense)", ok, detail)


def test_criterion_03_lower_bound_chain(sweep_p01):
    stats = validation.bound_chain_stats(sweep_p01)
    gap = stats["mean_gap_usable"]
    ok = (stats["violations"] == 0 and not math.isnan(gap) and gap < 0.005)
    report(
        "criterion 3 (lower-bound chain and gap)", ok,
        f"{stats['states']} states, {stats['violations']} violations; "
        f"branch-product gap {gap * 100:.3f}% over cells with fidelity >= 2/3 "
        f"(all cells {stats['mean_gap_branch_product'] * 100:.2f}%; the plain "
        f"Werner-product gap is {stats['mean_gap_werner_product'] * 100:.2f}% "
        f"and cannot meet the 0.5% bound at these parameters)")


def test_criterion_04_routing_oracles():
    ok1, d1 = validation.suite_steiner_oracle()
    ok2, d2 = validation.suite_star_flow_oracle(n_graphs=40)
    report("criterion 4 (routing vs exhaustive enumeration)", ok1 and ok2,
           f"steiner: {d1}; star flow: {d2}")


def test_criterion_05_geometric_sanity():
    g = topology.NetworkGraph(2, [(0, 1, 0.1, 0.987)])
    config = engine.SimConfig(graph=g, protocol="sp-t", delta=0.99, q_c=1,
                              user_sets=((0, 1),), target_successes=10_000,
                              max_set_timeslots=10_000_000, seed=7)
    metrics = engine.run_experiment(config, workers=1, keep_trials=False)
    s = metrics.sets[0]
    mean_t = s.total_timeslots / s.successes
    sigma = math.sqrt(90.0 / 10_000)
    ok = abs(mean_t - 10.0) < 3.0 * sigma
    report("criterion 5 (geometric waiting time)", ok,
           f"mean T = {mean_t:.3f} over {s.successes} trials "
           f"(expect 10 +- {3 * sigma:.3f})")


def test_criterion_06_pareto_reproduction(sweep_p01):
    stats = experiments.comparison_stats(
        experiments.summary_dict(sweep_p01)["cells"], p=0.1, m=6)
    checks = {
        "mp-t dominates sp-t": stats.get("tree_dominates", False),
        "tree speedup in [5, 12]": 5.0 <= stats.get("tree_speedup", 0) <= 12.0,
        "tree fidelity gain in [15%, 40%]":
            0.15 <= stats.get("tree_fidelity_gain", 0) <= 0.40,
        "star speedup in [1.5, 3.5]":
            1.5 <= stats.get("star_speedup", 0) <= 3.5,
        "star fidelity gain in [8%, 25%]":
            0.08 <= stats.get("star_fidelity_gain", 0) <= 0.25,
    }
    detail = (f"tree speedup {stats.get('tree_speedup', float('nan')):.2f}, "
              f"tree gain {stats.get('tree_fidelity_gain', float('nan')) * 100:.1f}%, "
              f"star speedup {stats.get('star_speedup', float('nan')):.2f}, "
              f"star gain {stats.get('star_fidelity_gain', float('nan')) * 100:.1f}%, "
              f"dominates={stats.get('tree_dominates')}")
    failed = [name for name, good in checks.items() if not good]
    report("criterion 6 (rate/fidelity trade-off)", not failed,
           detail + (f"; failed: {failed}" if failed else ""))


def _mean_r_by_qc(cells, protocol):
    return {c.q_c: c.metrics.mean_r_size for c in cells
            if c.protocol == protocol and c.metrics.valid}


def _mean_age_by_qc(cells, protocol):
    return {c.q_c: c.metrics.mean_age for c in cells
            if c.protocol == protocol and c.metrics.valid}


def test_criterion_07_route_size_and_age(sweep_p02):
    results = {}
    ok_all = True
    for mp, sp in (("mp-t", "sp-t"), ("mp-s", "sp-s")):
        mp_r = _mean_r_by_qc(sweep_p02, mp)
        sp_r = _mean_r_by_qc(sweep_p02, sp)
        if not mp_r or not sp_r:
            ok_all = False
            results[mp] = "missing datapoints"
            continue
        sp_ref = float(np.mean(list(sp_r.values())))  # fixed route, Qc independent
        peak = max(mp_r.values()) / sp_ref - 1.0
        ok_peak = 0.20 <= peak <= 0.55
        mp_age = _mean_age_by_qc(sweep_p02, mp)
        sp_age = _mean_age_by_qc(sweep_p02, sp)
        shared = [q for q in mp_age if q in sp_age and q >= 5]
        ok_age = bool(shared) and all(mp_age[q] < sp_age[q] for q in shared)
        ok_all &= ok_peak and ok_age
        results[mp] = (f"peak route-size excess {peak * 100:.1f}% "
                       f"(window 20..55%), younger links at Qc>=5: {ok_age}")
    report("criterion 7 (route size and link age)", ok_all, str(results))


def test_criterion_08_distance_experiment(distance_rows):
    mp = {r.m: r for r in distance_rows if r.protocol == "mp-t"}
    sp = {r.m: r for r in distance_rows if r.protocol == "sp-t"}
    k_t = noise.percolation_min_rounds(0.3, 0.5)
    target = 1.0 / k_t
    mp_ok = all(mp[m].feasible and abs(mp[m].dr - target) <= 0.3 * target
                for m in (3, 4, 5, 6))
    sp_drs = [sp[m].dr for m in (3, 4, 5, 6) if sp[m].feasible]
    sp_decreasing = (len(sp_drs) == 4
                     and all(a > b for a, b in zip(sp_drs, sp_drs[1:])))
    speedup = mp[6].dr / sp[6].dr if (mp[6].feasible and sp[6].feasible
                                      and sp[6].dr > 0) else math.nan
    speed_ok = 30.0 <= speedup <= 130.0
    detail = (f"mp-t DR at M=3..6: {[round(mp[m].dr, 4) for m in (3, 4, 5, 6)]} "
              f"(target {target:.2f} +-30%); sp-t DR: "
              f"{[round(sp[m].dr, 5) for m in (3, 4, 5, 6)]}; "
              f"speedup at M=6: {speedup:.1f} (window 30..130)")
    report("criterion 8 (distance experiment)", mp_ok and sp_decreasing and speed_ok,
           detail)


def test_criterion_09_appendix_spot_checks(sweep_p02, sweep_p03):
    s2 = experiments.comparison_stats(
        experiments.summary_dict(sweep_p02)["cells"], p=0.2, m=6)
    s3 = experiments.comparison_stats(
        experiments.summary_dict(sweep_p03)["cells"], p=0.3, m=6)
    checks = {
        "p=0.2 speedup in [6, 13]": 6.0 <= s2.get("tree_speedup", 0) <= 13.0,
        "p=0.2 fidelity gain in [18%, 42%]":
            0.18 <= s2.get("tree_fidelity_gain", 0) <= 0.42,
        "p=0.3 speedup in [5, 11]": 5.0 <= s3.get("tree_speedup", 0) <= 11.0,
    }
    failed = [name for name, good in checks.items() if not good]
    detail = (f"p=0.2: speedup {s2.get('tree_speedup', float('nan')):.2f}, "
              f"gain {s2.get('tree_fidelity_gain', float('nan')) * 100:.1f}%; "
              f"p=0.3: speedup {s3.get('tree_speedup', float('nan')):.2f}")
    report("criterion 9 (appendix spot checks)", not failed,
           detail + (f"; failed: {failed}" if failed else ""))


def test_criterion_10_percolation_rounds():
    got = {(p, pc): noise.percolation_min_rounds(p, pc)
           for p, pc in ((0.5, 0.5), (0.3, 0.5), (0.1, 0.5))}
    want = {(0.5, 0.5): 1, (0.3, 0.5): 2, (0.1, 0.5): 7}
    report("criterion 10 (percolation rounds)", got == want, f"{got}")


def test_criterion_11_determinism(tmp_path):
    spec = desk_spec(protocols=("mp-t", "mp-s"), qc_values=(2, 4),
                     user_sets=4, target_successes=15, max_set_timeslots=15_000)
    files = {}
    for name, workers in (("serial", 1), ("parallel", 4)):
        cells = experiments.run_sweep(spec, workers=workers)
        path = tmp_path / f"{name}.csv"
        experiments.write_csv(cells, path)
        experiments.write_trials_jsonl(cells, tmp_path / f"{name}.jsonl", "all")
        files[name] = (path.read_bytes(),
                       (tmp_path / f"{name}.jsonl").read_bytes())
    rerun = experiments.run_sweep(spec, workers=1)
    experiments.write_csv(rerun, tmp_path / "rerun.csv")
    same_bytes = files["serial"][0] == (tmp_path / "rerun.csv").read_bytes()
    parallel_matches = files["serial"] == files["parallel"]
    report("criterion 11 (byte-identical determinism)",
           same_bytes and parallel_matches,
           f"serial rerun identical: {same_bytes}; "
           f"parallel matches serial: {parallel_matches}")
