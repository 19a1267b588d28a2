import json
import math

import pytest

from ghznetsim import experiments, routing
from ghznetsim.engine import ConfigError
from ghznetsim.experiments import (
    Point,
    SweepSpec,
    comparison_stats,
    frontier_dominates,
    max_fidelity_gain,
    max_rate_speedup,
    pareto_frontier,
    run_sweep,
)


def tiny_spec(**overrides):
    base = dict(protocols=("mp-t",), qc_values=(2,), p_values=(0.4,),
                grid_sizes=(3,), users=(0, 8), target_successes=8,
                max_set_timeslots=5_000, seed=10)
    base.update(overrides)
    return SweepSpec(**base)


def test_run_sweep_cells_and_csv(tmp_path):
    cells = run_sweep(tiny_spec(protocols=("mp-t", "sp-t")), workers=1)
    assert [c.protocol for c in cells] == ["mp-t", "sp-t"]
    path = tmp_path / "results.csv"
    experiments.write_csv(cells, path)
    lines = path.read_text().splitlines()
    assert lines[0] == experiments.CSV_HEADER
    # one per-set row plus one pooled row per cell
    assert len(lines) == 1 + 2 * len(cells)
    assert lines[1].startswith("mp-t,")
    assert ",pooled," in lines[2]


def test_csv_float_format_round_trips(tmp_path):
    cells = run_sweep(tiny_spec(), workers=1)
    path = tmp_path / "results.csv"
    experiments.write_csv(cells, path)
    row = path.read_text().splitlines()[2].split(",")
    dr = float(row[5])
    assert dr == cells[0].metrics.dr


def test_csv_byte_identical_reruns(tmp_path):
    spec = tiny_spec(protocols=("mp-t", "mp-s"))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    experiments.write_csv(run_sweep(spec, workers=1), a)
    experiments.write_csv(run_sweep(spec, workers=1), b)
    assert a.read_bytes() == b.read_bytes()


def test_summary_and_trials_files(tmp_path):
    cells = run_sweep(tiny_spec(), workers=1)
    experiments.write_summary(cells, tmp_path / "summary.json")
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["cells"][0]["protocol"] == "mp-t"
    assert payload["cells"][0]["valid"] is True
    experiments.write_trials_jsonl(cells, tmp_path / "trials.jsonl", which="successes")
    lines = (tmp_path / "trials.jsonl").read_text().splitlines()
    assert len(lines) == cells[0].metrics.successes
    record = json.loads(lines[0])
    assert record["status"] == "success"
    assert record["edges"]


def test_write_trials_jsonl_rejects_unknown_choice(tmp_path):
    # a misspelt choice used to be taken as "all" and write timeout records
    cells = run_sweep(tiny_spec(), workers=1)
    path = tmp_path / "trials.jsonl"
    with pytest.raises(ValueError, match="'successes', 'all', 'none'"):
        experiments.write_trials_jsonl(cells, path, "succeses")
    assert not path.exists()


# the eight sets perfbench/run.py holds fixed as the 6x6 desk sweep's first sets
FIRST_DESK_SETS = (
    (4, 9, 13, 16), (5, 18, 21, 33), (0, 7, 12, 19), (0, 25, 29, 34),
    (0, 2, 20, 24), (1, 15, 23, 24), (19, 21, 28, 35), (3, 5, 16, 17),
)


def test_user_sets_are_pinned():
    assert experiments.user_sets(SweepSpec(), 36)[:8] == FIRST_DESK_SETS
    # an explicit set is one sorted set, whatever the count
    assert experiments.user_sets(SweepSpec(users=(8, 0), user_sets=5), 9) == ((0, 8),)


def test_user_set_sampling_deterministic_and_distinct():
    spec = SweepSpec(n_users=4, user_sets=12, seed=9)
    sets_a = experiments.user_sets(spec, 36)
    sets_b = experiments.user_sets(spec, 36)
    assert sets_a == sets_b
    assert len(sets_a) == 12
    for s in sets_a:
        assert len(set(s)) == 4
        assert list(s) == sorted(s)


@pytest.mark.parametrize("overrides, message", [
    (dict(n_users=1), "need at least two users"),
    (dict(n_users=40), "40 users but only 36 nodes"),
    (dict(user_sets=0), "user_sets must be positive"),
    (dict(seed=-1), "seed -1 must be non-negative"),
])
def test_user_sets_rejects_before_sampling(overrides, message):
    with pytest.raises(ConfigError, match=message):
        experiments.user_sets(SweepSpec(**overrides), 36)


def test_every_cell_of_a_grid_runs_the_same_sets(monkeypatch):
    configs = []
    monkeypatch.setattr(experiments.engine, "run_experiment",
                        lambda config, **_: configs.append(config))
    spec = tiny_spec(protocols=("mp-t", "sp-s"), qc_values=(1, 4), p_values=(0.2, 0.4),
                     grid_sizes=(3, 4), users=None, n_users=3, user_sets=5)
    cells = run_sweep(spec, workers=1)
    assert len(configs) == len(cells) == 16
    for m in (3, 4):
        got = {c.user_sets for c, cell in zip(configs, cells) if cell.m == m}
        assert got == {experiments.user_sets(spec, m * m)}
        assert len(next(iter(got))) == 5
    # and every cell of a (grid, p) pair runs on the one graph
    graphs = {(cell.m, cell.p): c.graph for c, cell in zip(configs, cells)}
    assert len({id(g) for g in graphs.values()}) == 4
    assert all(c.graph is graphs[cell.m, cell.p] for c, cell in zip(configs, cells))


def planned_sweep(**overrides):
    return tiny_spec(protocols=("sp-t", "sp-s"), qc_values=(3, 8), p_values=(0.3,),
                     grid_sizes=(4,), users=None, n_users=3, **overrides)


def test_each_user_set_is_planned_once_per_sweep(monkeypatch):
    calls = []
    plan = routing.select_single_path

    def counting(g, users, kind):
        calls.append((users, kind))
        return plan(g, users, kind)

    monkeypatch.setattr(routing, "select_single_path", counting)
    spec = planned_sweep(user_sets=2)
    cells = run_sweep(spec, workers=1)
    assert all(s.status == "ok" for cell in cells for s in cell.metrics.sets)
    # two protocols x two sets, whatever the number of cutoffs
    assert len(calls) == len(set(calls)) == 4
    # nothing planned outlives the sweep that planned it
    run_sweep(spec, workers=1)
    assert len(calls) == 8


def test_shared_states_write_the_same_files_in_parallel(tmp_path):
    # three sets, so the second and third run in pool processes and the states
    # planned there come back for the next cutoff
    spec = planned_sweep(user_sets=3)
    for workers in (1, 2):
        cells = run_sweep(spec, workers=workers)
        out = tmp_path / str(workers)
        out.mkdir()
        experiments.write_csv(cells, out / "results.csv")
        experiments.write_summary(cells, out / "summary.json")
        experiments.write_trials_jsonl(cells, out / "trials.jsonl", which="all")
    for name in ("results.csv", "summary.json", "trials.jsonl"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_mp_t_never_finishes_after_mp_s():
    # both protocols track every edge under the same trial streams, so they
    # see the same links and check in the same slots; a live star from the
    # centre connects the users, so mp-t completes no later than mp-s
    spec = SweepSpec(protocols=("mp-t", "mp-s"), grid_sizes=(4, 6), p_values=(0.1, 0.3),
                     qc_values=(1, 3, 8), user_sets=3, target_successes=15, seed=7)
    sets = {(c.protocol, c.m, c.p, c.q_c): c.metrics.sets for c in run_sweep(spec, workers=1)}
    pairs = 0
    for (protocol, *cell), star_sets in sets.items():
        if protocol != "mp-s":
            continue
        for tree_set, star_set in zip(sets[("mp-t", *cell)], star_sets):
            for tree, star in zip(tree_set.trials, star_set.trials):
                if star.success:
                    assert tree.success and tree.timeslots <= star.timeslots, cell
                    pairs += 1
    assert pairs > 200


def test_pareto_frontier():
    pts = [Point(1, 0.1, 0.9), Point(2, 0.2, 0.8), Point(3, 0.15, 0.75),
           Point(4, 0.05, 0.95)]
    frontier = pareto_frontier(pts)
    assert {p.q_c for p in frontier} == {1, 2, 4}


def test_frontier_domination():
    better = [Point(1, 0.2, 0.9), Point(2, 0.5, 0.7)]
    worse = [Point(1, 0.1, 0.85), Point(2, 0.4, 0.6)]
    assert frontier_dominates(better, worse)
    assert not frontier_dominates(worse, better)


def test_matched_comparisons():
    mp = [Point(1, 0.05, 0.95), Point(5, 0.5, 0.8)]
    sp = [Point(1, 0.01, 0.9), Point(5, 0.1, 0.7)]
    # rate: mp@1 (F .95 >= .9) over sp@1 -> 5x; mp@5 (F .8 >= .7) over sp@5 -> 5x
    assert max_rate_speedup(mp, sp) == pytest.approx(5.0)
    # fidelity: mp@1 dr .05 >= sp@1 .01 -> .95/.9; mp@5 vs sp@5 -> .8/.7
    assert max_fidelity_gain(mp, sp) == pytest.approx(0.8 / 0.7 - 1.0)


def test_matched_comparison_identical_series_is_unity():
    pts = [Point(1, 0.1, 0.9), Point(2, 0.3, 0.7)]
    assert max_rate_speedup(pts, pts) == pytest.approx(1.0)
    assert max_fidelity_gain(pts, pts) == pytest.approx(0.0)


def test_comparison_stats_shape():
    def row(protocol, q_c, dr, fid, valid):
        return {"protocol": protocol, "p": 0.1, "M": 6, "Qc": q_c, "valid": valid,
                "dr": dr, "mean_fidelity": fid}

    rows = [
        row("mp-t", 1, 0.2, 0.9, True),
        row("sp-t", 1, 0.1, 0.8, True),
        row("sp-t", 2, 0.0, math.nan, False),
    ]
    stats = comparison_stats(rows, p=0.1, m=6)
    assert stats["tree_speedup"] == pytest.approx(2.0)
    assert stats["tree_dominates"] is True
    assert len(stats["points"]["sp-t"]) == 1  # omitted point excluded


def test_distance_rows(tmp_path):
    spec = tiny_spec(protocols=("mp-t",), qc_values=(1, 2, 3), p_values=(0.5,),
                     grid_sizes=(2,), users=None, target_successes=20,
                     max_set_timeslots=5_000)
    rows = experiments.distance_experiment(spec, fidelity_floor=0.5, workers=1)
    assert len(rows) == 1
    row = rows[0]
    assert row.feasible
    assert row.steiner_distance == 3
    assert row.best_qc in (1, 2, 3)
    experiments.write_distance_csv(rows, tmp_path / "distance.csv")
    lines = (tmp_path / "distance.csv").read_text().splitlines()
    assert len(lines) == 2


def test_distance_rejects_explicit_users():
    # the users are each grid's corners; a spec's own set would be ignored
    spec = tiny_spec(protocols=("mp-t",), qc_values=(1,), grid_sizes=(3,), users=(1, 2, 7))
    with pytest.raises(ConfigError, match="corners"):
        experiments.distance_experiment(spec, workers=1)
