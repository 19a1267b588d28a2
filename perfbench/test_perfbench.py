"""Harness tests for the benchmark: tiny runs, metric names, the output check.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import check
import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_declared_metrics(workload):
    results = {}
    for trace in (0, 1):
        out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        results[trace] = result["metrics"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {k: v["unit"] for k, v in results[trace].items()} == declared
    layers = {k: v["value"] for k, v in results[1].items()}
    self_sum = sum(v for k, v in layers.items()
                   if k.count(".") == 2 and k.endswith(".self_s"))
    assert self_sum + layers["untraced_s"] == pytest.approx(layers["traced_wall_s"], rel=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "slot-bound", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


@pytest.fixture(scope="module")
def real_cells():
    program, work, jobs = run.setup("route-bound", 3, tiny=True)
    rep = run.run_direct(program, jobs, calibrated=False)
    reference = check.parse_results((HERE / "reference" / "route-bound.csv").read_text())
    assert rep.cells and not rep.errors
    assert run.check_rep(rep, work, reference, rep.csv) == 0
    return rep.cells, reference


def _cut_edge(success):
    return replace(success, edges=success.edges[1:])


def _overfull(success):
    return replace(success, fidelity=1.5)


def _chain(success):
    return replace(success, werner_product=success.branch_fidelity_product + 0.1)


@pytest.mark.parametrize("tamper", [_cut_edge, _overfull, _chain])
def test_check_rejects_tampered_success(real_cells, tamper):
    cells, reference = real_cells
    cell = cells[0]
    broken = replace(cell, trials=[tamper(cell.trials[0])] + cell.trials[1:])
    assert check.check_cell(broken, reference)


def test_check_rejects_shifted_rate(real_cells):
    cells, reference = real_cells
    cell = cells[0]
    far = 10 * reference[cell.key]["dr_hi"]
    assert check.check_cell(replace(cell, dr_lo=far, dr_hi=2 * far), reference)
    point = [c for c in cells if (c.protocol, c.qc) == (cell.protocol, cell.qc)]
    slow = [replace(c, timeslots=20 * c.timeslots) for c in point]
    assert check.check_point(slow, reference, budget=50_000)


def test_rate_interval_matches_the_program():
    engine = run.load_program()["engine"]
    for s, n in ((0, 400), (3, 400), (25, 130), (200, 1700), (799, 800)):
        assert check.rate_interval(s, n) == pytest.approx(
            engine.dr_confidence_interval(s, n), rel=1e-9, abs=1e-15)
