#!/usr/bin/env python3
"""Benchmark of ghznetsim sweeps: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload slot-bound --seed 7 --seconds 30 --trace 0

Each workload is a deterministic slice of a desk sweep on a 6x6 grid (w0 =
0.987, delta = 0.99, 4 users per set), run in this single process with one
worker. The user sets are the first sets the sweep samples at seed 2024, held
fixed so that every seed checks against the same reference cells; ``--seed``
is the sweep's root seed and so drives every trial's random stream.

With ``--trace 0`` the slice is repeated for about ``--seconds``, repetition
r at seed ``--seed + r * SEED_STRIDE``, and the end-to-end metrics are
printed. Each repetition's wall time is scaled by the machine speed that
calibration slices run before its cells measure (see calibrate.py), so that
a slower phase of a shared machine does not read as a slower program. The
run ends by running the first user set of its first repetition again, which
must give the same results. With ``--trace 1`` untraced and traced
repetitions of the one seed alternate and give the per-layer metrics (see
tracing.py). Every cell of every repetition goes through the output check in
check.py. The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.

The program is imported from ``src/`` next to this directory and nowhere
else. Run outputs go to a temporary directory under ``.perfbench-out/``,
which also keeps the trace of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import calibrate
import check
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 2024
SETUP_PROBES = 3
SETUP_SLICES = 5                # calibration slices before and after each set-up probe
SEED_STRIDE = 1_000_003         # repetition r of an untraced run uses seed + r * SEED_STRIDE

# engine.sample_user_sets for a 6x6 grid at seed 2024, first eight sets
USER_SETS = (
    (4, 9, 13, 16), (5, 18, 21, 33), (0, 7, 12, 19), (0, 25, 29, 34),
    (0, 2, 20, 24), (1, 15, 23, 24), (19, 21, 28, 35), (3, 5, 16, 17),
)


@dataclass(frozen=True)
class Workload:
    protocols: tuple[str, ...]
    p: float
    qcs: tuple[int, ...]
    sets: int
    successes: int           # target successes per user set
    budget: int              # timeslot budget per user set
    via_cli: bool            # through `ghznetsim run` and its result files


WORKLOADS = {
    # low-cutoff, budget-exhausting corner of the p=0.1 acceptance sweep:
    # the per-slot loop (step plus completion prechecks)
    "slot-bound": Workload(("sp-t", "sp-s", "mp-t", "mp-s"), 0.1, (3, 8),
                           sets=3, successes=20, budget=8000, via_cli=False),
    # dense live graphs at the slowest acceptance p: nearly every trial ends
    # in an exact Steiner DP or a min-cost star flow
    "route-bound": Workload(("mp-t", "mp-s"), 0.2, (13, 20),
                            sets=8, successes=25, budget=50_000, via_cli=False),
    # short trials: state realisation, per-trial set-up, static route
    # planning and the result files
    "realize-bound": Workload(("sp-t", "sp-s"), 0.3, (13, 20),
                              sets=8, successes=100, budget=50_000, via_cli=True),
}
TINY = dict(sets=2, successes=3, budget=400)


class ProgramMissing(RuntimeError):
    pass


def load_program() -> dict:
    """The package's modules, imported from ``src/`` of this checkout."""
    if not (SRC / "ghznetsim" / "__init__.py").is_file():
        raise ProgramMissing(f"no ghznetsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    from ghznetsim import cli, engine, experiments, protocols, routing, statesim
    if not Path(engine.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"ghznetsim imported from {engine.__file__}, not {SRC}")
    return dict(cli=cli, engine=engine, experiments=experiments,
                protocols=protocols, routing=routing, statesim=statesim)


def build_jobs(program: dict, work: Workload, seed: int) -> list[tuple]:
    """One (users, sweep input) pair per user set: a SweepSpec or CLI argv."""
    jobs = []
    for users in USER_SETS[:work.sets]:
        if work.via_cli:
            job = ["run", "--protocol", ",".join(work.protocols), "--grid", "6",
                   "--p", str(work.p), "--w0", "0.987", "--delta", "0.99",
                   "--Qc", ",".join(map(str, work.qcs)),
                   "--users", ",".join(map(str, users)),
                   "--successes", str(work.successes),
                   "--max-timeslots", str(work.budget), "--seed", str(seed),
                   "--workers", "1", "--trial-log", "all"]
        else:
            job = program["experiments"].SweepSpec(
                protocols=work.protocols, qc_values=work.qcs, p_values=(work.p,),
                grid_sizes=(6,), w0=0.987, delta=0.99, users=users,
                target_successes=work.successes, max_set_timeslots=work.budget,
                seed=seed)
        jobs.append((users, job))
    return jobs


def setup(name: str, seed: int, tiny: bool) -> tuple[dict, Workload, list]:
    """Import the program and build the workload's sweep inputs."""
    program = load_program()
    work = replace(WORKLOADS[name], **TINY) if tiny else WORKLOADS[name]
    return program, work, build_jobs(program, work, seed)


@dataclass
class Rep:
    """One timed repetition of the slice and what it produced."""

    wall: float            # seconds, calibration slices excluded
    speed: float           # machine speed beside it, from calibrate.PerCell
    cells: list            # check.Cell
    csv: str               # concatenated results.csv text, one file per set
    errors: list           # (set index, message) for sets that raised or exited nonzero

    @property
    def timeslots(self) -> int:
        return sum(c.timeslots for c in self.cells)

    @property
    def successes(self) -> int:
        return sum(c.successes for c in self.cells)


def run_direct(program: dict, jobs: list, calibrated: bool) -> Rep:
    experiments = program["experiments"]
    results = []
    with calibrate.PerCell(program["engine"], calibrated) as probes:
        t0 = time.perf_counter()
        for _, spec in jobs:
            try:
                results.append(experiments.run_sweep(spec, workers=1, keep_trials=True))
            except Exception:
                results.append(traceback.format_exc())
        wall = time.perf_counter() - t0 - probes.seconds

    cells, csv, errors = [], "", []
    for set_idx, ((users, _), result) in enumerate(zip(jobs, results)):
        if isinstance(result, str):
            errors.append((set_idx, result))
            continue
        csv += "\n".join(experiments.csv_rows(result)) + "\n"
        for cell in result:
            met = cell.metrics
            cells.append(check.Cell(
                set_idx, cell.protocol, cell.q_c, users, met.successes,
                met.total_timeslots, met.dr_ci[0], met.dr_ci[1], met.mean_fidelity,
                [check.Success(t.fidelity, t.werner_product, t.branch_fidelity_product,
                               t.fidelity_floor, t.center, t.edges)
                 for s in met.sets for t in s.trials if t.success]))
    return Rep(wall, probes.speed, cells, csv, errors)


def read_cli_cells(out: Path, text: str, set_idx: int, users: tuple) -> list:
    """Cells of one ``ghznetsim run`` output directory, from its files alone."""
    slots = {(c["protocol"], c["Qc"]): c["total_timeslots"]
             for c in json.loads((out / "summary.json").read_text())["cells"]}
    trials: dict[tuple, list] = {}
    with open(out / "trials.jsonl") as fh:
        for line in fh:
            t = json.loads(line)
            if t["status"] == "success":
                trials.setdefault((t["protocol"], t["Qc"]), []).append(check.Success(
                    t["fidelity"], t["werner_product"], t["branch_fidelity_product"],
                    t["fidelity_floor"], t["center"], tuple(map(tuple, t["edges"]))))
    return [check.Cell(set_idx, protocol, qc, users, row["successes"], slots[(protocol, qc)],
                       row["dr_lo"], row["dr_hi"], row["mean_fidelity"],
                       trials.get((protocol, qc), []))
            for (_, protocol, qc), row in check.parse_results(text).items()]


def run_cli(program: dict, jobs: list, tmp: Path, calibrated: bool) -> Rep:
    cli = program["cli"]
    outs = [tmp / f"set{i}" for i in range(len(jobs))]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    codes = []
    sink = io.StringIO()
    with calibrate.PerCell(program["engine"], calibrated) as probes:
        t0 = time.perf_counter()
        for (_, argv), out in zip(jobs, outs):
            try:
                with contextlib.redirect_stdout(sink):
                    codes.append(cli.main(argv + ["--out", str(out)]))
            except Exception:
                codes.append(traceback.format_exc())
        wall = time.perf_counter() - t0 - probes.seconds

    cells, csv, errors = [], "", []
    for set_idx, ((users, _), out, code) in enumerate(zip(jobs, outs, codes)):
        if code != 0:
            errors.append((set_idx, f"ghznetsim run returned {code}"))
            continue
        try:
            text = (out / "results.csv").read_text()
            set_cells = read_cli_cells(out, text, set_idx, users)
        except (OSError, ValueError, KeyError) as exc:
            errors.append((set_idx, f"unreadable results in {out}: {exc!r}"))
            continue
        csv += text
        cells += set_cells
    return Rep(wall, probes.speed, cells, csv, errors)


def check_rep(rep: Rep, work: Workload, reference: dict, first_csv: str | None) -> int:
    """Number of failed cells in one repetition; problems go to stderr.

    ``first_csv``, if given, is the text the repetition must reproduce.
    """
    expected = work.sets * len(work.protocols) * len(work.qcs)
    for set_idx, message in rep.errors:
        print(f"user set {set_idx} failed:\n{message}", file=sys.stderr)
    if first_csv is not None and rep.csv != first_csv:
        print("results differ between repetitions of one seed", file=sys.stderr)
        return expected
    points: dict[tuple, list] = {}
    for cell in rep.cells:
        points.setdefault((cell.protocol, cell.qc), []).append(cell)
    passed = 0
    for point, cells in points.items():
        point_problems = check.check_point(cells, reference, work.budget)
        for problem in point_problems:
            print(f"sweep point {point}: {problem}", file=sys.stderr)
        for cell in cells:
            problems = check.check_cell(cell, reference)
            for problem in problems[:3]:
                print(f"cell {cell.key}: {problem}", file=sys.stderr)
            passed += not (problems or point_problems)
    return expected - passed


def probe_setup(name: str, seed: int, tiny: bool) -> float:
    """Wall time of a fresh interpreter that imports and sets up, then exits,
    scaled by the machine speed that calibration slices around it measure."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed)] + (["--size", "tiny"] if tiny else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    probes = [calibrate.probe() for _ in range(SETUP_SLICES)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120, env=env, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    probes += [calibrate.probe() for _ in range(SETUP_SLICES)]
    return wall * calibrate.SLICE_NOMINAL_S * len(probes) / sum(probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: two user sets and a few successes, for harness tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, then exit (times setup_s)")
    parser.add_argument("--record-reference", action="store_true",
                        help="write reference/<workload>.csv at seed 2024, full size")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True      # every run compiles the package alike, as a fresh checkout does
    tiny = args.size == "tiny"
    os.environ.pop("GHZNETSIM_THREADS", None)   # workers are pinned to 1 below

    try:
        if args.setup_only:
            setup(args.workload, args.seed, tiny)
            return 0
        if args.record_reference:
            args.seed, tiny = DEFAULT_SEED, False
        setup_times = [] if args.trace or args.record_reference else [
            probe_setup(args.workload, args.seed, tiny) for _ in range(1 if tiny else SETUP_PROBES)]
        program, work, jobs = setup(args.workload, args.seed, tiny)
    except (ProgramMissing, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: cannot set up the program: {exc}", file=sys.stderr)
        return 2
    ref_path = HERE / "reference" / f"{args.workload}.csv"
    reference_text = "" if args.record_reference else ref_path.read_text()
    reference = check.parse_results(reference_text)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    per_rep = work.sets * len(work.protocols) * len(work.qcs)
    attempted = failed = 0
    first_csv = None
    plain: list[tuple] = []                # (scaled wall, timeslots, successes, raw wall)
    traced: list[tuple] = []               # (wall, tracer)
    try:
        def repeat(job_list, tracer=None) -> Rep:
            gc.collect()
            if tracer is not None:
                tracer.install(program)
            try:
                # a traced run compares traced and untraced repetitions
                # done alike, so none of its repetitions is calibrated
                if work.via_cli:
                    return run_cli(program, job_list, tmp, not args.trace)
                return run_direct(program, job_list, not args.trace)
            finally:
                if tracer is not None:
                    tracer.uninstall()

        # lazy imports and first-call costs, outside the timed repetitions
        repeat(build_jobs(program, replace(work, **TINY), args.seed)[:1])

        start = time.perf_counter()
        while True:
            # a traced run alternates untraced and traced repetitions of one
            # seed, so both do the same work; an untraced run gives each
            # repetition its own seed, so that it averages over trial streams
            tracer = tracing.Tracer() if args.trace and len(plain) > len(traced) else None
            rep_seed = args.seed + (0 if args.trace else SEED_STRIDE * len(plain))
            rep_start = time.perf_counter()
            rep = repeat(jobs if rep_seed == args.seed else
                         build_jobs(program, work, rep_seed), tracer)
            if first_csv is None:
                first_csv = rep.csv
                if args.record_reference:
                    ref_path.write_text(rep.csv)
                    print(f"wrote {ref_path}", file=sys.stderr)
                    return 0
            attempted += per_rep
            failed += check_rep(rep, work, reference, first_csv if args.trace else None)
            if tracer is None:
                plain.append((rep.wall * rep.speed, rep.timeslots, rep.successes, rep.wall))
            else:
                traced.append((rep.wall, tracer))
            if args.trace and not traced:
                continue
            now = time.perf_counter()
            if now - start + (now - rep_start) > args.seconds:
                break

        if not args.trace:
            # the first user set of the first repetition once more, untimed:
            # the same seed must give the same results.csv text
            again = repeat(jobs[:1])
            per_set = per_rep // work.sets
            attempted += per_set
            if again.errors or not first_csv.startswith(again.csv):
                print("the first user set gave other results when run again", file=sys.stderr)
                failed += per_set
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if tiny or args.seed != DEFAULT_SEED:
        identity = "not compared (the reference is seed 2024 at full size)"
    else:
        identity = "identical" if first_csv == reference_text else "differs"
    print(f"{args.workload}: results.csv vs reference: {identity}")
    print("untraced repetitions, raw (s):    " + " ".join(f"{r:.3f}" for *_, r in plain),
          file=sys.stderr)
    print("untraced repetitions, scaled (s): " + " ".join(f"{w:.3f}" for w, *_ in plain),
          file=sys.stderr)

    wall = statistics.median(w for w, *_ in plain)
    if args.trace:
        traced_wall, tracer = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
        layers = tracing.layer_metrics(tracer, traced_wall,
                                       statistics.median(r for *_, r in plain))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "traced_wall_s": traced_wall,
            "layers": {k: v for k, (v, _) in layers.items()}, **tracer.dump()}))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "slots_per_s": {"value": sum(n for _, n, _, _ in plain) / sum(w for w, *_ in plain),
                            "unit": "slots/s"},
            "ghz_per_s": {"value": sum(k for _, _, k, _ in plain) / sum(w for w, *_ in plain),
                          "unit": "GHZ/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
