"""Command-line front end: run, pareto, distance, validate.

Configuration comes from an optional key = value file plus flags, with flags
winning. Exit codes: 0 success, 2 configuration error, 3 insufficient data,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import experiments, svgplot, validation
from .engine import resolve_workers
from .experiments import SCALES, SweepSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_DATA = 3
EXIT_VALIDATION = 4


class CliError(Exception):
    pass


def parse_int_list(text: str) -> tuple[int, ...]:
    """Accepts "5", "1,2,3" or an inclusive range "1-20"."""
    text = text.strip()
    if "-" in text and "," not in text:
        lo, hi = text.split("-", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise CliError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(",") if part.strip())


def parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(",") if part.strip())


def read_config_file(path: str) -> dict[str, str]:
    """Plain key = value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip().lower().replace("-", "_")] = value.strip().strip('"').strip("'")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghznetsim",
        description="Monte Carlo simulation of GHZ-state distribution "
                    "over noisy quantum networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--protocol", help="comma list from sp-s,sp-t,mp-s,mp-t")
        p.add_argument("--grid", help="grid sizes M (list or range)")
        p.add_argument("--p", help="link generation probabilities (comma list)")
        p.add_argument("--w0", type=float, help="initial Werner parameter")
        p.add_argument("--delta", type=float, help="per-slot decoherence constant")
        p.add_argument("--Qc", help="memory cutoffs (list or range, e.g. 1-20)")
        p.add_argument("--users", help="explicit node list or random:N")
        p.add_argument("--user-sets", type=int, help="number of sampled user sets")
        p.add_argument("--successes", type=int, help="target successes per user set")
        p.add_argument("--max-timeslots", type=int,
                       help="timeslot budget per user set")
        p.add_argument("--min-successes", type=int,
                       help="omission threshold on total successes")
        p.add_argument("--seed", type=int, help="root RNG seed")
        p.add_argument("--scale", choices=sorted(SCALES),
                       help="preset for user sets, successes and budget")
        p.add_argument("--workers", type=int,
                       help="parallel user-set workers (capped by GHZNETSIM_THREADS)")
        p.add_argument("--out", help="output directory (default ./out)")
        p.add_argument("--trial-log", choices=("none", "successes", "all"),
                       help="which per-trial records go to trials.jsonl")

    run_p = sub.add_parser("run", help="run a sweep and write result tables")
    common(run_p)
    pareto_p = sub.add_parser("pareto", help="rate/fidelity trade-off analysis")
    common(pareto_p)
    dist_p = sub.add_parser("distance", help="corner-user distance experiment")
    common(dist_p)
    dist_p.add_argument("--floor", type=float, default=None,
                        help="minimum mean fidelity (default 2/3)")
    val_p = sub.add_parser("validate", help="run the oracle cross-check suites")
    val_p.add_argument("--quick", action="store_true",
                       help="smaller sample counts for a fast pass")
    return parser


_DEFAULTS = dict(
    protocol="mp-t,mp-s,sp-t,sp-s", w0=0.987, delta=0.99,
    qc="1-20", users="random:4", scale="desk", seed=2024, out="out",
    trial_log="successes")


def _merged_options(args: argparse.Namespace) -> SimpleNamespace:
    merged = dict(_DEFAULTS)
    flags = {attr.lower(): value for attr, value in vars(args).items()
             if attr not in ("command", "config")}
    if getattr(args, "config", None):
        from_file = read_config_file(args.config)
        unknown = sorted(set(from_file) - set(flags))
        if unknown:
            raise CliError(f"{args.config}: unknown key {', '.join(unknown)}")
        merged.update(from_file)
    merged.update((key, value) for key, value in flags.items() if value is not None)
    return SimpleNamespace(**merged)


def _option(opts: SimpleNamespace, name: str, default):
    """An option's value, or ``default`` when it is not given; a given 0 or
    empty list is passed on, so the configuration check rejects it."""
    value = getattr(opts, name, None)
    return default if value is None else value


def build_spec(opts: SimpleNamespace, default_grid: str = "6",
               default_p: str = "0.1") -> SweepSpec:
    scale = SCALES[str(getattr(opts, "scale", "desk"))]
    users = None
    n_users = 4
    users_text = str(getattr(opts, "users", "random:4"))
    if users_text.startswith("random:"):
        n_users = int(users_text.split(":", 1)[1])
    else:
        users = tuple(int(u) for u in users_text.split(",") if u.strip())
    user_sets = int(_option(opts, "user_sets", scale["user_sets"]))
    successes = int(_option(opts, "successes", scale["target_successes"]))
    budget = int(_option(opts, "max_timeslots", scale["max_set_timeslots"]))
    min_succ = getattr(opts, "min_successes", None)
    return SweepSpec(
        protocols=tuple(s.strip() for s in str(opts.protocol).split(",") if s.strip()),
        qc_values=parse_int_list(str(opts.qc)),
        p_values=parse_float_list(str(_option(opts, "p", default_p))),
        grid_sizes=parse_int_list(str(_option(opts, "grid", default_grid))),
        w0=float(opts.w0), delta=float(opts.delta),
        users=users, n_users=n_users, user_sets=user_sets,
        target_successes=successes, max_set_timeslots=budget,
        min_total_successes=int(min_succ) if min_succ is not None else None,
        seed=int(opts.seed))


def _workers(opts: SimpleNamespace) -> int:
    requested = getattr(opts, "workers", None)
    return resolve_workers(int(requested) if requested is not None else None)


def _progress(cell) -> None:
    met = cell.metrics
    note = "" if met.valid else f"  [omitted: {met.omit_reason}]"
    print(f"  {cell.protocol:5s} p={cell.p:g} Qc={cell.q_c:<2d} M={cell.m}: "
          f"DR={met.dr:.4g} F={met.mean_fidelity:.4f} "
          f"successes={met.successes}{note}")


def cmd_run(opts: SimpleNamespace) -> int:
    spec = build_spec(opts)
    out = Path(str(opts.out))
    out.mkdir(parents=True, exist_ok=True)
    workers = _workers(opts)
    keep = str(getattr(opts, "trial_log", "successes")) != "none"
    print(f"running sweep: {len(spec.protocols)} protocols x "
          f"{len(spec.qc_values)} cutoffs x {len(spec.p_values)} p x "
          f"{len(spec.grid_sizes)} grids ({workers} workers)")
    cells = experiments.run_sweep(spec, workers=workers, keep_trials=keep,
                                  progress=_progress)
    experiments.write_csv(cells, out / "results.csv")
    experiments.write_summary(cells, out / "summary.json",
                              extra={"spec": _spec_dict(spec)})
    experiments.write_trials_jsonl(cells, out / "trials.jsonl",
                                   which=str(getattr(opts, "trial_log", "successes")))
    print(f"wrote {out / 'results.csv'}")
    return EXIT_OK


def _spec_dict(spec: SweepSpec) -> dict:
    d = dict(vars(spec))
    for key, value in d.items():
        if isinstance(value, tuple):
            d[key] = list(value)
    return d


def cmd_pareto(opts: SimpleNamespace) -> int:
    out = Path(str(opts.out))
    summary_path = out / "summary.json"
    spec = build_spec(opts)
    # an existing sweep is reused only if it was run for this very spec, and
    # never overwritten by a sweep of another one
    if not summary_path.exists():
        cmd_run(opts)
    elif json.loads(summary_path.read_text()).get("spec") != _spec_dict(spec):
        raise CliError(f"{summary_path} holds a sweep of another spec; "
                       "choose another --out")
    cells = json.loads(summary_path.read_text())["cells"]
    p = spec.p_values[0]
    m = spec.grid_sizes[0]
    stats = experiments.comparison_stats(cells, p=p, m=m)
    if not any(stats["points"].values()):
        print("no valid datapoints for a pareto analysis", file=sys.stderr)
        return EXIT_NO_DATA
    series = {proto: [(pt["dr"], pt["fidelity"], str(pt["q_c"])) for pt in pts]
              for proto, pts in stats["points"].items() if pts}
    svgplot.pareto_scatter(series, out / "pareto.svg",
                           title=f"rate vs fidelity (p={p:g}, {m}x{m} grid)")
    lines = ["protocol,Qc,dr,mean_fidelity,on_frontier"]
    for proto, pts in sorted(stats["points"].items()):
        frontier = {pt["q_c"] for pt in stats["frontier"][proto]}
        for pt in pts:
            lines.append(",".join(experiments.fmt(v) for v in (
                proto, pt["q_c"], pt["dr"], pt["fidelity"],
                int(pt["q_c"] in frontier))))
    (out / "pareto_points.csv").write_text("\n".join(lines) + "\n")
    with open(out / "pareto_summary.json", "w") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for key in ("tree_speedup", "tree_fidelity_gain", "tree_dominates",
                "star_speedup", "star_fidelity_gain", "star_dominates"):
        if key in stats:
            print(f"{key}: {stats[key]}")
    print(f"wrote {out / 'pareto.svg'}")
    return EXIT_OK


def cmd_distance(opts: SimpleNamespace) -> int:
    spec = build_spec(opts, default_grid="3-6", default_p="0.3")
    floor = getattr(opts, "floor", None)
    floor = float(floor) if floor is not None else 2.0 / 3.0
    out = Path(str(opts.out))
    out.mkdir(parents=True, exist_ok=True)
    workers = _workers(opts)
    print(f"distance experiment: corners of M in {list(spec.grid_sizes)}, "
          f"p={spec.p_values[0]:g}, fidelity floor {floor:.4f}")
    rows = experiments.distance_experiment(spec, fidelity_floor=floor,
                                           workers=workers, progress=_progress)
    experiments.write_distance_csv(rows, out / "distance.csv")
    series: dict[str, list] = {}
    for r in rows:
        if r.feasible:
            series.setdefault(r.protocol, []).append(
                (r.m, r.dr, r.dr_ci[0], r.dr_ci[1]))
    if not series:
        print("no feasible datapoints", file=sys.stderr)
        return EXIT_NO_DATA
    svgplot.distance_plot(series, out / "distance.svg",
                          title=f"corner users, p={spec.p_values[0]:g}, "
                                f"fidelity floor {floor:.3g}")
    for r in rows:
        state = f"Qc={r.best_qc} DR={r.dr:.4g} F={r.mean_fidelity:.4f}" \
            if r.feasible else "infeasible"
        print(f"  {r.protocol:5s} M={r.m}: {state}")
    print(f"wrote {out / 'distance.csv'}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    ok = validation.run_all(quick=args.quick)
    return EXIT_OK if ok else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        opts = _merged_options(args)
        if args.command == "run":
            return cmd_run(opts)
        if args.command == "pareto":
            return cmd_pareto(opts)
        if args.command == "distance":
            return cmd_distance(opts)
        raise CliError(f"unknown command {args.command!r}")
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
