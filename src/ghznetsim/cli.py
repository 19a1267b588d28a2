"""Command-line front end: run, pareto, distance, validate.

A ``--config`` file of key = value lines stands for the same flags, placed
before the command line's, so flags win. Exit codes: 0 success, 2 configuration error, 3 insufficient data,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiments, svgplot, validation
from .engine import resolve_workers
from .experiments import SCALES, SweepSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_DATA = 3
EXIT_VALIDATION = 4


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ``CliError``, like every other configuration
    error, instead of exiting; subcommand parsers inherit the class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message} (see {self.prog} --help)")


def _parse_list(kind, text: str, parts: list[str] | None = None) -> tuple:
    """``parts``, by default the non-blank comma parts of ``text``, as ``kind``.
    A flag type raises ArgumentTypeError, which argparse reports with the flag."""
    if parts is None:
        parts = [part for part in text.split(",") if part.strip()]
    try:
        return tuple(kind(part.strip()) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} in {text!r}") from None


def parse_int_list(text: str) -> tuple[int, ...]:
    """Accepts "5", "1,2,3" or an inclusive range "2-8"."""
    text = text.strip()
    if "-" in text and "," not in text:
        lo, hi = _parse_list(int, text, text.split("-", 1))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return _parse_list(int, text)


def parse_float_list(text: str) -> tuple[float, ...]:
    return _parse_list(float, text)


def parse_users(text: str) -> dict:
    """"random:N" samples N users per set; a comma list is one explicit set."""
    if text.startswith("random:"):
        return {"n_users": _parse_list(int, text, [text[len("random:"):]])[0]}
    return {"users": _parse_list(int, text)}


def config_tokens(args: argparse.Namespace) -> list[str]:
    """The flags that the ``--config`` file stands for: one ``--key=value``
    token per key = value line, where a key is any other option of the
    command; '#' starts a comment. Each token is parsed as its flag, so a
    bad value is reported with its file and line."""
    path = args.config
    known = {dest.lower(): dest for dest in vars(args)
             if dest not in ("command", "config")}
    parser = build_parser()
    tokens = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in known:
            raise CliError(f"{path}:{lineno}: unknown key {key}")
        value = value.strip().strip('"').strip("'")
        token = f"--{known[key].replace('_', '-')}={value}"
        try:
            parser.parse_args([args.command, token])
        except CliError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
        tokens.append(token)
    return tokens


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghznetsim",
        description="Monte Carlo simulation of GHZ-state distribution "
                    "over noisy quantum networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, users=True):
        p.add_argument("--config", help="key = value file of flags; "
                                        "command-line flags win")
        p.add_argument("--protocol", type=lambda text: _parse_list(str, text),
                       help="comma list from sp-s,sp-t,mp-s,mp-t")
        p.add_argument("--grid", type=parse_int_list, help="grid sizes M (list or range)")
        p.add_argument("--p", type=parse_float_list,
                       help="link generation probabilities (comma list)")
        p.add_argument("--w0", type=float, help="initial Werner parameter")
        p.add_argument("--delta", type=float, help="per-slot decoherence constant")
        p.add_argument("--Qc", type=parse_int_list,
                       help="memory cutoffs (list or range, e.g. 2-8)")
        if users:
            p.add_argument("--users", type=parse_users, help="explicit node list or random:N")
            p.add_argument("--user-sets", type=int, help="number of sampled user sets")
        p.add_argument("--successes", type=int, help="target successes per user set")
        p.add_argument("--max-timeslots", type=int,
                       help="timeslot budget per user set")
        p.add_argument("--seed", type=int, help="root RNG seed")
        p.add_argument("--scale", choices=sorted(SCALES), default="desk",
                       help="preset for user sets, successes and budget")
        p.add_argument("--workers", type=int,
                       help="parallel user-set workers (capped by the CPU count)")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--trial-log", choices=("none", "successes", "all"),
                       default="successes",
                       help="which per-trial records go to trials.jsonl")

    run_p = sub.add_parser("run", help="run a sweep and write result tables")
    common(run_p)
    pareto_p = sub.add_parser("pareto", help="rate/fidelity trade-off analysis")
    common(pareto_p)
    dist_p = sub.add_parser("distance", help="corner-user distance experiment")
    common(dist_p, users=False)     # its users are the grid's corners
    dist_p.set_defaults(grid=(3, 4, 5, 6), p=(0.3,))
    dist_p.add_argument("--floor", type=float, default=experiments.FIDELITY_FLOOR,
                        help="minimum mean fidelity (default 2/3)")
    val_p = sub.add_parser("validate", help="run the oracle cross-check suites")
    val_p.add_argument("--quick", action="store_true",
                       help="smaller sample counts for a fast pass")
    return parser


def build_spec(opts: argparse.Namespace) -> SweepSpec:
    """The sweep the options ask for: the options given, on top of the
    ``--scale`` preset and ``SweepSpec``'s own defaults."""
    users = getattr(opts, "users", None) or {}
    user_sets = getattr(opts, "user_sets", None)
    if "users" in users and user_sets is not None:
        raise CliError("--user-sets counts sampled user sets (--users random:N); "
                       "an explicit --users list is one set")
    given = dict(w0=opts.w0, delta=opts.delta, user_sets=user_sets,
                 target_successes=opts.successes,
                 max_set_timeslots=opts.max_timeslots, seed=opts.seed,
                 protocols=opts.protocol, qc_values=opts.Qc, p_values=opts.p,
                 grid_sizes=opts.grid, **users)
    return SweepSpec(**{**SCALES[opts.scale],
                        **{k: v for k, v in given.items() if v is not None}})


def _progress(cell) -> None:
    met = cell.metrics
    note = "" if met.valid else f"  [omitted: {met.omit_reason}]"
    print(f"  {cell.protocol:5s} p={cell.p:g} Qc={cell.q_c:<2d} M={cell.m}: "
          f"DR={met.dr:.4g} F={met.mean_fidelity:.4f} "
          f"successes={met.successes}{note}")


def cmd_run(opts: argparse.Namespace) -> int:
    spec = build_spec(opts)
    out = Path(opts.out)
    workers = resolve_workers(opts.workers)

    def start():  # once every cell is checked, so a bad value leaves no --out behind
        out.mkdir(parents=True, exist_ok=True)
        print(f"running sweep: {len(spec.protocols)} protocols x "
              f"{len(spec.qc_values)} cutoffs x {len(spec.p_values)} p x "
              f"{len(spec.grid_sizes)} grids ({workers} workers)")

    cells = experiments.run_sweep(spec, workers=workers,
                                  keep_trials=opts.trial_log != "none",
                                  progress=_progress, start=start)
    experiments.write_csv(cells, out / "results.csv")
    experiments.write_summary(cells, out / "summary.json",
                              extra={"spec": _spec_dict(spec)})
    experiments.write_trials_jsonl(cells, out / "trials.jsonl", which=opts.trial_log)
    print(f"wrote {out / 'results.csv'}")
    return EXIT_OK


def _spec_dict(spec: SweepSpec) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(spec).items()}


def cmd_pareto(opts: argparse.Namespace) -> int:
    out = Path(opts.out)
    summary_path = out / "summary.json"
    spec = build_spec(opts)
    if len(spec.p_values) > 1 or len(spec.grid_sizes) > 1:
        raise CliError("pareto analyses one --p and one --grid value")
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


def cmd_distance(opts: argparse.Namespace) -> int:
    spec = build_spec(opts)
    out = Path(opts.out)

    def start():
        out.mkdir(parents=True, exist_ok=True)
        print(f"distance experiment: corners of M in {list(spec.grid_sizes)}, "
              f"p={spec.p_values[0]:g}, fidelity floor {opts.floor:.4f}")

    rows = experiments.distance_experiment(spec, fidelity_floor=opts.floor,
                                           workers=resolve_workers(opts.workers),
                                           progress=_progress, start=start)
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
                                f"fidelity floor {opts.floor:.3g}")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.command == "validate":
            return cmd_validate(args)
        if args.config:
            # the file's flags go first, so the command line's win
            args = parser.parse_args([args.command, *config_tokens(args), *argv[1:]])
        if args.command == "run":
            return cmd_run(args)
        if args.command == "pareto":
            return cmd_pareto(args)
        return cmd_distance(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
