"""A scaled-down rate/fidelity trade-off sweep with a plotted frontier.

Uses a friendlier generation probability than the full study so it finishes
in well under a minute. Writes mini_pareto.svg to the working directory.

Run:  python demos/mini_pareto.py
"""

from pathlib import Path

from ghznetsim import experiments, svgplot
from ghznetsim.experiments import SweepSpec

spec = SweepSpec(
    protocols=("mp-t", "sp-t"),
    qc_values=(1, 2, 3, 5, 8),
    p_values=(0.3,),
    grid_sizes=(4,),
    user_sets=6,
    target_successes=60,
    max_set_timeslots=20_000,
    seed=77,
)

print("running mini sweep (2 protocols x 5 cutoffs, 6 user sets)...")
cells = experiments.run_sweep(spec, workers=1, keep_trials=False)

print(f"\n{'protocol':<8} {'Qc':>3} {'DR':>10} {'fidelity':>9} {'|R|':>6} {'age':>5}")
for cell in cells:
    met = cell.metrics
    if not met.valid:
        print(f"{cell.protocol:<8} {cell.q_c:>3} {'omitted':>10}  ({met.omit_reason})")
        continue
    print(f"{cell.protocol:<8} {cell.q_c:>3} {met.dr:>10.5f} {met.mean_fidelity:>9.4f} "
          f"{met.mean_r_size:>6.2f} {met.mean_age:>5.2f}")

stats = experiments.comparison_stats(experiments.summary_dict(cells)["cells"],
                                     p=0.3, m=4)
print(f"\nmatched comparisons (tree): speedup {stats['tree_speedup']:.2f}, "
      f"fidelity gain {stats['tree_fidelity_gain'] * 100:.1f}%")

series = {proto: [(pt["dr"], pt["fidelity"], str(pt["q_c"])) for pt in pts]
          for proto, pts in stats["points"].items() if pts}
out = Path("mini_pareto.svg")
svgplot.pareto_scatter(series, out, title="mini sweep: rate vs fidelity")
print(f"wrote {out}")
