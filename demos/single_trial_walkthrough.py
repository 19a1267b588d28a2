"""Follow one Monte Carlo trial slot by slot.

Shows the link-state graph filling up, old links expiring at the cutoff, and
the moment a routing solution becomes feasible and is turned into a GHZ
state.

Run:  python demos/single_trial_walkthrough.py
"""

import numpy as np

from ghznetsim import engine, protocols, topology

g = topology.make_grid(4, 0.25, 0.97)
users = (0, 3, 12)
q_c = 4
delta = 0.99

state = protocols.initialize("mp-t", g, users)
links = engine.LinkState(g, q_c)
rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(12)))

print(f"4x4 grid, users {users}, p = 0.25, cutoff Qc = {q_c}")
print(f"{'slot':>4}  {'live':>4}  {'ages':<26}  note")
solution = None
for t in range(1, 200):
    engine.step(links, state, rng)
    # each link is stored as the slot it was born in; its age is t - born
    age = links.t - links.born
    ages = [int(a) for a in age[age < q_c]]
    n_live = len(ages)
    solution = protocols.try_complete(state, links, delta)
    note = ""
    if solution is not None:
        note = f"feasible! tree of {solution.size} edges"
    print(f"{t:>4}  {n_live:>4}  {str(ages):<26}  {note}")
    if solution is not None:
        realized = protocols.realize_ghz(solution, links, delta, users)
        print(f"\nrealized GHZ state at slot {t}:")
        print(f"  edges      {solution.edges}")
        print(f"  fidelity   {realized.fidelity:.5f}")
        print(f"  |R|        {realized.r_size}")
        print(f"  mean age   {realized.mean_age:.2f} slots")
        print(f"  bound      {realized.werner_product:.5f} (Werner product)")
        break
else:
    print("no success within 200 slots; rerun with another seed")
