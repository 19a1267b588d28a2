"""Follow one Monte Carlo trial slot by slot.

Shows the link-state graph filling up, old links expiring at the cutoff, and
the moment a routing solution becomes feasible and is turned into a GHZ
state. As in ``engine.run_trial``, completion is checked only in slots that
made a link: in any other slot links only expire and decay, so a check that
failed before would fail again.

Run:  python demos/single_trial_walkthrough.py
"""

import numpy as np

from ghznetsim import engine, protocols, topology

g = topology.make_grid(4, 0.1, 0.97)
users = (0, 3, 12)
q_c = 4
delta = 0.99

state = protocols.initialize("mp-t", g, users)
rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(22)))
# the link state owns the trial's random stream and its buffer of uniforms
links = engine.LinkState(g, q_c, rng)

print(f"4x4 grid, users {users}, p = 0.1, cutoff Qc = {q_c}")
print(f"{'slot':>4}  {'live':>4}  {'ages':<26}  note")
plan = None
checks = 0
for t in range(1, 200):
    made = engine.step(links, state)
    # each link is stored as the slot it was born in; its age is t - born
    ages = [links.t - b for b in links.born if links.t - b < q_c]
    if made:
        checks += 1
        # a feasible route comes back as its realisation plan
        plan = protocols.try_complete(state, links, delta)
        note = "no route yet" if plan is None else \
            f"feasible! tree of {plan.route.size} edges"
    else:
        note = "no new link: check skipped"
    print(f"{t:>4}  {len(ages):>4}  {str(ages):<26}  {note}")
    if plan is not None:
        realized = protocols.realize_ghz(plan, links, delta)
        print(f"\nrealized GHZ state at slot {t} after {checks} completion checks:")
        print(f"  edges      {plan.route.edges}")
        print(f"  fidelity   {realized.fidelity:.5f}")
        print(f"  |R|        {realized.r_size}")
        print(f"  mean age   {realized.mean_age:.2f} slots")
        print(f"  bound      {realized.werner_product:.5f} (Werner product)")
        print(f"  uniforms   {links.filled - len(links.buffer)} drawn from the trial's stream")
        break
else:
    print("no success within 200 slots; rerun with another seed")
