"""How a tree of noisy links becomes a GHZ state, two independent ways.

The engine's closed form sums independent per-branch Pauli errors in one
pass over the branch tree; the reference oracle in ``statesim`` multiplies
out explicit density matrices for every swap, fusion and removal. They must
agree to machine precision, and on star-shaped trees they must match the
closed-form star fusion fidelity.

Run:  python demos/state_pipeline.py
"""

import math

import numpy as np

from ghznetsim import noise, statesim

rng = np.random.default_rng(8)

print("=== Entanglement swap: two links become one ===")
out = statesim.swap_dense(statesim.werner_dm(0.9), statesim.werner_dm(0.8))
print(f"  w = 0.9 and w = 0.8  ->  fidelity {statesim.ghz_fidelity(out):.4f} "
      f"(closed form {(3 * 0.72 + 1) / 4:.4f})")

print("\n=== Fusion: two Bell states become a 3-qubit GHZ state ===")
fused = statesim.fuse_dense(statesim.werner_dm(0.95), 2, statesim.werner_dm(0.9), 2, 1, 0)
print(f"  fidelity {statesim.ghz_fidelity(fused):.4f} "
      f"({fused.shape[0]}x{fused.shape[0]} density matrix)")

print("\n=== An H-shaped tree: 7 links, 4 users, 2 fork nodes ===")
edges = [(0, 4), (1, 4), (4, 6), (6, 7), (7, 5), (5, 2), (5, 3)]
users = [0, 1, 2, 3]
werner = {e: float(w) for e, w in zip(edges, rng.uniform(0.85, 1.0, len(edges)))}
f_dense = statesim.tree_ghz_fidelity(edges, werner, users)
# branches run between users and forks; each swaps into its Werner product
paths = [(0, 4), (1, 4), (4, 6, 7, 5), (5, 2), (5, 3)]
f_closed = noise.werner_tree_fidelity(
    [(p[0], p[-1], math.prod(werner[e] for e in zip(p, p[1:]))) for p in paths], users)
print(f"  closed form:   {f_closed:.12f}")
print(f"  dense oracle:  {f_dense:.12f}")
print(f"  |difference|:  {abs(f_closed - f_dense):.2e}")

print("\n=== Star tree: oracle vs the closed-form star fusion fidelity ===")
star_edges = [(9, u) for u in users]
star_w = {e: float(w) for e, w in zip(star_edges, rng.uniform(0.8, 1.0, 4))}
f_sim = statesim.tree_ghz_fidelity(star_edges, star_w, users)
f_formula = noise.star_ghz_fidelity(
    [noise.werner_to_fidelity(star_w[e]) for e in star_edges])
print(f"  dense oracle: {f_sim:.12f}")
print(f"  closed form:  {f_formula:.12f}")

print("\n=== The Werner product lower-bounds the exact fidelity ===")
w_r = math.prod(werner.values())
print(f"  H-tree: exact {f_dense:.5f} >= product bound {w_r:.5f}  "
      f"(gap {(f_dense - w_r) / f_dense * 100:.2f}%)")
