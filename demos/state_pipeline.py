"""How a tree of noisy links becomes a GHZ state, three independent ways.

The engine's closed form sums independent per-branch Pauli errors in one
pass over the branch tree; the diagonal simulator tracks mixture weights in
the GHZ basis; the dense oracle multiplies out explicit density matrices.
They must agree to machine precision, and on star-shaped trees they must
match the closed-form star fusion fidelity.

Run:  python demos/state_pipeline.py
"""

import math

import numpy as np

from ghznetsim import dense, noise, statesim

rng = np.random.default_rng(8)

print("=== Entanglement swap: two links become one ===")
a, b = statesim.werner_state(0.9), statesim.werner_state(0.8)
out = statesim.swap(a, b)
print(f"  w = 0.9 and w = 0.8  ->  fidelity {out.fidelity():.4f} "
      f"(closed form {(3 * 0.72 + 1) / 4:.4f})")

print("\n=== Fusion: two Bell states become a 3-qubit GHZ state ===")
fused = statesim.fuse(statesim.werner_state(0.95), statesim.werner_state(0.9), 1, 0)
print(f"  fidelity {fused.fidelity():.4f} on {fused.n} qubits")

print("\n=== An H-shaped tree: 7 links, 4 users, 2 fork nodes ===")
edges = [(0, 4), (1, 4), (4, 6), (6, 7), (7, 5), (5, 2), (5, 3)]
users = [0, 1, 2, 3]
werner = {e: float(w) for e, w in zip(edges, rng.uniform(0.85, 1.0, len(edges)))}
f_diag = statesim.tree_ghz_fidelity(edges, werner, users)
f_dense = dense.dense_oracle_fidelity(edges, werner, users)
# branches run between users and forks; each swaps into its Werner product
paths = [(0, 4), (1, 4), (4, 6, 7, 5), (5, 2), (5, 3)]
f_closed = noise.werner_tree_fidelity(
    [(p[0], p[-1], math.prod(werner[e] for e in zip(p, p[1:]))) for p in paths], users)
print(f"  closed form:        {f_closed:.12f}")
print(f"  diagonal simulator: {f_diag:.12f}")
print(f"  dense oracle:       {f_dense:.12f}")
print(f"  |difference|:       {abs(f_diag - f_dense):.2e}")

print("\n=== Star tree: simulators vs the closed form ===")
star_edges = [(9, u) for u in users]
star_w = {e: float(w) for e, w in zip(star_edges, rng.uniform(0.8, 1.0, 4))}
f_sim = statesim.tree_ghz_fidelity(star_edges, star_w, users)
f_formula = noise.star_ghz_fidelity(
    [noise.werner_to_fidelity(star_w[e]) for e in star_edges])
print(f"  pipeline:    {f_sim:.12f}")
print(f"  closed form: {f_formula:.12f}")

print("\n=== The Werner product lower-bounds the exact fidelity ===")
w_r = math.prod(werner.values())
print(f"  H-tree: exact {f_diag:.5f} >= product bound {w_r:.5f}  "
      f"(gap {(f_diag - w_r) / f_diag * 100:.2f}%)")
