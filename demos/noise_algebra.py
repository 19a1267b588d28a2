"""Tour of the Werner-parameter algebra behind the simulator.

Run:  python demos/noise_algebra.py
"""

import math

from ghznetsim import noise, statesim

print("=== Werner parameter vs Bell fidelity ===")
for w in (1.0, 0.987, 0.9, 0.5, 0.0):
    print(f"  w = {w:5.3f}  ->  F = {noise.werner_to_fidelity(w):.5f}")

print("\n=== Storage decoherence (w0 = 0.987, delta = 0.99) ===")
for tau in (0, 1, 2, 5, 10, 20):
    w = 0.987 * 0.99 ** tau
    print(f"  tau = {tau:2d} slots  ->  w = {w:.5f}  F = {noise.werner_to_fidelity(w):.5f}")

print("\n=== Swapping a chain multiplies Werner parameters ===")
chain = [0.987] * 5
swapped = statesim.pipeline_fidelity([(0, 5, chain)], [0, 5], [])
print(f"  five links at w = 0.987: w_chain = {math.prod(chain):.5f}, "
      f"F = {noise.werner_to_fidelity(math.prod(chain)):.5f} "
      f"(dense oracle {swapped:.5f})")

print("\n=== Star fusion fidelity (one Bell state per branch) ===")
for k in (3, 4, 5):
    fb = noise.werner_to_fidelity(0.987)
    print(f"  {k} branches at F_B = {fb:.5f}: "
          f"F_GHZ = {noise.star_ghz_fidelity([fb] * k):.5f}")

print("\n=== Fidelity floor w0^|R| * delta^(age |R|) from route size and mean link age ===")
for r_size, age in ((5, 0.0), (5, 2.0), (10, 2.0), (15, 1.0)):
    floor = 0.987 ** r_size * 0.99 ** (age * r_size)
    print(f"  |R| = {r_size:2d}, mean age = {age:.0f}:  floor = {floor:.5f}")

print("\n=== Rounds needed to cross the grid percolation threshold ===")
for p in (0.5, 0.3, 0.1, 0.05):
    k = noise.percolation_min_rounds(p, 0.5)
    print(f"  p = {p:4.2f}:  k_t = {k:2d}  (so DR is capped near {1.0 / k:.3f})")
