"""Route selection on a weighted grid: Steiner trees, star flows.

Run:  python demos/routing_tour.py
"""

import math

import numpy as np

from ghznetsim import routing, topology

g = topology.make_grid(5, 0.3, 0.95)
rng = np.random.default_rng(3)
values = {e: float(v) for e, v in zip(g.edges, rng.uniform(0.3, 0.95, g.n_edges))}

print("=== Max-product path: a two-terminal Steiner tree between opposite corners ===")
pair = routing.steiner_tree(g.edges, values, [0, 24])
product = math.prod(values[e] for e in pair.edges)
print(f"  path {pair.branches[0]}")
print(f"  product {product:.4f} over {pair.size} edges")

print("\n=== Exact vs approximate Steiner tree, 4 terminals ===")
terminals = [0, 4, 20, 24]
exact = routing.exact_steiner_tree(g.edges, values, terminals)
approx = routing.approx_steiner_tree(g.edges, values, terminals)
for name, sol in (("exact", exact), ("approx", approx)):
    product = math.prod(values[e] for e in sol.edges)
    print(f"  {name:6s}: {sol.size} edges, product {product:.4f}, "
          f"forks {routing.decompose_tree_branches(sol.edges, terminals)[1]}")

print("\n=== Branch decomposition of the exact tree ===")
for branch in exact.branches:
    print(f"  branch {branch}")

print("\n=== Min-cost star routing from the grid centre ===")
star = routing.star_route(g.edges, values, terminals, center=12)
print(f"  centre 12, {star.size} edges")
for branch in star.branches:
    print(f"  user {branch[0]} -> centre via {branch}")

print("\n=== Static route selection (two-step objective) ===")
tree = routing.select_single_path(g, terminals, "tree")
print(f"  tree kind: {tree.size} edges (minimum Steiner distance "
      f"{topology.steiner_distance(g, terminals)})")
star = routing.select_single_path(g, terminals, "star")
print(f"  star kind: centre {star.center}, {star.size} edges")

print("\n=== Dynamic selection on a partial link-state graph ===")
live = [e for e in g.edges if rng.random() < 0.5]
werner = {e: 0.95 * 0.99 ** int(rng.integers(0, 4)) for e in live}
sol = routing.select_multipath(live, werner, terminals, "tree")
if sol is None:
    print(f"  {len(live)} live links: users not connected, wait another slot")
else:
    print(f"  {len(live)} live links: found a tree of {sol.size} "
          f"(Werner product {math.prod(werner[e] for e in sol.edges):.4f})")
