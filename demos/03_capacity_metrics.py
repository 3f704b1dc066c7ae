"""
Graph capacity metrics and the critical growth constant
=======================================================

Three numbers describe a network: the max absolute row sum (the global
capacity is (3/2 + sqrt(2)) over it), the smallest nonzero arc weight (the
adversary budget enters as 4 over this), and the summability threshold of
the full-sum coupled (dagger) recursion, found by bisection.

That last number is not a capacity. On the 5-cycle it reads 3.973, above
the global capacity 2.914, yet the local_flow law already diverges there at
slope 2.0 in 4 of 5 seed sets.
"""

import numpy as np

from netfeedback import (WeightedDigraph, estimate_dagger, inf_norm,
                         random_strongly_connected, sharp_metric,
                         simulate_scalar_recursion, xie_guo_constant)

# 1. the closed form constant, recovered numerically
value, minimizer = xie_guo_constant()
print("critical constant:", f"{value:.12f}")
print("closed form      :", f"{1.5 + np.sqrt(2):.12f}")
print("minimizer        :", f"{minimizer:.6f}  (1 + sqrt(2)/2 = {1 + np.sqrt(2) / 2:.6f})")
print()

# 2. growth recursion straddling the constant: summable below, divergent above
for M in (2.85, 2.97):
    r = simulate_scalar_recursion(M, T=100_000)
    print(f"M = {M}: {r.verdict} after {r.steps} steps, "
          f"running sum {r.partial_sums[-1]:.4g}")
print()

# 3. metrics on a few graphs
named = [("unit selfloop", WeightedDigraph(np.array([[1.0]]))),
         ("cycle of 5", WeightedDigraph(np.roll(np.eye(5), 1, axis=0)))]
print("graph                 inf_norm  sharp   full_sum_threshold")
for name, g in named:
    est = estimate_dagger(g)
    print(f"{name:<20}  {inf_norm(g):<8.3f}  {sharp_metric(g):<6.3f}  "
          f"{est.estimate:.3f} ({est.label.split(';')[0]})")

rng_seeds = (0, 3, 7)
for s in rng_seeds:
    g = random_strongly_connected(4, seed=s)
    est = estimate_dagger(g)
    print(f"random SC seed {s:<5}  {inf_norm(g):<8.3f}  {sharp_metric(g):<6.3f}  "
          f"{est.estimate:.3f} ({est.label.split(';')[0]})")

# the estimate never falls below 1 / inf_norm, the regime where the plant
# cannot outrun the row sums at all
