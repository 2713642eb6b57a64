"""
Exact oracle, greedy construction, and adaptive search
======================================================

Solve tiny instances exactly by exhaustive search, then compare the
greedy insertion baseline against adaptive large neighborhood search
on something bigger.
"""

import numpy as np

from edarp import (alns_solve, enumerate_rewards, exact_solve,
                   generate_instance, greedy_solve)

# On one or two requests the full trajectory tree is small enough to
# enumerate, which gives a ground-truth reward range.
tiny = generate_instance(n=2, seed=3)
sol, optimal = exact_solve(tiny)
scan = enumerate_rewards(tiny)
print(f"exact reward {sol.reward:.4f} (optimal={optimal}), "
      f"{scan['trajectories']} complete trajectories, "
      f"worst {scan['worst_reward']:.4f}")

# Greedy moves the vehicle to the feasible node cheapest to reach in
# energy, and to the depot only when nothing else is feasible; ALNS then
# destroys and repairs parts of that plan, adapting operator choice to
# what keeps working.
inst = generate_instance(n=10, seed=42)
g = greedy_solve(inst)
print(f"greedy:  reward {g.reward:8.3f}  served {g.n_served}/{inst.n}")

for iters in (0, 500, 5000):
    a, stats = alns_solve(inst, iterations=iters, seed=1)
    print(f"alns {iters:>5} iters: reward {a.reward:8.3f}  "
          f"served {a.n_served}/{inst.n}")

# The search trace is monotone in the best cost; watch the last few
# improvements and which operator pair found them.
for it, best_j, cur_j, tol, d_op, r_op in stats.history[-4:]:
    print(f"iter {it:>5}: best J {best_j:8.3f}  via {d_op} + {r_op}")
print(f"accepted {stats.accepted}/{len(stats.history)} candidates, "
      f"{stats.new_best} new bests")
