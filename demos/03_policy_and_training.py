"""
Training a pointer policy with shared-baseline reinforcement
============================================================

Fit a small attention policy on four-request instances, watch the
validation reward move, and decode with multiple starts.
"""

import numpy as np

from edarp import (PolicyConfig, TrainConfig, generate_instance,
                   greedy_rollout, greedy_solve, multistart_rollout, train)

# A deliberately small run: two-layer encoder, a few hundred instances
# drawn on the fly. Every epoch greedy-decodes a fixed validation set.
cfg = TrainConfig(n=4, epochs=6, steps_per_epoch=10, batch=16, k_p=4,
                  lr=1e-3, seed=0, val_size=16)
policy, report = train(cfg, policy_config=PolicyConfig(d_h=32, heads=4,
                                                       layers=2, seed=0))
for row in report.rows:
    print(f"epoch {row['epoch']}: val reward {row['val_reward']:8.3f}  "
          f"completion {row['val_completion']:5.1f}%")

# The report keeps a copy of the best-so-far weights; compare them
# against the greedy heuristic on fresh instances.
best = report.best_policy
beat = 0
for i in range(20):
    inst = generate_instance(4, seed=900_000 + i)
    h = greedy_solve(inst)
    one = greedy_rollout(best, inst)
    many = multistart_rollout(best, inst, k_p=4)
    beat += many.reward >= h.reward
    if i < 3:
        print(f"instance {i}: heuristic {h.reward:7.3f}  "
              f"single decode {one.reward:7.3f}  "
              f"multistart {many.reward:7.3f}")
print(f"multistart decode matched or beat the heuristic on {beat}/20")
