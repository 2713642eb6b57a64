"""
Cost weights, travel-time noise, and solution replay
====================================================

The reward trades energy against waiting, lateness, and completions;
reweighting it changes how much rides are pooled. Episodes can also be
perturbed with half-normal travel noise, and any saved solution can be
re-scored from scratch.
"""

import numpy as np

from edarp import (CostWeights, Env, FleetParams, MaskViolation,
                   NoiseConfig, alns_solve, generate_instance, load_solution,
                   sample_noise, save_solution, score_solution)

# Discounting the time terms tenfold makes pooled rides cheaper than
# solo ones wherever sharing saves energy.
pooled = CostWeights(energy=1.0, wait=0.1, late=0.1, complete=1.0)
uniform = CostWeights(energy=1.0, wait=1.0, late=1.0, complete=1.0)
for name, w in (("pooled ", pooled), ("uniform", uniform)):
    lf = []
    for i in range(8):
        inst = generate_instance(12, fleet=FleetParams(vehicles=4),
                                 seed=50_000 + i, weights=w)
        sol, _ = alns_solve(inst, iterations=400, seed=i)
        lf.append(sol.metrics["load_factor"])
    print(f"{name} weights: mean load factor {np.mean(lf):.3f}")

# Travel noise inflates every traversal by base * (1 + |z| * scale), so
# realized times never undercut the deterministic plan.
z = np.random.default_rng(0).standard_normal(100_000)
draws = sample_noise(600.0, 0.1, z)
print(f"noise floor {draws.min():.1f}s (base 600), "
      f"mean inflation {draws.mean() / 600 - 1:.3f}")

# Solutions serialize to bytes and re-score by full replay, so stale
# or tampered files are caught rather than trusted.
inst = generate_instance(5, seed=77)
sol, _ = alns_solve(inst, iterations=300, seed=0)
blob = save_solution(sol)
back = load_solution(blob)
obj, reward, metrics = score_solution(back, inst)
print(f"replayed reward {reward:.4f} (saved {sol.reward:.4f}), "
      f"completion {metrics['completion_pct']:.0f}%")

# The same plan can be stress-tested under travel noise by stepping its
# visits through the simulator: inflated legs raise the cost, and a
# window pushed past its close takes the next visit off the mask.
env = Env(inst)
visits = [j for route in back.vehicle_routes() if route for j in route + [0]]
for rep in range(5):
    noise = NoiseConfig.make(0.2, seed=rep)
    state = env.reset()
    try:
        for j in visits:
            env.step(state, j, noise=noise)
        while not state.terminal:
            env.step(state, 0)
        print(f"replica {rep}: objective {env.objective(state):.4f}")
    except MaskViolation as err:
        print(f"replica {rep}: plan broke under noise ({err})")
