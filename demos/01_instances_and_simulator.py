"""
Generating instances and driving the episode simulator
=======================================================

Build a random dial-a-ride instance, look at what is inside it, and
walk the electric-vehicle simulator step by step under its own
feasibility mask.
"""

import numpy as np

from edarp import Env, charging_power, generate_instance

# A size-n instance has 1 depot, n pickups, n deliveries, and one or
# more charging stations, in that node order. Everything is derived
# deterministically from the seed.
inst = generate_instance(n=3, charger_count=1, seed=7)
print("nodes:", [nd.kind for nd in inst.nodes])
print("horizon:", inst.horizon, "s")
for r in inst.requests:
    nd = inst.nodes[r.pickup]
    print(f"request {r.id}: pickup window [{nd.a:.0f}, {nd.l:.0f}]s, "
          f"ride cap {r.max_ride:.0f}s")

# The charging curve is piecewise linear in the state of charge: fast
# below 0.45, tapering to trickle above 0.95.
for soc in (0.2, 0.45, 0.7, 0.95, 0.99):
    print(f"charging power at soc {soc:.2f}: {charging_power(soc):6.1f} kW")

# The environment exposes a boolean mask over next nodes; any action
# inside the mask keeps the episode feasible (capacity, precedence,
# hard pickup windows, ride caps, and the battery reserve).
env = Env(inst)
state = env.reset()
rng = np.random.default_rng(0)
while not state.terminal:
    options = np.flatnonzero(env.mask(state))
    j = int(rng.choice(options))
    out = env.step(state, j)
    print(f"step {state.steps:>2}: -> node {j:>2}  clock {state.clock:7.1f}s"
          f"  soc {state.soc:.3f}  load {state.load}")
    state = out.state

# A terminal state scores into a Solution with the cost breakdown.
sol = env.solution(state)
print(f"served {sol.n_served}/{inst.n}  reward {sol.reward:.3f}  "
      f"energy {sol.j_energy:.3f} kWh")
