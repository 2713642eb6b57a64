"""Nearest-feasible-neighbor construction baseline.

From every state the vehicle moves to the feasible non-depot node with
the smallest deterministic energy cost (ties to the lowest index), and
returns to the depot when nothing else is feasible, which swaps in a new
vehicle while the fleet lasts. Myopic on purpose: it chases cheap edges
with no regard for windows, so it wanders into charging stations that
happen to be near and drops requests whose windows close meanwhile.
"""

from .environment import Env


def greedy_solve(inst):
    env = Env(inst)
    state = env.reset()
    while not state.terminal:
        m = env.mask(state)
        e_v = env.e[state.node]
        action = 0
        best_e = float("inf")
        for j in range(1, env.num_nodes):
            if m[j] and e_v[j] < best_e:
                action, best_e = j, e_v[j]
        env.step(state, action, mask=m)
    return env.solution(state)
