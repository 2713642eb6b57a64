"""Exact solver for tiny instances by depth-first branch and bound.

Every mask-feasible action sequence is enumerated with the simulator as
the transition function. A child is expanded only while its optimistic
reward, -J so far plus the completion bonus for each request it can
still finish (_servable), beats the best complete reward. The bound is
admissible because costs only accumulate and no action serves a request
that _servable leaves out; pruning on it therefore never discards a
strictly better trajectory, and reward ties keep the lexicographically
smallest action sequence because depth-first order visits sequences in
exactly that order. Exponential in n: the benchmark runs it at n = 5,
K = 2, and the node budget (solve --limit) caps the expanded nodes.
"""

from .environment import Env


class SearchLimitError(RuntimeError):
    """The node budget ran out before any trajectory was complete."""


def _servable(env, s):
    """Requests state s has served or can still serve: the served ones,
    the on-board ones whose ride cap is not spent, and the unvisited
    pickups, which on the last vehicle must also still be inside their
    window (a fresh vehicle starts at clock 0, so an earlier one drops
    none). Departure clocks never fall, a depot swap clears the on-board
    set and a visited pickup never comes back, so no action serves a
    request left out here; Env.too_late decides every case."""
    n, tau, too_late = env.n, s.clock, env.too_late
    count = s.n_served
    for r, ps in s.onboard.items():
        if not too_late(tau, 1 + n + r, ps):
            count += 1
    last = s.vehicles_used >= env.K
    visited = s.visited
    for p in range(1, 1 + n):
        if not (visited >> p) & 1 and not (last and too_late(tau, p, None)):
            count += 1
    return count


def _search(inst, limit, enumerate_all):
    """Depth-first search: with enumerate_all every trajectory is visited
    and the worst one kept; otherwise branches whose _servable bound
    cannot beat the best are pruned."""
    env = Env(inst)
    w_c = inst.weights.complete
    best = [float("-inf"), None, None]     # reward, action sequence, terminal state
    worst = [float("inf"), None]
    counters = {"expanded": 0, "complete": 0, "exhausted": False}

    def rec(state, seq):
        counters["expanded"] += 1
        if counters["expanded"] > limit:
            counters["exhausted"] = True
            return
        mask = env.mask(state)
        actions = [j for j in range(env.num_nodes) if mask[j]]
        last = actions[-1]
        for j in actions:
            if counters["exhausted"]:
                return
            # nothing reads state after its last child, which may take it over
            child = state if j == last else state.clone()
            env.step(child, j, mask=mask)
            seq.append(j)
            if child.terminal:
                counters["complete"] += 1
                reward = -env.objective(child) + w_c * child.n_served
                if reward > best[0]:
                    best[:] = reward, list(seq), child
                if enumerate_all and reward < worst[0]:
                    worst[:] = reward, list(seq)
            elif (enumerate_all
                  or -env.objective(child) + w_c * _servable(env, child) > best[0]):
                rec(child, seq)
            seq.pop()

    rec(env.reset(), [])
    return env, best, worst, counters


def exact_solve(inst, limit=10_000_000):
    """Max-reward solution over all feasible trajectories.

    Returns (Solution, optimal); optimal is False when the node budget
    ran out, in which case the best trajectory found so far is returned.
    The budget counts expanded nodes; the _servable bound prunes most of
    an n = 5 tree, so the default budget is far from binding there.
    """
    env, best, _, counters = _search(inst, limit, enumerate_all=False)
    if best[2] is None:
        raise SearchLimitError(f"node budget {limit} ran out before the search "
                               "completed any trajectory")
    return env.solution(best[2]), not counters["exhausted"]


def enumerate_rewards(inst, limit=10_000_000):
    """Pruning-free enumeration of every complete trajectory.

    Returns a dict with the best and worst rewards, their action
    sequences, the trajectory count, and whether enumeration finished
    inside the budget. Serves as the independent cross-check for
    exact_solve and as the reward-range reference on tiny instances.
    """
    _, best, worst, counters = _search(inst, limit, enumerate_all=True)
    return {
        "best_reward": best[0],
        "best_seq": best[1],
        "worst_reward": worst[0],
        "worst_seq": worst[1],
        "trajectories": counters["complete"],
        "complete": not counters["exhausted"],
    }
