"""Exact solver for tiny instances by exhaustive depth-first search.

Every mask-feasible action sequence is enumerated with the simulator as
the transition function. The optimistic bound assumes all remaining
requests get served at zero additional cost, which is admissible because
costs only accumulate; pruning on it therefore never discards a strictly
better trajectory, and reward ties keep the lexicographically smallest
action sequence because depth-first order visits sequences in exactly
that order. Exponential in n: intended for n <= 4 and K <= 2.
"""

from .environment import Env


class SearchLimitError(RuntimeError):
    """The node budget ran out before any trajectory was complete."""


def _search(inst, limit, enumerate_all):
    """Depth-first search: with enumerate_all every trajectory is visited
    and the worst one kept; otherwise branches that cannot beat the best
    are pruned."""
    env = Env(inst)
    w_c = inst.weights.complete
    n = inst.n
    best = [float("-inf"), None, None]     # reward, action sequence, terminal state
    worst = [float("inf"), None]
    counters = {"expanded": 0, "complete": 0, "exhausted": False}

    def rec(state, seq):
        counters["expanded"] += 1
        if counters["expanded"] > limit:
            counters["exhausted"] = True
            return
        mask = env.mask(state)
        for j in range(env.num_nodes):
            if not mask[j]:
                continue
            if counters["exhausted"]:
                return
            child = state.clone()
            env.step(child, j, mask=mask)
            seq.append(j)
            if child.terminal:
                counters["complete"] += 1
                reward = -env.objective(child) + w_c * child.n_served
                if reward > best[0]:
                    best[:] = reward, list(seq), child
                if enumerate_all and reward < worst[0]:
                    worst[:] = reward, list(seq)
            elif enumerate_all or -env.objective(child) + w_c * n > best[0]:
                rec(child, seq)
            seq.pop()

    rec(env.reset(), [])
    return env, best, worst, counters


def exact_solve(inst, limit=10_000_000):
    """Max-reward solution over all feasible trajectories.

    Returns (Solution, optimal); optimal is False when the node budget
    ran out, in which case the best trajectory found so far is returned.
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
