"""Exact solver for tiny instances by depth-first branch and bound.

Every mask-feasible action sequence is enumerated on the per-hop kernel
Env builds: a search node is a handful of plain values (node, clock,
SoC, load, on-board map, visited bits, vehicle, served count and the
energy, wait, late and travel totals), and its children are Env.home's
depot return and Env.moves' (node, hop tuple) pairs, the regular moves
of Env.mask, in ascending node order. Each child adds its hop's four
costs to the totals in Env.step's order, so every total, and with it
every price, is the simulator's to the bit. Only a node with no regular
move goes to the simulator itself: it becomes an EpisodeState, and
Env.mask and Env.step take the escape move, so the escape rule stays
Env's alone.

A child is expanded only while its optimistic reward, -J so far plus
the completion bonus for each request it can still finish (_servable),
beats the best complete reward. The bound is admissible because costs
only accumulate and no action serves a request that _servable leaves
out; pruning on it therefore never discards a strictly better
trajectory, and reward ties keep the lexicographically smallest action
sequence because depth-first order visits sequences in exactly that
order. Exponential in n: the benchmark runs it at n = 5, K = 2, and the
node budget (solve --limit) caps the expanded nodes.
"""

from .environment import Env, replay


class SearchLimitError(RuntimeError):
    """The node budget ran out before any trajectory was complete."""


def _servable(env, tau, onboard, visited, vehicle, served):
    """Requests a search node has served or can still serve: the served
    ones, the on-board ones whose ride cap is not spent at clock tau, and
    the unvisited pickups, which on the last vehicle must also still be
    inside their window. A later vehicle starts at clock 0, so it drops
    no unvisited pickup, and they are counted from the visited bits.
    Departure clocks never fall, a depot swap clears the on-board set and
    a visited pickup never comes back, so no action serves a request left
    out here; Env.too_late decides every case."""
    n, too_late = env.n, env.too_late
    count = served
    for r, ps in onboard.items():
        if not too_late(tau, 1 + n + r, ps):
            count += 1
    if vehicle < env.K:
        return count + n - ((visited >> 1) & ((1 << n) - 1)).bit_count()
    for p in range(1, 1 + n):
        if not (visited >> p) & 1 and not too_late(tau, p, None):
            count += 1
    return count


def _values(s):
    """The search node of EpisodeState s, in rec's argument order."""
    return (s.node, s.clock, s.soc, s.load, s.onboard, s.visited, s.vehicles_used,
            s.n_served, s.energy_kwh, s.wait_sec, s.late_sec, s.travel_sec)


def _search(inst, limit):
    """Depth-first search, pruning each child whose _servable bound
    cannot beat the best complete reward."""
    env = Env(inst)
    n, K, moves, home, price = env.n, env.K, env.moves, env.home, env.price
    w_c = inst.weights.complete
    d0, c0 = 1 + n, 1 + 2 * n             # the first delivery and charger
    start = env.reset()
    best = [float("-inf"), None]           # reward, action sequence
    expanded = 0
    exhausted = False
    seq = []

    def finish(reward):
        if reward > best[0]:
            best[:] = reward, list(seq)

    def rec(v, tau, b, load, onboard, visited, veh, served, E, W, L, T):
        nonlocal expanded, exhausted
        expanded += 1
        if expanded > limit:
            exhausted = True
            return
        h = home(v, b, load)
        if h is not None:
            de, dt = h
            E2, T2 = E + de, T + dt
            seq.append(0)
            if served == n or veh == K:
                finish(-price(E2, W, L, T2) + w_c * served)
            elif -price(E2, W, L, T2) + w_c * _servable(env, 0.0, {}, visited, veh + 1,
                                                         served) > best[0]:
                rec(0, 0.0, 1.0, 0, {}, visited, veh + 1, served, E2, W, L, T2)
            seq.pop()
        children = moves(v, tau, b, load, onboard, visited)
        for j, (ss, dep, b2, load2, wait, late, de, dt) in children:
            if exhausted:
                return
            # Env.step's order; adding a zero wait or late is exact, no total is -0.0
            E2, W2, L2, T2 = E + de, W + wait, L + late, T + dt
            onboard2, served2 = onboard, served
            if j < d0:                      # a pickup boards its request
                onboard2 = dict(onboard)
                onboard2[j - 1] = ss
            elif j < c0:                    # a delivery serves it
                onboard2 = dict(onboard)
                del onboard2[j - d0]
                served2 += 1
            visited2 = visited | 1 << j
            seq.append(j)
            if -price(E2, W2, L2, T2) + w_c * _servable(env, dep, onboard2, visited2, veh,
                                                        served2) > best[0]:
                rec(j, dep, b2, load2, onboard2, visited2, veh, served2, E2, W2, L2, T2)
            seq.pop()
        if h is not None or children:
            return
        # every regular rule blocks: the simulator takes its escape move
        s = start.clone()
        s.node, s.clock, s.soc, s.load, s.onboard = v, tau, b, load, dict(onboard)
        s.visited, s.vehicles_used, s.n_served = visited, veh, served
        s.energy_kwh, s.wait_sec, s.late_sec, s.travel_sec = E, W, L, T
        mask = env.mask(s)
        j = mask.index(True)
        env.step(s, j, mask=mask)
        seq.append(j)
        if s.terminal:
            finish(-env.objective(s) + w_c * s.n_served)
        elif -env.objective(s) + w_c * _servable(
                env, s.clock, s.onboard, s.visited, s.vehicles_used, s.n_served) > best[0]:
            rec(*_values(s))
        seq.pop()

    rec(*_values(start))
    return env, best, {"expanded": expanded, "exhausted": exhausted}


def exact_solve(inst, limit=10_000_000):
    """Max-reward solution over all feasible trajectories.

    Returns (Solution, optimal); optimal is False when the node budget
    ran out, in which case the best trajectory found so far is returned.
    The budget counts expanded nodes; the _servable bound prunes most of
    an n = 5 tree, so the default budget is far from binding there.
    The Solution is the replay of the best action sequence through the
    simulator, and it must score the search's reward to the bit.
    """
    env, best, counters = _search(inst, limit)
    if best[1] is None:
        raise SearchLimitError(f"node budget {limit} ran out before the search "
                               "completed any trajectory")
    routes = [[]]                           # split at depot returns; the last ends it
    for j in best[1][:-1]:
        if j:
            routes[-1].append(j)
        else:
            routes.append([])
    sol = replay(env, routes)
    if sol.reward.hex() != best[0].hex():
        raise RuntimeError(f"replay scores the search's best sequence {sol.reward!r}, "
                           f"the search {best[0]!r}")
    return sol, not counters["exhausted"]


def enumerate_rewards(inst, limit=10_000_000):
    """Every complete trajectory, walked with Env.mask, EpisodeState.clone
    and Env.step alone: the simulator's own enumeration, the reference the
    search is checked against on tiny instances. Returns the best and worst
    rewards, the best action sequence (ties keep the first in depth-first
    order, the lexicographically smallest), the trajectory count, the
    non-terminal states visited (expanded, which the budget counts) and
    whether the walk finished inside the budget (complete)."""
    env = Env(inst)
    w_c = inst.weights.complete
    out = {"best_reward": float("-inf"), "best_seq": None, "worst_reward": float("inf"),
           "trajectories": 0, "complete": True, "expanded": 0}

    def rec(state, seq):
        out["expanded"] += 1
        if out["expanded"] > limit:
            out["complete"] = False
            return
        mask = env.mask(state)
        for j in (j for j, ok in enumerate(mask) if ok):
            if not out["complete"]:
                return
            child = state.clone()
            env.step(child, j, mask=mask)
            if not child.terminal:
                rec(child, seq + [j])
                continue
            reward = -env.objective(child) + w_c * child.n_served
            out["trajectories"] += 1
            if reward > out["best_reward"]:
                out["best_reward"], out["best_seq"] = reward, seq + [j]
            out["worst_reward"] = min(out["worst_reward"], reward)

    rec(env.reset(), [])
    return out
