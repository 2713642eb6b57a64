"""Exact solver for tiny instances by depth-first branch and bound.

Every mask-feasible action sequence is enumerated on the per-hop kernel
Env builds: a search node is a handful of plain values (node, clock,
SoC, load, on-board map, visited bits, vehicle, served count and the
energy, wait, late and travel totals), and its children are Env.home's
depot return and Env.hop's tuples over exactly Env.mask's candidates,
in ascending node order. Each child adds its hop's costs to the totals
in Env.step's order, so every total, and with it every price, is the
simulator's to the bit. Only a node with no feasible hop and no depot
return goes to the simulator itself: it becomes an EpisodeState, and
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


def _search(inst, limit, enumerate_all):
    """Depth-first search: with enumerate_all every trajectory is visited
    and the worst reward kept; otherwise branches whose _servable bound
    cannot beat the best are pruned."""
    env = Env(inst)
    n, K, hop, home, price = env.n, env.K, env.hop, env.home, env.price
    w_c = inst.weights.complete
    pickups, chargers, d0 = range(1, 1 + n), env.chargers, 1 + n
    start = env.reset()
    best = [float("-inf"), None]           # reward, action sequence
    worst = [float("inf")]
    expanded = complete = 0
    exhausted = False
    seq = []

    def finish(reward):
        nonlocal complete
        complete += 1
        if reward > best[0]:
            best[:] = reward, list(seq)
        if enumerate_all and reward < worst[0]:
            worst[0] = reward

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
            elif (enumerate_all or -price(E2, W, L, T2)
                  + w_c * _servable(env, 0.0, {}, visited, veh + 1, served) > best[0]):
                rec(0, 0.0, 1.0, 0, {}, visited, veh + 1, served, E2, W, L, T2)
            seq.pop()
        any_ok = h is not None
        for p in pickups:
            if (visited >> p) & 1 or (h := hop(v, tau, b, load, p, None)) is None:
                continue
            if exhausted:
                return
            any_ok = True
            ss, dep, b2, load2, wait, _, de, dt = h
            E2, W2, T2 = E + de, W + wait, T + dt
            onboard2 = dict(onboard)
            onboard2[p - 1] = ss
            visited2 = visited | 1 << p
            seq.append(p)
            if (enumerate_all or -price(E2, W2, L, T2)
                    + w_c * _servable(env, dep, onboard2, visited2, veh, served) > best[0]):
                rec(p, dep, b2, load2, onboard2, visited2, veh, served, E2, W2, L, T2)
            seq.pop()
        for r in sorted(onboard):
            d = d0 + r
            if (h := hop(v, tau, b, load, d, onboard[r])) is None:
                continue
            if exhausted:
                return
            any_ok = True
            _, dep, b2, load2, _, late, de, dt = h
            E2, L2, T2 = E + de, L + late, T + dt
            onboard2 = dict(onboard)
            del onboard2[r]
            visited2 = visited | 1 << d
            seq.append(d)
            if (enumerate_all or -price(E2, W, L2, T2)
                    + w_c * _servable(env, dep, onboard2, visited2, veh, served + 1) > best[0]):
                rec(d, dep, b2, load2, onboard2, visited2, veh, served + 1, E2, W, L2, T2)
            seq.pop()
        for c in chargers:
            if (visited >> c) & 1 or (h := hop(v, tau, b, load, c, None)) is None:
                continue
            if exhausted:
                return
            any_ok = True
            _, dep, b2, load2, _, _, de, dt = h
            E2, T2 = E + de, T + dt
            visited2 = visited | 1 << c
            seq.append(c)
            if (enumerate_all or -price(E2, W, L, T2)
                    + w_c * _servable(env, dep, onboard, visited2, veh, served) > best[0]):
                rec(c, dep, b2, load2, onboard, visited2, veh, served, E2, W, L, T2)
            seq.pop()
        if any_ok:
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
        elif (enumerate_all or -env.objective(s) + w_c * _servable(
                env, s.clock, s.onboard, s.visited, s.vehicles_used, s.n_served) > best[0]):
            rec(*_values(s))
        seq.pop()

    rec(*_values(start))
    return env, best, worst, {"expanded": expanded, "complete": complete,
                              "exhausted": exhausted}


def exact_solve(inst, limit=10_000_000):
    """Max-reward solution over all feasible trajectories.

    Returns (Solution, optimal); optimal is False when the node budget
    ran out, in which case the best trajectory found so far is returned.
    The budget counts expanded nodes; the _servable bound prunes most of
    an n = 5 tree, so the default budget is far from binding there.
    The Solution is the replay of the best action sequence through the
    simulator, and it must score the search's reward to the bit.
    """
    env, best, _, counters = _search(inst, limit, enumerate_all=False)
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
    """Pruning-free enumeration of every complete trajectory.

    Returns a dict with the best and worst rewards, the best action
    sequence, the trajectory count, and whether enumeration finished
    inside the budget. Serves as the reward-range reference on tiny
    instances and as exact_solve's check that the bound prunes nothing
    better.
    """
    _, best, worst, counters = _search(inst, limit, enumerate_all=True)
    return {
        "best_reward": best[0],
        "best_seq": best[1],
        "worst_reward": worst[0],
        "trajectories": counters["complete"],
        "complete": not counters["exhausted"],
    }
