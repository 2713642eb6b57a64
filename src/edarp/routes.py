"""Single-route evaluation and insertion search for the neighborhood solver.

A plan is a list of per-vehicle RouteInfos, each holding its route's
node sequence without depot bookends and the tuples the simulator's
per-hop kernel (Env.hop and Env.home), the one home of the feasibility,
battery and charging rules, returned along it. Vehicles are
cost-independent here because every charging station is visited at most
once globally and plans never duplicate one, so a route can be simulated
on its own. One tail walk (RouteCtx.walk) serves every evaluation:
simulate walks a route from a fresh vehicle, and insertion scans and
removal prices walk the rest, a plain node list, from a recorded stop,
so their verdicts and prices agree with a from-scratch simulation
exactly. The stops a removal strands are dropped by _stripped alone,
lazily, as the walk reaches them. Scans skip the candidates that the
kernel's lateness bound (Env.too_late) already rules out, at the walk's
clock or, for a whole pickup slot, at the pickup's earliest departure
(Env.ready), and every price is Env.price; this module keeps no window,
ride-cap or charger rule and no cost weight of its own. A route is
simulated again only when a move changed it.

Greedy's start plan breaks that premise where the simulator's escape
move ran: a depot return with passengers aboard leaves a route this
model rejects (a RouteInfo whose cost is None), which remove_requests
strips until it simulates, and a second visit to a charger is a plan
fact this model cannot see.

Costs here are a route's contribution to the objective J; the completion
bonus is a constant per inserted request and cancels out of position
comparisons, so it never appears in these deltas.
"""

from .environment import _CHARGER


class RouteInfo:
    """One route's simulation in the kernel's own terms.

    hops[k] is Env.hop's tuple (ss, dep, soc, load, wait, late, de, dt)
    at stop k: hops[0] is the fresh vehicle at the depot, and the last
    entry is the depot return, whose leg (0.0, 0.0, de, dt) is Env.home's
    and whose state fields are None. run[k] holds the running totals
    (E, W, L, T) after hops[k], so run[-1] is the route's. SS maps each
    pickup node to its service start. cost stays None, and hops and run
    hold only the fresh vehicle, for a route the route model rejects."""

    __slots__ = ("nodes", "hops", "run", "SS", "cost")

    def __init__(self, nodes):
        self.nodes = nodes
        self.hops = [(0.0, 0.0, 1.0, 0, 0.0, 0.0, 0.0, 0.0)]
        self.run = [(0.0, 0.0, 0.0, 0.0)]
        self.SS = {}
        self.cost = None


class RouteCtx:
    """Route evaluation on one simulator's per-hop kernel."""

    def __init__(self, env):
        self.env = env

    # -- full route simulation ------------------------------------------------

    def simulate(self, nodes):
        """Simulate one route from a fresh vehicle; RouteInfo or None.
        The route is the tail walk from the depot, which records its
        hops and running totals in the RouteInfo."""
        if 0 in nodes:
            raise ValueError("routes must not contain the depot")
        info = RouteInfo(list(nodes))
        tot = self.walk(info.nodes, 0, 0.0, 1.0, 0, info.SS,
                        0.0, 0.0, 0.0, 0.0, info)
        if tot is None:
            return None
        info.cost = self.env.price(*tot)
        return info

    def plan_objective(self, plan):
        """Objective J of a plan of simulated routes. The totals add up
        hop by hop in replay's order, so J equals replay's bit for bit."""
        E = W = L = T = 0.0
        for info in plan:
            for _, _, _, _, wait, late, de, dt in info.hops[1:]:
                W += wait
                L += late
                E += de
                T += dt
        return self.env.price(E, W, L, T)

    # -- insertion search -----------------------------------------------------

    def scan_insertions(self, info, req):
        """Every feasible way to put a request into one route.

        Returns (cost_delta, i, j) triples: pickup right after the i-th
        stop of the current route, delivery right after what is then
        the j-th original stop (j == i puts it directly behind the
        pickup). The tail behind each candidate is walked (walk) until
        it fails or reaches the depot, so a returned candidate is
        feasible by construction. Each candidate's walk gets its own
        copy of the pickup starts: info.SS with the pickups the
        insertion re-timed.

        The kernel's lateness bound (Env.too_late) prunes without
        simulating: departure clocks never fall along a route, so once
        the pickup's window has closed at a slot's departure it is
        closed at every later slot, and once the next original stop
        cannot be served at the walk's clock, neither the delivery nor
        the walk on can reach it. The pickup never departs before
        Env.ready[p], so a slot whose next original stop is too late at
        that clock would stop at its first delivery slot; it is skipped
        before the pickup hop. Only infeasible candidates are skipped;
        the list and its order are what a full scan returns.
        """
        env = self.env
        hop, too_late, price, n = env.hop, env.too_late, env.price, env.n
        p = 1 + req
        d = 1 + n + req
        ready_p = env.ready[p]
        rnodes, hops, run, SS = info.nodes, info.hops, info.run, info.SS
        m = len(rnodes)
        totE, totW, totL, totT = run[-1]
        out = []
        for i in range(m + 1):
            _, dep, b, load, _, _, _, _ = hops[i]
            if too_late(dep, p, None):
                break           # departures never fall: no later slot either
            if i < m and too_late(ready_p, rnodes[i], SS.get(rnodes[i] - n)):
                continue        # the next stop closes before the pickup can leave
            u = rnodes[i - 1] if i else 0
            hop_p = hop(u, dep, b, load, p, None)
            if hop_p is None:
                continue
            ss_p, tau_c, b_c, load_c, wait_p, _, de_p, dt_p = hop_p
            # delta of the edge swap at the pickup junction accrues when the
            # tail walk reaches the next original stop; track state instead
            cur = p
            ss_over = SS.copy()
            # costs of the re-simulated middle part (stops i+1 .. j), and of
            # the old route from stop i on, which every candidate replaces
            midE, midW, midL, midT = de_p, wait_p, 0.0, dt_p
            cumE, cumW, cumL, cumT = run[i]
            oldE, oldW, oldL, oldT = totE - cumE, totW - cumW, totL - cumL, totT - cumT
            for j in range(i, m + 1):
                if too_late(tau_c, d, ss_p):
                    break       # departure already too late for the delivery
                if j < m:
                    nxt = rnodes[j]
                    ps_nxt = ss_over.get(nxt - n)
                    if too_late(tau_c, nxt, ps_nxt):
                        break   # no path from here reaches the next stop
                hop_d = hop(cur, tau_c, b_c, load_c, d, ss_p)
                if hop_d is not None:
                    _, st_tau, st_b, st_load, _, late_d, de_d, dt_d = hop_d
                    tail = self.walk(rnodes[j:], d, st_tau, st_b, st_load, ss_over.copy(),
                                     midE + de_d, midW, midL + late_d, midT + dt_d)
                    if tail is not None:
                        tailE, tailW, tailL, tailT = tail
                        out.append((price(tailE - oldE, tailW - oldW,
                                          tailL - oldL, tailT - oldT), i, j))
                if j == m:
                    break
                res = hop(cur, tau_c, b_c, load_c, nxt, ps_nxt)
                if res is None:
                    break       # pickup insertion breaks the route from here on
                wn_ss, tau_c, b_c, load_c, wn_wait, wn_late, wn_de, wn_dt = res
                if nxt <= n:
                    ss_over[nxt] = wn_ss
                midE += wn_de
                midW += wn_wait
                midL += wn_late
                midT += wn_dt
                cur = nxt
        return out

    # -- tail walk and removal pricing -----------------------------------------

    def walk(self, nodes, u, tau, b, load, over, E, W, L, T, info=None):
        """(E, W, L, T) of the stops nodes walked and the return home,
        starting at node u in state (tau, b, load) with running totals
        E, W, L, T; None when a hop or the return fails. over maps
        pickup nodes to service starts; the walk reads a delivery's
        pickup start from it and records the pickups it serves. The
        totals add up hop by hop in one fixed order, so a walk from any
        stop of a simulated route keeps a full simulation's bits. A
        given RouteInfo receives each hop's tuple and the depot return
        in hops, and the running totals after each in run (simulate's
        record)."""
        hop, n = self.env.hop, self.env.n
        for w in nodes:
            res = hop(u, tau, b, load, w, over.get(w - n))
            if res is None:
                return None
            ss, tau, b, load, wait, late, de, dt = res
            if w <= n:
                over[w] = ss
            E += de
            W += wait
            L += late
            T += dt
            if info is not None:
                info.hops.append(res)
                info.run.append((E, W, L, T))
            u = w
        leg = self.env.home(u, b, load)
        if leg is None:
            return None
        E += leg[0]
        T += leg[1]
        if info is not None:
            info.hops.append((None, None, None, None, 0.0, 0.0) + leg)
            info.run.append((E, W, L, T))
        return E, W, L, T

    def removal_cost(self, info, req):
        """Cost of info's route without request req, the chargers its
        removal strands dropped (_stripped).

        A simulated route has no stranded charger, so the stops before
        the pickup stay as they are: their state is read from info, and
        only the rest, stripped from the stop before the pickup on, is
        walked. The price therefore equals the cost of simulating the
        cleaned route bit for bit (inf when that is infeasible).
        """
        i = info.nodes.index(1 + req)
        u = info.nodes[i - 1] if i else 0
        _, dep, b, load, _, _, _, _ = info.hops[i]
        tail = self.walk(_stripped(info.nodes[i + 1:], {req}, self, u), u,
                         dep, b, load, info.SS.copy(), *info.run[i])
        if tail is None:
            return float("inf")
        return self.env.price(*tail)

    def insert(self, nodes, req, i, j):
        """Materialize a candidate from scan_insertions."""
        p = 1 + req
        d = 1 + self.env.n + req
        out = list(nodes)
        out.insert(i, p)
        out.insert(j + 1, d)
        return out


def plan_from_solution(sol, k):
    """Per-vehicle node lists from a solution, padded to the fleet size."""
    plan = [list(r) for r in sol.vehicle_routes()]
    while len(plan) < k:
        plan.append([])
    return plan


def served_requests(plan, n):
    out = []
    for info in plan:
        for node in info.nodes:
            if 1 <= node <= n:
                out.append(node - 1)
    return sorted(out)


def remove_requests(plan, ctx, req_ids):
    """Strip the given requests from a plan, then repair structural damage.

    Chargers stranded by the removal (leading a route or following
    another charger) are dropped. If a shortened route turns infeasible
    in spite of that, which the asymmetric matrices allow when a bypass
    edge is slower than the detour it replaced, requests are stripped
    from its tail until it simulates cleanly; then prune_chargers runs
    on it. A route the removal left unchanged keeps its RouteInfo unless
    the route model rejects it; every other route is simulated again.
    The removal pool is every request served_requests no longer finds.
    """
    n = ctx.env.n
    drop = set(req_ids)
    out = []
    for info in plan:
        kept = _strip(info.nodes, drop, ctx)
        if kept != info.nodes or info.cost is None:
            info = ctx.simulate(kept)
            while info is None and kept:
                victim = next((nd - 1 for nd in reversed(kept) if 1 <= nd <= n), None)
                kept = [] if victim is None else _strip(kept, {victim}, ctx)
                info = ctx.simulate(kept)
            info = prune_chargers(info, ctx)
        out.append(info)
    return out


def _strip(route, reqs, ctx, prev=0):
    """_stripped as a list."""
    return list(_stripped(route, reqs, ctx, prev))


def _stripped(route, reqs, ctx, prev=0):
    """The route without the pickups and deliveries of the requests reqs
    and without the chargers that leaves stranded (following the depot
    or another charger, Env.hop's charger rule); prev is the stop before
    route, the depot for a whole route. Lazy, so a walk that fails
    early strips no further."""
    n, kindc = ctx.env.n, ctx.env.kindc
    for node in route:
        # (node - 1) % n is the request of a pickup or a delivery node
        if 1 <= node <= 2 * n and (node - 1) % n in reqs:
            continue
        if kindc[node] == _CHARGER and (prev == 0 or kindc[prev] == _CHARGER):
            continue
        yield node
        prev = node


def prune_chargers(info, ctx):
    """Drop charger stops whose removal keeps the route feasible and no
    more expensive; the inherited greedy routes are littered with them.
    info must be a simulated route; returns the pruned route's info."""
    kindc = ctx.env.kindc
    changed = True
    while changed:
        changed = False
        route = info.nodes
        for idx, node in enumerate(route):
            if kindc[node] != _CHARGER:
                continue
            tinfo = ctx.simulate(route[:idx] + route[idx + 1:])
            if tinfo is not None and tinfo.cost <= info.cost:
                info = tinfo
                changed = True
                break
    return info
