"""Single-route evaluation and insertion search for the neighborhood solver.

A plan is a list of per-vehicle RouteInfos, each holding its route's
node sequence without depot bookends. Vehicles are cost-independent
here because every charging station is visited at most once globally
and plans never duplicate one, so a route can be simulated on its own:
fresh vehicle, every hop served by the simulator's own per-hop kernel
(Env.hop and Env.home), the one home of the feasibility, battery and
charging rules. Insertion scans and removal prices reuse the prefix
state up to the changed stop and walk the rest with one tail walk
(RouteCtx.walk), so their verdicts and prices agree with a from-scratch
simulation exactly. Scans skip the candidates that the kernel's
lateness bound (Env.too_late) already rules out; this module keeps no
window or ride-cap arithmetic of its own. A route is simulated again
only when a move changed it.

Greedy's start plan breaks that premise where the simulator's escape
move ran: a depot return with passengers aboard leaves a route this
model rejects (a RouteInfo whose cost is None), which remove_requests
strips until it simulates, and a second visit to a charger is a plan
fact this model cannot see.

Costs here are a route's contribution to the objective J; the completion
bonus is a constant per inserted request and cancels out of position
comparisons, so it never appears in these deltas.
"""

from .environment import _CHARGER, EpisodeState


class RouteInfo:
    """Per-stop timeline of one simulated route; index 0 is the fresh vehicle.
    cost stays None for a route the route model rejects."""

    __slots__ = ("nodes", "DEP", "B", "LOAD", "PS", "legs",
                 "cumE", "cumW", "cumL", "cumT", "E", "W", "L", "T", "cost")

    def __init__(self, nodes):
        m = len(nodes)
        self.nodes = nodes
        self.DEP = [0.0] * (m + 1)     # clock after service
        self.B = [1.0] * (m + 1)       # soc after stop (incl. charge)
        self.LOAD = [0] * (m + 1)
        self.PS = [None] * (m + 1)     # pickup service start of a delivery stop
        self.legs = []                 # (wait, late, de, dt) per hop, depot return last
        self.cumE = [0.0] * (m + 1)    # running totals after stop k
        self.cumW = [0.0] * (m + 1)
        self.cumL = [0.0] * (m + 1)
        self.cumT = [0.0] * (m + 1)
        self.cost = None


class RouteCtx:
    """Route evaluation on one simulator's per-hop kernel."""

    def __init__(self, env):
        self.env = env
        w = env.inst.weights
        self.we = w.energy
        self.ww = w.wait / w.time_unit
        self.wl = w.late / w.time_unit
        self.wt = w.travel / w.time_unit

    # -- full route simulation ------------------------------------------------

    def simulate(self, nodes):
        """Simulate one route from a fresh vehicle; RouteInfo or None."""
        info = RouteInfo(list(nodes))
        hop, n = self.env.hop, self.env.n
        u, tau, b, load = 0, 0.0, 1.0, 0
        ss_of = {}                      # pickup node -> service start
        legs = info.legs
        E = W = L = T = 0.0
        for k, w_node in enumerate(nodes, start=1):
            if w_node == 0:
                raise ValueError("routes must not contain the depot")
            ps = ss_of.get(w_node - n)
            res = hop(u, tau, b, load, w_node, ps)
            if res is None:
                return None
            ss, dep, b, load, wait, late, de, dt = res
            legs.append(res[4:])
            if w_node <= n:
                ss_of[w_node] = ss
            E += de
            W += wait
            L += late
            T += dt
            info.DEP[k] = dep
            info.B[k] = b
            info.LOAD[k] = load
            info.PS[k] = ps
            info.cumE[k] = E
            info.cumW[k] = W
            info.cumL[k] = L
            info.cumT[k] = T
            u, tau = w_node, dep
        leg = self.env.home(u, b, load)
        if leg is None:
            return None
        legs.append((0.0, 0.0) + leg)
        E += leg[0]
        T += leg[1]
        info.E, info.W, info.L, info.T = E, W, L, T
        info.cost = self.we * E + self.ww * W + self.wl * L + self.wt * T
        return info

    def plan_objective(self, plan):
        """Objective J of a plan of simulated routes. The totals add up
        hop by hop in replay's order, so J equals replay's bit for bit."""
        tot = EpisodeState()
        for info in plan:
            for wait, late, de, dt in info.legs:
                tot.wait_sec += wait
                tot.late_sec += late
                tot.energy_kwh += de
                tot.travel_sec += dt
        return self.env.objective(tot)

    # -- insertion search -----------------------------------------------------

    def scan_insertions(self, info, req):
        """Every feasible way to put a request into one route.

        Returns (cost_delta, i, j) triples: pickup right after the i-th
        stop of the current route, delivery right after what is then
        the j-th original stop (j == i puts it directly behind the
        pickup). The tail behind each candidate is walked (walk) until
        it fails or reaches the depot, so a returned candidate is
        feasible by construction. Pickups re-timed by the insertion are
        looked up in a per-candidate override map, all others in
        info.PS.

        The kernel's lateness bound (Env.too_late) prunes without
        simulating: departure clocks never fall along a route, so once
        the pickup's window has closed at a slot's departure it is
        closed at every later slot, and once the next original stop
        cannot be served at the walk's clock, neither the delivery nor
        the walk on can reach it. Only infeasible candidates are
        skipped; the list and its order are what a full scan returns.
        """
        env = self.env
        hop, too_late, n = env.hop, env.too_late, env.n
        p = 1 + req
        d = 1 + n + req
        m = len(info.nodes)
        rnodes = info.nodes
        PS = info.PS
        out = []
        for i in range(m + 1):
            if too_late(info.DEP[i], p, None):
                break           # DEP never decreases: no later slot either
            u = rnodes[i - 1] if i else 0
            hop_p = hop(u, info.DEP[i], info.B[i], info.LOAD[i], p, None)
            if hop_p is None:
                continue
            ss_p, tau_c, b_c, load_c, wait_p, _, de_p, dt_p = hop_p
            # delta of the edge swap at the pickup junction accrues when the
            # tail walk reaches the next original stop; track state instead
            cur = p
            ss_over = {p: ss_p}
            # costs of the re-simulated middle part (stops i+1 .. j), and of
            # the old route from stop i on, which every candidate replaces
            midE, midW, midL, midT = de_p, wait_p, 0.0, dt_p
            oldE = info.E - info.cumE[i]
            oldW = info.W - info.cumW[i]
            oldL = info.L - info.cumL[i]
            oldT = info.T - info.cumT[i]
            for j in range(i, m + 1):
                if too_late(tau_c, d, ss_p):
                    break       # departure already too late for the delivery
                if j < m:
                    nxt = rnodes[j]
                    ps_nxt = ss_over.get(nxt - n, PS[j + 1])
                    if too_late(tau_c, nxt, ps_nxt):
                        break   # no path from here reaches the next stop
                hop_d = hop(cur, tau_c, b_c, load_c, d, ss_p)
                if hop_d is not None:
                    _, st_tau, st_b, st_load, _, late_d, de_d, dt_d = hop_d
                    # d is not on the route, so the walk drops no stop
                    tail = self.walk(info, j + 1, d, st_tau, st_b, st_load, dict(ss_over),
                                     d, midE + de_d, midW, midL + late_d, midT + dt_d)
                    if tail is not None:
                        tailE, tailW, tailL, tailT = tail
                        delta = (self.we * (tailE - oldE) + self.ww * (tailW - oldW)
                                 + self.wl * (tailL - oldL) + self.wt * (tailT - oldT))
                        out.append((delta, i, j))
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

    def walk(self, info, k, u, tau, b, load, over, drop, E, W, L, T):
        """(E, W, L, T) of info's route walked from its k-th stop and home,
        starting at node u in state (tau, b, load) with running totals E,
        W, L, T; None when a hop or the return fails. Skips the delivery
        drop and any charger a removal strands (as _strip does),
        and extends over, the map of re-timed pickups. The totals add up
        in simulate's order, so they keep a full simulation's bits."""
        hop, kindc, n = self.env.hop, self.env.kindc, self.env.n
        rnodes, PS = info.nodes, info.PS
        for k in range(k, len(rnodes) + 1):
            w = rnodes[k - 1]
            if w == drop or (kindc[w] == _CHARGER and (u == 0 or kindc[u] == _CHARGER)):
                continue
            res = hop(u, tau, b, load, w, over.get(w - n, PS[k]))
            if res is None:
                return None
            ss, tau, b, load, wait, late, de, dt = res
            if w <= n:
                over[w] = ss
            E += de
            W += wait
            L += late
            T += dt
            u = w
        leg = self.env.home(u, b, load)
        if leg is None:
            return None
        return E + leg[0], W, L, T + leg[1]

    def removal_cost(self, info, req):
        """Cost of info's route without request req, the chargers its
        removal strands dropped as _strip drops them.

        A simulated route has no stranded charger, so the stops before
        the pickup stay as they are: their state is read from info and
        only the rest is walked. The price therefore equals the cost of
        simulating the cleaned route bit for bit (inf when that is
        infeasible).
        """
        p = 1 + req
        i = info.nodes.index(p)
        tail = self.walk(info, i + 2, info.nodes[i - 1] if i else 0,
                         info.DEP[i], info.B[i], info.LOAD[i], {}, p + self.env.n,
                         info.cumE[i], info.cumW[i], info.cumL[i], info.cumT[i])
        if tail is None:
            return float("inf")
        E, W, L, T = tail
        return self.we * E + self.ww * W + self.wl * L + self.wt * T

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


def _strip(route, reqs, ctx):
    """The route without the pickups and deliveries of the requests reqs
    and without the chargers that leaves stranded (leading the route or
    following another charger)."""
    n, kindc = ctx.env.n, ctx.env.kindc
    out = []
    for node in route:
        # (node - 1) % n is the request of a pickup or a delivery node
        if 1 <= node <= 2 * n and (node - 1) % n in reqs:
            continue
        if kindc[node] == _CHARGER and (not out or kindc[out[-1]] == _CHARGER):
            continue
        out.append(node)
    return out


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
