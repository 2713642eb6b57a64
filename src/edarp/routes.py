"""Single-route evaluation and insertion search for the neighborhood solver.

A plan is a list of per-vehicle node sequences without depot bookends.
Vehicles are cost-independent here because every charging station is
visited at most once globally and plans never duplicate one, so a route
can be simulated on its own: fresh vehicle, every hop served by the
simulator's own per-hop kernel (Env.hop and Env.home), the one home of
the feasibility, battery and charging rules. Insertion scans and
removal prices reuse the prefix state up to the changed stop and
re-simulate the rest, so their verdicts and prices agree with a
from-scratch simulation exactly. Scans skip the candidates that the
kernel's lateness bound (Env.too_late) already rules out; this module
keeps no window or ride-cap arithmetic of its own.

Greedy's start plan breaks that premise where the simulator's escape
move ran: a depot return with passengers aboard leaves a route this
model rejects, which remove_requests strips until it simulates, and a
second visit to a charger is a plan fact this model cannot see.

Costs here are a route's contribution to the objective J; the completion
bonus is a constant per inserted request and cancels out of position
comparisons, so it never appears in these deltas.
"""

from .environment import _CHARGER, EpisodeState


class RouteInfo:
    """Per-stop timeline of one simulated route; index 0 is the fresh vehicle."""

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

    def route_cost(self, nodes):
        info = self.simulate(nodes)
        return info.cost if info is not None else float("inf")

    def plan_objective(self, infos):
        """Objective J of a plan from its routes' infos. The totals add up
        hop by hop in replay's order, so J equals replay's bit for bit."""
        tot = EpisodeState()
        for info in infos:
            for wait, late, de, dt in info.legs:
                tot.wait_sec += wait
                tot.late_sec += late
                tot.energy_kwh += de
                tot.travel_sec += dt
        return self.env.objective(tot)

    # -- insertion search -----------------------------------------------------

    def scan_insertions(self, nodes, info, req):
        """Every feasible way to put a request into one route.

        Returns (cost_delta, i, j) triples: pickup right after the i-th
        stop of the current route, delivery right after what is then
        the j-th original stop (j == i puts it directly behind the
        pickup). The tail behind each candidate is re-simulated until
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
        hop, home, too_late, n = env.hop, env.home, env.too_late, env.n
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
            # costs of the re-simulated middle part (stops i+1 .. j)
            midE, midW, midL, midT = de_p, wait_p, 0.0, dt_p
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
                    tailE = midE + de_d
                    tailW = midW
                    tailL = midL + late_d
                    tailT = midT + dt_d
                    st = d
                    over = dict(ss_over)
                    for k in range(j + 1, m + 1):
                        wn = rnodes[k - 1]
                        res = hop(st, st_tau, st_b, st_load, wn, over.get(wn - n, PS[k]))
                        if res is None:
                            break
                        wn_ss, st_tau, st_b, st_load, wn_wait, wn_late, wn_de, wn_dt = res
                        if wn <= n:
                            over[wn] = wn_ss
                        tailE += wn_de
                        tailW += wn_wait
                        tailL += wn_late
                        tailT += wn_dt
                        st = wn
                    else:
                        leg = home(st, st_b, st_load)
                        if leg is not None:
                            tailE += leg[0]
                            tailT += leg[1]
                            oldE = info.E - info.cumE[i]
                            oldW = info.W - info.cumW[i]
                            oldL = info.L - info.cumL[i]
                            oldT = info.T - info.cumT[i]
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

    # -- removal pricing ------------------------------------------------------

    def removal_cost(self, info, req):
        """Cost of info's route without request req, the chargers its
        removal strands dropped as _clean_chargers drops them.

        A simulated route has no stranded charger, so the stops before
        the pickup stay as they are: their state is read from info and
        only the rest is re-simulated, with the totals added hop by hop
        in simulate's order. The price therefore equals route_cost of
        the cleaned route bit for bit (inf when that is infeasible).
        """
        hop, kindc, n = self.env.hop, self.env.kindc, self.env.n
        p = 1 + req
        rnodes = info.nodes
        PS = info.PS
        i = rnodes.index(p)
        u = rnodes[i - 1] if i else 0
        tau, b, load = info.DEP[i], info.B[i], info.LOAD[i]
        E, W, L, T = info.cumE[i], info.cumW[i], info.cumL[i], info.cumT[i]
        over = {}                       # re-timed pickups of the tail
        for k in range(i + 2, len(rnodes) + 1):
            w = rnodes[k - 1]
            if w == p + n or (kindc[w] == _CHARGER and (u == 0 or kindc[u] == _CHARGER)):
                continue
            res = hop(u, tau, b, load, w, over.get(w - n, PS[k]))
            if res is None:
                return float("inf")
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
            return float("inf")
        E += leg[0]
        T += leg[1]
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
    for route in plan:
        for node in route:
            if 1 <= node <= n:
                out.append(node - 1)
    return sorted(out)


def remove_requests(plan, ctx, req_ids):
    """Strip the given requests from a plan, then repair structural damage.

    Chargers stranded by the removal (leading a route or following
    another charger) are dropped. If a shortened route turns infeasible
    in spite of that, which the asymmetric matrices allow when a bypass
    edge is slower than the detour it replaced, requests are stripped
    from its tail until it simulates cleanly. Returns the new plan only:
    the removal pool is every request served_requests no longer finds
    on it.
    """
    n = ctx.env.n
    drop = set(req_ids)
    out = []
    for route in plan:
        # (node - 1) % n is the request of a pickup or a delivery node
        kept = _clean_chargers([nd for nd in route if not
                                (1 <= nd <= 2 * n and (nd - 1) % n in drop)], ctx)
        while kept and ctx.simulate(kept) is None:
            victim = next((nd - 1 for nd in reversed(kept) if 1 <= nd <= n), None)
            if victim is None:
                kept = []
                break
            kept = [nd for nd in kept
                    if nd != 1 + victim and nd != 1 + n + victim]
            kept = _clean_chargers(kept, ctx)
        out.append(kept)
    return out


def _clean_chargers(route, ctx):
    kindc = ctx.env.kindc
    out = []
    for node in route:
        if kindc[node] == _CHARGER and (not out or kindc[out[-1]] == _CHARGER):
            continue
        out.append(node)
    return out


def prune_chargers(plan, ctx):
    """Drop charger stops whose removal keeps the route feasible and no
    more expensive; the inherited greedy routes are littered with them."""
    kindc = ctx.env.kindc
    out = []
    for route in plan:
        cost = ctx.route_cost(route)
        changed = True
        while changed:
            changed = False
            for idx, node in enumerate(route):
                if kindc[node] != _CHARGER:
                    continue
                trial = route[:idx] + route[idx + 1:]
                tcost = ctx.route_cost(trial)
                if tcost <= cost:
                    route, cost = trial, tcost
                    changed = True
                    break
        out.append(route)
    return out
