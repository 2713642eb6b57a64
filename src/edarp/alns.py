"""Adaptive large neighborhood search over complete episode plans.

Candidates are produced by destroy/repair moves on a plan, one
RouteInfo per vehicle (edarp.routes), and priced from the route model
(RouteCtx.plan_objective, which equals a replay's objective). Only the
routes a move touched are simulated again. The simulator stays the
arbiter: it replays the plan the search returns, and first judges any
candidate that visits a charger twice, which the route model cannot.
Acceptance is record-to-record: a candidate passes while it stays
within a shrinking tolerance band above the best cost seen so far. The
cost being minimized is the negated episode reward, so unserved
requests pay their forfeited completion bonus.

The search runs one tuned parameter set, the module constants below;
only the iteration count and the seed are arguments of alns_solve.
"""

from dataclasses import dataclass, field

import numpy as np

from .environment import Env, ReplayError, replay
from .greedy import greedy_solve
from .routes import (RouteCtx, RouteInfo, _strip, plan_from_solution,
                     remove_requests, served_requests)

SEGMENT_LENGTH = 100        # iterations between operator weight updates
REMOVAL_LOW = 0.1           # destroyed share of n, drawn from [LOW, HIGH)
REMOVAL_HIGH = 0.3
SIGMA1 = 10.0               # segment score: new best
SIGMA2 = 5.0                # accepted and better than the current plan
SIGMA3 = 1.0                # accepted otherwise
WEIGHT_DECAY = 0.2          # share of the segment score in a new weight
W_MIN = 0.1                 # floor of an operator weight
RTR_INIT_FRAC = 0.05        # first acceptance band, share of the greedy cost
RTR_DECAY = 0.99            # band shrink per iteration
SHAW_ALPHA = 0.5            # relatedness weight of travel times
SHAW_BETA = 0.5             # relatedness weight of window opens
SHAW_RANK_POW = 6.0         # bias of Shaw removal towards the most related


class OperatorWeights:
    """Roulette weights with per-segment score accounting."""

    def __init__(self, names):
        self.names = list(names)
        self.values = {n: 1.0 for n in self.names}
        self.scores = {n: 0.0 for n in self.names}
        self.uses = {n: 0 for n in self.names}

    def pick(self, rng):
        total = sum(self.values[n] for n in self.names)
        x = rng.random() * total
        acc = 0.0
        for n in self.names:
            acc += self.values[n]
            if x < acc:
                return n
        return self.names[-1]

    def credit(self, name, score):
        self.scores[name] += score
        self.uses[name] += 1

    def update(self):
        for n in self.names:
            u = self.uses[n]
            if u > 0:
                blended = ((1.0 - WEIGHT_DECAY) * self.values[n]
                           + WEIGHT_DECAY * self.scores[n] / u)
                self.values[n] = max(W_MIN, blended)
            self.scores[n] = 0.0
            self.uses[n] = 0


def rtr_tolerance(initial_cost, iteration):
    """Acceptance band after the given number of completed iterations."""
    return RTR_INIT_FRAC * abs(initial_cost) * RTR_DECAY ** iteration


def rtr_accept(candidate_cost, best_cost, tolerance):
    return candidate_cost <= best_cost + tolerance


# -- destroy operators --------------------------------------------------------

def random_removal(rng, served, q):
    idx = rng.choice(len(served), size=q, replace=False)
    return sorted(served[i] for i in idx)


def shaw_removal(rng, served, q, rel):
    pool = list(served)
    seed = pool.pop(int(rng.integers(len(pool))))
    removed = [seed]
    while pool and len(removed) < q:
        scored = sorted(pool, key=lambda r: min(rel[r][s] for s in removed))
        k = int(rng.random() ** SHAW_RANK_POW * len(scored))
        pick = scored[min(k, len(scored) - 1)]
        pool.remove(pick)
        removed.append(pick)
    return sorted(removed)


def _savings(info, ctx):
    """(request, saving) of each request on info's route, in stop order:
    the cost its removal saves the route, 0.0 when the rest of the route
    is infeasible."""
    n = ctx.env.n
    out = []
    for node in info.nodes:
        if 1 <= node <= n:
            tcost = ctx.removal_cost(info, node - 1)
            out.append((node - 1, info.cost - tcost if tcost != float("inf") else 0.0))
    return out


def worst_removal(plan, ctx, q):
    """Remove, q times, the request whose removal saves its route the
    most. Removals are priced from each route's RouteInfo
    (RouteCtx.removal_cost; a route the route model rejects is skipped)
    once per call: only the route just cut is simulated and priced
    again."""
    plan = list(plan)
    savings = [None] * len(plan)    # per route, _savings until it is cut
    removed = []
    for _ in range(q):
        best_r, best_saving = None, None
        for ridx, info in enumerate(plan):
            if info.cost is None:
                continue
            if savings[ridx] is None:
                savings[ridx] = _savings(info, ctx)
            for r, saving in savings[ridx]:
                if best_saving is None or saving > best_saving:
                    best_r, best_saving = (r, ridx), saving
        if best_r is None:
            break
        r, ridx = best_r
        kept = _strip(plan[ridx].nodes, {r}, ctx)
        plan[ridx] = ctx.simulate(kept) or RouteInfo(kept)
        savings[ridx] = None
        removed.append(r)
    return sorted(removed)


def shaw_relatedness(inst):
    """Relatedness of every request pair: travel times between their
    pickups and between their deliveries, and the gaps between their
    window opens, each scaled to [0, 1]; lower is more related."""
    n = inst.n
    t = inst.edges.time
    tmax = float(t.max())
    horizon = inst.horizon
    a = np.array([nd.a for nd in inst.nodes])
    pick = slice(1, 1 + n)
    drop = slice(1 + n, 1 + 2 * n)
    ap, ad = a[pick], a[drop]
    rel = (SHAW_ALPHA * (t[pick, pick] + t[drop, drop]) / tmax
           + SHAW_BETA * (np.abs(ap[:, None] - ap[None, :])
                          + np.abs(ad[:, None] - ad[None, :])) / horizon)
    return rel.tolist()


# -- repair operators ----------------------------------------------------------

def _candidates(ctx, plan, req):
    """All feasible insertions of a request across the plan, one empty
    route at most (they are interchangeable)."""
    out = []
    saw_empty = False
    for ridx, info in enumerate(plan):
        if not info.nodes:
            if saw_empty:
                continue
            saw_empty = True
        for delta, i, j in ctx.scan_insertions(info, req):
            out.append((delta, ridx, i, j))
    return out


def _apply(ctx, plan, req, ridx, i, j):
    info = ctx.simulate(ctx.insert(plan[ridx].nodes, req, i, j))
    if info is None:
        raise RuntimeError("insertion scan produced an infeasible candidate")
    plan[ridx] = info


def random_insert(rng, ctx, plan, pool):
    """Insert each pooled request at a uniformly chosen feasible spot."""
    order = [pool[i] for i in rng.permutation(len(pool))]
    for req in order:
        cands = _candidates(ctx, plan, req)
        if not cands:
            continue
        delta, ridx, i, j = cands[int(rng.integers(len(cands)))]
        _apply(ctx, plan, req, ridx, i, j)


def regret_insert(ctx, plan, pool, k):
    """Highest regret first: the request whose best spot is most
    irreplaceable goes in now. Fewer than k feasible positions counts
    as infinite regret; ties fall to the lowest request id."""
    pending = sorted(pool)
    cands = {r: _candidates(ctx, plan, r) for r in pending}
    while pending:
        best_req, best_key, best_top = None, None, None
        for req in pending:
            cl = cands[req]
            if not cl:
                continue
            ordered = sorted(cl)[:k]
            if len(ordered) < k:
                regret = float("inf")
            else:
                regret = sum(c[0] - ordered[0][0] for c in ordered[1:])
            key = (regret, -req)
            if best_key is None or key > best_key:
                best_req, best_key, best_top = req, key, ordered[0]
        if best_req is None:
            break
        delta, ridx, i, j = best_top
        was_empty = not plan[ridx].nodes
        _apply(ctx, plan, best_req, ridx, i, j)
        pending.remove(best_req)
        if was_empty:
            # a fresh empty route may have become available to the others
            cands = {r: _candidates(ctx, plan, r) for r in pending}
        else:
            for req in pending:
                kept = [c for c in cands[req] if c[1] != ridx]
                kept.extend((d, ridx, i2, j2) for d, i2, j2 in
                            ctx.scan_insertions(plan[ridx], req))
                cands[req] = kept


# -- main loop -----------------------------------------------------------------

@dataclass
class AlnsStats:
    accepted: int = 0
    new_best: int = 0
    replay_failures: int = 0    # candidates refused by replay, see alns_solve
    # one row per priced candidate: (iteration, bestJ, currentJ, tolerance, d_op, r_op)
    history: list = field(default_factory=list)


def alns_solve(inst, iterations=5000, seed=0):
    """Improve the greedy plan by adaptive destroy/repair.

    Returns (Solution, AlnsStats). With zero iterations the solution is
    the greedy one unchanged. The best-cost trajectory in the stats is
    non-increasing by construction.
    """
    rng = np.random.default_rng(seed)
    env = Env(inst)
    ctx = RouteCtx(env)
    n = inst.n
    bonus = inst.weights.complete

    greedy = greedy_solve(inst)
    plan = best_plan = [ctx.simulate(r) or RouteInfo(r)
                        for r in plan_from_solution(greedy, inst.fleet.vehicles)]
    cur_j = best_j = init_j = -greedy.reward

    dweights = OperatorWeights(["random_removal", "shaw_removal", "worst_removal"])
    rweights = OperatorWeights(["random_insert", "regret_2", "regret_3"])
    rel = shaw_relatedness(inst) if n else None
    stats = AlnsStats()

    for it in range(iterations):
        tol = rtr_tolerance(init_j, it)
        d_op = dweights.pick(rng)
        r_op = rweights.pick(rng)

        cand_plan = list(plan)
        served = served_requests(cand_plan, n)
        if served:
            frac = rng.uniform(REMOVAL_LOW, REMOVAL_HIGH)
            q = max(1, min(len(served), round(frac * n)))
            if d_op == "random_removal":
                ids = random_removal(rng, served, q)
            elif d_op == "shaw_removal":
                ids = shaw_removal(rng, served, q, rel)
            else:
                ids = worst_removal(plan, ctx, q)
            # repairs every route, also the greedy routes the route model rejects
            cand_plan = remove_requests(plan, ctx, ids)
        # everything not on a route right now is up for insertion
        pool = sorted(set(range(n)) - set(served_requests(cand_plan, n)))

        if any(info.cost is None for info in cand_plan):
            raise RuntimeError("destroy step left a route the route model rejects")
        if r_op == "random_insert":
            random_insert(rng, ctx, cand_plan, pool)
        else:
            regret_insert(ctx, cand_plan, pool, 2 if r_op == "regret_2" else 3)
        # Each route simulates, but the route model cannot see a charger two
        # stops share (greedy's escape moves leave such plans); only replay
        # can tell whether its escape rule reaches the second visit.
        routes = [info.nodes for info in cand_plan]
        stations = [nd for route in routes for nd in route if nd > 2 * n]
        if len(stations) != len(set(stations)):
            try:
                replay(env, routes)
            except ReplayError:
                stats.replay_failures += 1
                dweights.credit(d_op, 0.0)
                rweights.credit(r_op, 0.0)
                continue
        # home() needs load 0, so every pickup on a route is delivered
        cand_j = (ctx.plan_objective(cand_plan)
                  - bonus * len(served_requests(cand_plan, n)))

        score = 0.0
        if cand_j < best_j:
            score = SIGMA1
        accepted = rtr_accept(cand_j, best_j, tol)
        if accepted and score == 0.0:
            score = SIGMA2 if cand_j < cur_j else SIGMA3
        dweights.credit(d_op, score)
        rweights.credit(r_op, score)

        if cand_j < best_j:
            best_plan, best_j = cand_plan, cand_j
            stats.new_best += 1
        if accepted:
            plan, cur_j = cand_plan, cand_j
            stats.accepted += 1

        stats.history.append((it, best_j, cur_j, tol, d_op, r_op))
        if (it + 1) % SEGMENT_LENGTH == 0:
            dweights.update()
            rweights.update()

    return replay(env, [info.nodes for info in best_plan]), stats
