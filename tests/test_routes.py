import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edarp import (Env, FleetParams, Instance, ReplayError, RouteCtx,
                   alns_solve, generate_instance, greedy_solve, plan_from_solution,
                   prune_chargers, remove_requests, replay)
from edarp.routes import RouteInfo, _strip, served_requests


def make_ctx(seed, n=4, chargers=2, fleet=None):
    inst = generate_instance(n, charger_count=chargers, fleet=fleet, seed=seed)
    env = Env(inst)
    return inst, env, RouteCtx(env)


def battery_free(inst):
    """Route context on the same instance with a battery too large to bind,
    so a verdict that differs from the real one is the battery rule's."""
    fleet = dataclasses.replace(inst.fleet, battery_kwh=1e9)
    return RouteCtx(Env(Instance(inst.nodes, inst.edges, inst.requests, fleet,
                                 inst.weights, inst.horizon, inst.seed)))


def route_cost(ctx, route):
    """Cost of a route from a full simulation, inf when it is infeasible."""
    info = ctx.simulate(route)
    return info.cost if info is not None else float("inf")


def slots(info):
    """Every slot of a RouteInfo, for exact comparison; None passes through."""
    return None if info is None else tuple(getattr(info, a) for a in RouteInfo.__slots__)


def start_plan(ctx, sol):
    """A solution as the search holds it: one RouteInfo per vehicle,
    its cost None where the route model rejects the route."""
    return [ctx.simulate(r) or RouteInfo(r) for r in plan_from_solution(sol, ctx.env.K)]


def balanced(route, n):
    """True when every pickup in the route has its delivery there too;
    a vehicle that gave up mid-plan leaves unmatched pickups behind."""
    picks = {nd for nd in route if 1 <= nd <= n}
    drops = {nd - n for nd in route if n < nd <= 2 * n}
    return picks == drops


def test_simulate_matches_episode_replay(tight_fleet):
    checked = [0, 0]                # compared routes per fleet
    blocked = 0
    for f, fleet in enumerate((FleetParams(), tight_fleet)):
        for seed in range(15):
            inst, env, ctx = make_ctx(2000 + seed, n=3 + seed % 3, fleet=fleet)
            loose = battery_free(inst)
            plan = plan_from_solution(greedy_solve(inst), env.K)
            for route in plan:
                if not route or not balanced(route, env.n):
                    continue
                info = ctx.simulate(route)
                if fleet is tight_fleet:
                    try:
                        sol = replay(env, [route])
                    except ReplayError:
                        # the episode took an escape move here (a loaded run
                        # to a charger, or to one another vehicle used), which
                        # neither a lone replay nor a route simulation accepts
                        assert info is None, route
                        continue
                else:
                    sol = replay(env, [route])
                checked[f] += 1
                assert info is not None
                assert info.E == pytest.approx(sol.j_energy, abs=1e-9)
                assert info.W == pytest.approx(sol.j_wait, abs=1e-9)
                assert info.L == pytest.approx(sol.j_late, abs=1e-9)
                assert info.T == pytest.approx(sol.j_travel, abs=1e-9)
                # per-stop timeline against the simulator's own log
                log = sol.routes[0]
                for k, (node, _, ss, soc, _) in enumerate(log[1:-1], start=1):
                    assert node == route[k - 1]
                    assert info.DEP[k] == ss + inst.nodes[node].sigma
                    assert info.B[k] == pytest.approx(soc, abs=1e-12)
                # without its chargers the route may run flat; with no charger
                # left, the mask's escape move cannot serve a route stop, so
                # the two verdicts must agree
                bare = [nd for nd in route if nd not in env.chargers]
                bare_info = ctx.simulate(bare)
                try:
                    replay(env, [bare])
                except ReplayError:
                    assert bare_info is None, bare
                    blocked += loose.simulate(bare) is not None
                else:
                    assert bare_info is not None, bare
    assert checked[0] >= 10
    assert checked[1] >= 10
    assert blocked, "the battery rule never blocked a route"


def test_simulate_rejects_depot_in_route(small_instance):
    ctx = RouteCtx(Env(small_instance))
    with pytest.raises(ValueError):
        ctx.simulate([1, 0, 1 + small_instance.n])


def test_simulate_infeasible_is_none(small_instance):
    ctx = RouteCtx(Env(small_instance))
    n = small_instance.n
    assert ctx.simulate([1 + n]) is None     # delivery before pickup


def test_scan_insertions_equals_brute_force(tight_fleet):
    blocked = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def check(seed):
        for fleet in (FleetParams(), tight_fleet):
            inst, env, ctx = make_ctx(seed, n=4, chargers=2, fleet=fleet)
            loose = battery_free(inst)
            plan = plan_from_solution(greedy_solve(inst), env.K)
            route = max(plan, key=len)
            if not route:
                continue
            served = set(served_requests([RouteInfo(route)], env.n))
            req = served.pop() if served else 0
            base = _strip(route, {req}, ctx)
            info = ctx.simulate(base)
            if info is None:
                continue
            got = {(i, j): delta for delta, i, j in ctx.scan_insertions(info, req)}
            m = len(base)
            expect = {}
            for i in range(m + 1):
                for j in range(i, m + 1):
                    trial = ctx.insert(base, req, i, j)
                    c = route_cost(ctx, trial)
                    if np.isfinite(c):
                        expect[(i, j)] = c - info.cost
                    elif np.isfinite(route_cost(loose, trial)):
                        blocked.append((seed, i, j))
            assert set(got) == set(expect)
            for key, delta in expect.items():
                assert got[key] == pytest.approx(delta, abs=1e-9)

    check()
    assert blocked, "the battery rule never blocked a candidate"


def test_remove_requests_preserves_request_multiset():
    for seed in range(10):
        inst, env, ctx = make_ctx(3000 + seed, n=5)
        plan = start_plan(ctx, greedy_solve(inst))
        before = served_requests(plan, env.n)
        targets = before[: max(1, len(before) // 2)]
        out = remove_requests(plan, ctx, targets)
        after = served_requests(out, env.n)
        # the removal pool is what the plan no longer serves
        assert set(after) <= set(before)
        assert not set(targets) & set(after)
        nodes = [nd for info in out for nd in info.nodes]
        for r in range(env.n):
            ends = (1 + r, 1 + env.n + r)
            if r in after:       # both nodes, once each, on one route
                assert [nodes.count(nd) for nd in ends] == [1, 1]
                assert any(set(ends) <= set(info.nodes) for info in out)
            else:                # gone entirely, delivery too
                assert not set(ends) & set(nodes)
        for info in out:
            if info.nodes:
                assert ctx.simulate(info.nodes) is not None


def test_remove_requests_drops_stranded_chargers():
    # find a route pickup-delivery-charger-pickup-delivery that simulates,
    # then remove the first request: the charger would lead the route
    for seed in range(40, 400):
        inst, env, ctx = make_ctx(seed, n=3)
        charger = env.chargers[0]
        route = [1, 1 + env.n, charger, 2, 2 + env.n]
        if ctx.simulate(route) is not None:
            break
    else:
        pytest.fail("no seed produced the fixture route")
    out = remove_requests([ctx.simulate(route), ctx.simulate([])], ctx, [0])
    assert out[0].nodes == [2, 2 + env.n]      # leading charger dropped
    removed = (set(served_requests([RouteInfo(route)], env.n))
               - set(served_requests(out, env.n)))
    assert removed == {0}
    assert slots(out[0]) == slots(ctx.simulate(out[0].nodes))


def test_remove_requests_hands_on_simulated_infos(tight_fleet):
    """Every RouteInfo remove_requests returns is its route's simulation,
    slot for slot, also where greedy's start plan holds routes the route
    model rejects; a route it leaves unchanged keeps the info it came with."""
    kept = changed = rejected = 0
    for fleet in (FleetParams(), tight_fleet):
        for seed in range(12):
            inst, env, ctx = make_ctx(5000 + seed, n=6 + seed % 5, fleet=fleet)
            plan = start_plan(ctx, greedy_solve(inst))
            rejected += sum(info.cost is None for info in plan)
            served = served_requests(plan, env.n)
            for targets in (served[:1], served[::3], served):
                out = remove_requests(plan, ctx, targets)
                assert len(out) == len(plan)
                for info, new in zip(plan, out):
                    assert new.cost is not None
                    assert slots(new) == slots(ctx.simulate(new.nodes)), (info.nodes,
                                                                          new.nodes)
                    if new.nodes == info.nodes and info.cost is not None:
                        assert new is info
                        kept += 1
                    else:
                        changed += 1
    assert kept and changed and rejected


def test_prune_chargers_never_raises_cost():
    pruned = 0
    for seed in range(10):
        inst, env, ctx = make_ctx(4000 + seed, n=4)
        plan = plan_from_solution(greedy_solve(inst), env.K)
        for old in plan:
            info = ctx.simulate(old)
            if info is None:        # prune_chargers takes simulating routes only
                continue
            new_info = prune_chargers(info, ctx)
            new = new_info.nodes
            assert slots(new_info) == slots(ctx.simulate(new))
            assert new_info.cost <= info.cost + 1e-12
            assert len(new) <= len(old)
            assert [nd for nd in new if nd <= 2 * env.n] == \
                   [nd for nd in old if nd <= 2 * env.n]
            pruned += len(new) < len(old)
    assert pruned, "no charger was pruned"


def test_plan_from_solution_pads_to_fleet(small_instance):
    sol = greedy_solve(small_instance)
    plan = plan_from_solution(sol, 5)
    assert len(plan) == 5
    assert all(isinstance(r, list) for r in plan)


def full_scan(ctx, info, req):
    """scan_insertions without the lateness bound: every pickup slot and
    every delivery slot is simulated until a hop fails, as the scan did
    before it pruned. The reference the pruned scan must equal."""
    env = ctx.env
    hop, home, n = env.hop, env.home, env.n
    p, d = 1 + req, 1 + n + req
    ride_cap = env.max_ride[req]
    rnodes, PS = info.nodes, info.PS
    m = len(rnodes)
    out = []
    for i in range(m + 1):
        u = rnodes[i - 1] if i else 0
        hop_p = hop(u, info.DEP[i], info.B[i], info.LOAD[i], p, None)
        if hop_p is None:
            continue
        ss_p, tau_c, b_c, load_c, wait_p, _, de_p, dt_p = hop_p
        cur = p
        ss_over = {p: ss_p}
        midE, midW, midL, midT = de_p, wait_p, 0.0, dt_p
        for j in range(i, m + 1):
            if tau_c - ss_p > ride_cap:
                break
            hop_d = hop(cur, tau_c, b_c, load_c, d, ss_p)
            if hop_d is not None:
                _, st_tau, st_b, st_load, _, late_d, de_d, dt_d = hop_d
                tailE, tailW = midE + de_d, midW
                tailL, tailT = midL + late_d, midT + dt_d
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
                        delta = (ctx.we * (tailE - oldE) + ctx.ww * (tailW - oldW)
                                 + ctx.wl * (tailL - oldL) + ctx.wt * (tailT - oldT))
                        out.append((delta, i, j))
            if j == m:
                break
            nxt = rnodes[j]
            res = hop(cur, tau_c, b_c, load_c, nxt, ss_over.get(nxt - n, PS[j + 1]))
            if res is None:
                break
            wn_ss, tau_c, b_c, load_c, wn_wait, wn_late, wn_de, wn_dt = res
            if nxt <= n:
                ss_over[nxt] = wn_ss
            midE += wn_de
            midW += wn_wait
            midL += wn_late
            midT += wn_dt
            cur = nxt
    return out


def counting_hops(env):
    """Wrap env.hop so that every call is counted in the returned list."""
    calls = [0]
    hop = env.hop

    def counted(*args):
        calls[0] += 1
        return hop(*args)

    env.hop = counted
    return calls


def solver_plans(tight_fleet):
    """(ctx, plan) pairs: greedy and short-ALNS plans, n 4 to 20, on the
    default and the tight fleet."""
    for fleet in (FleetParams(), tight_fleet):
        for n, seed in ((4, 61), (5, 65), (7, 62), (9, 66), (12, 63),
                        (15, 67), (20, 64)):
            inst, env, ctx = make_ctx(seed, n=n, fleet=fleet)
            yield ctx, plan_from_solution(greedy_solve(inst), env.K)
            sol, _ = alns_solve(inst, iterations=30, seed=seed)
            yield ctx, plan_from_solution(sol, env.K)


def test_pruned_scan_equals_full_scan(tight_fleet):
    scans = 0
    pruned_calls = full_calls = 0
    for ctx, plan in solver_plans(tight_fleet):
        calls = counting_hops(ctx.env)
        n = ctx.env.n
        for route in plan:
            info = ctx.simulate(route)
            if info is None:
                continue
            on_route = set(served_requests([info], n))
            for req in range(n):
                if req in on_route:
                    continue
                calls[0] = 0
                got = ctx.scan_insertions(info, req)
                pruned_calls += calls[0]
                calls[0] = 0
                want = full_scan(ctx, info, req)
                full_calls += calls[0]
                assert got == want, (route, req)
                scans += 1
    assert scans >= 100
    assert pruned_calls < full_calls, "the lateness bound pruned no hop"


def test_removal_cost_equals_route_cost_of_cleaned_route(tight_fleet):
    priced = dropped = 0
    for ctx, plan in solver_plans(tight_fleet):
        n = ctx.env.n
        for route in plan:
            info = ctx.simulate(route)
            if info is None:
                continue
            for r in served_requests([info], n):
                trial = [nd for nd in route if nd != 1 + r and nd != 1 + n + r]
                clean = _strip(route, {r}, ctx)
                assert ctx.removal_cost(info, r) == route_cost(ctx, clean), (route, r)
                priced += 1
                dropped += len(clean) < len(trial)
    # a route whose first request leaves a charger in the lead
    for seed in range(40, 400):
        inst, env, ctx = make_ctx(seed, n=3)
        charger = env.chargers[0]
        route = [1, 1 + env.n, charger, 2, 2 + env.n]
        info = ctx.simulate(route)
        if info is not None:
            break
    else:
        pytest.fail("no seed produced the fixture route")
    assert ctx.removal_cost(info, 0) == route_cost(ctx, [2, 2 + env.n])
    assert ctx.removal_cost(info, 1) == route_cost(ctx, route[:3])
    assert priced >= 100
    assert dropped, "no removal dropped a charger"
