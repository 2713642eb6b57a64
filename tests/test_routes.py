import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edarp import (Env, FleetParams, Instance, ReplayError, RouteCtx,
                   generate_instance, greedy_solve, plan_from_solution,
                   prune_chargers, remove_requests, replay)
from edarp.routes import served_requests


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
                for k, (node, arrival, ss, soc, _) in enumerate(log[1:-1], start=1):
                    assert node == route[k - 1]
                    assert info.A[k] == pytest.approx(arrival, abs=1e-9)
                    assert info.SS[k] == pytest.approx(ss, abs=1e-9)
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


def test_route_cost_infeasible_is_inf(small_instance):
    ctx = RouteCtx(Env(small_instance))
    n = small_instance.n
    assert ctx.route_cost([1 + n]) == float("inf")   # delivery before pickup


def test_scan_insertions_equals_brute_force(tight_fleet):
    from edarp.routes import _clean_chargers
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
            served = set(served_requests([route], env.n))
            req = served.pop() if served else 0
            base = [nd for nd in route
                    if nd != 1 + req and nd != 1 + env.n + req]
            base = _clean_chargers(base, ctx)
            info = ctx.simulate(base)
            if info is None:
                continue
            got = {(i, j): delta for delta, i, j in ctx.scan_insertions(base, info, req)}
            m = len(base)
            expect = {}
            for i in range(m + 1):
                for j in range(i, m + 1):
                    trial = ctx.insert(base, req, i, j)
                    c = ctx.route_cost(trial)
                    if np.isfinite(c):
                        expect[(i, j)] = c - info.cost
                    elif np.isfinite(loose.route_cost(trial)):
                        blocked.append((seed, i, j))
            assert set(got) == set(expect)
            for key, delta in expect.items():
                assert got[key] == pytest.approx(delta, abs=1e-9)

    check()
    assert blocked, "the battery rule never blocked a candidate"


def test_remove_requests_preserves_request_multiset():
    for seed in range(10):
        inst, env, ctx = make_ctx(3000 + seed, n=5)
        plan = plan_from_solution(greedy_solve(inst), env.K)
        before = served_requests(plan, env.n)
        targets = before[: max(1, len(before) // 2)]
        out, pool = remove_requests(plan, ctx, targets)
        after = served_requests(out, env.n)
        assert sorted(after + pool) == sorted(set(before) | set(targets))
        assert not set(after) & set(pool)
        for route in out:
            if route:
                assert ctx.simulate(route) is not None


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
    out, pool = remove_requests([route, []], ctx, [0])
    assert out[0] == [2, 2 + env.n]      # leading charger dropped
    assert pool == [0]
    assert ctx.simulate(out[0]) is not None


def test_prune_chargers_never_raises_cost():
    for seed in range(10):
        inst, env, ctx = make_ctx(4000 + seed, n=4)
        plan = plan_from_solution(greedy_solve(inst), env.K)
        pruned = prune_chargers(plan, ctx)
        for old, new in zip(plan, pruned):
            c_old = ctx.route_cost(old)
            c_new = ctx.route_cost(new)
            if np.isfinite(c_old):
                assert c_new <= c_old + 1e-12
            assert len(new) <= len(old)
            assert [nd for nd in new if nd <= 2 * env.n] == \
                   [nd for nd in old if nd <= 2 * env.n]


def test_plan_from_solution_pads_to_fleet(small_instance):
    sol = greedy_solve(small_instance)
    plan = plan_from_solution(sol, 5)
    assert len(plan) == 5
    assert all(isinstance(r, list) for r in plan)
