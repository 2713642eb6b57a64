import hashlib

import numpy as np
import pytest

from edarp import (Env, FleetParams, OperatorWeights, RouteCtx, alns_solve,
                   exact_solve, generate_instance, greedy_solve,
                   shaw_relatedness)
from edarp.alns import (W_MIN, random_removal, rtr_accept, rtr_tolerance,
                        shaw_removal, worst_removal)
from edarp.routes import RouteInfo, _strip, plan_from_solution, served_requests


def test_weight_update_single_success_is_2_8():
    w = OperatorWeights(["a", "b"])
    w.credit("a", 10.0)
    w.update()
    assert w.values["a"] == 2.8


def test_weight_update_leaves_unused_untouched():
    w = OperatorWeights(["a", "b"])
    w.credit("a", 5.0)
    w.update()
    assert w.values["b"] == 1.0


def test_weight_update_zero_score_decays():
    w = OperatorWeights(["a"])
    w.credit("a", 0.0)
    w.update()
    assert w.values["a"] == pytest.approx(0.8, abs=1e-15)


def test_weight_floor():
    w = OperatorWeights(["a"])
    for _ in range(30):
        w.credit("a", 0.0)
        w.update()
    assert w.values["a"] == W_MIN


def test_weight_update_resets_segment_accounting():
    w = OperatorWeights(["a"])
    w.credit("a", 10.0)
    w.update()
    assert w.scores["a"] == 0.0 and w.uses["a"] == 0


def test_rtr_accept_boundary():
    assert rtr_accept(10.0, 9.0, 1.0)      # exactly on the band edge
    assert not rtr_accept(10.0 + 1e-12, 9.0, 1.0)
    assert rtr_accept(8.0, 9.0, 0.0)


def test_rtr_tolerance_closed_form():
    j0 = -30.0
    for k in (0, 1, 17, 100):
        want = 0.05 * abs(j0) * 0.99 ** k
        assert rtr_tolerance(j0, k) == pytest.approx(want, abs=1e-12)


def test_removal_operators_contract():
    rng = np.random.default_rng(0)
    served = [0, 2, 3, 5]
    got = random_removal(rng, served, 2)
    assert len(got) == 2 and got == sorted(got)
    assert set(got) <= set(served)

    inst = generate_instance(6, charger_count=1, seed=9)
    rel = shaw_relatedness(inst)
    got = shaw_removal(rng, served, 3, rel)
    assert len(got) == 3 and set(got) <= set(served)

    ctx = RouteCtx(Env(inst))
    plan = [ctx.simulate(r) or RouteInfo(r)
            for r in plan_from_solution(greedy_solve(inst), inst.fleet.vehicles)]
    served_now = served_requests(plan, inst.n)
    if len(served_now) >= 2:
        got = worst_removal(plan, ctx, 2)
        assert len(got) <= 2 and set(got) <= set(served_now)


def test_shaw_relatedness_shape():
    inst = generate_instance(4, charger_count=1, seed=13)
    rel = shaw_relatedness(inst)
    assert len(rel) == 4 and all(len(row) == 4 for row in rel)
    for r in range(4):
        assert rel[r][r] == 0.0
        for s in range(4):
            assert 0.0 <= rel[r][s] <= 2.0 + 1e-12


def test_shaw_relatedness_equals_loop():
    """The vectorised matrix equals the per-pair loop bit for bit."""
    from edarp.alns import SHAW_ALPHA, SHAW_BETA
    for n, seed in ((1, 3), (5, 4), (12, 5), (40, 6)):
        inst = generate_instance(n, charger_count=2, seed=seed)
        t = inst.edges.time
        tmax = float(t.max())
        a = np.array([nd.a for nd in inst.nodes])
        want = [[0.0] * n for _ in range(n)]
        for r in range(n):
            for s in range(n):
                pr, dr = 1 + r, 1 + n + r
                ps, ds = 1 + s, 1 + n + s
                want[r][s] = float(
                    SHAW_ALPHA * (t[pr][ps] + t[dr][ds]) / tmax
                    + SHAW_BETA * (abs(a[pr] - a[ps]) + abs(a[dr] - a[ds]))
                    / inst.horizon)
        assert shaw_relatedness(inst) == want


def reference_worst_removal(plan, ctx, q):
    """Worst removal that re-simulates every trial route in full."""
    n = ctx.env.n
    plan = [list(r) for r in plan]
    removed = []
    for _ in range(q):
        best_r, best_saving = None, None
        for ridx, route in enumerate(plan):
            info = ctx.simulate(route)
            if info is None:
                continue
            for node in route:
                if not (1 <= node <= n):
                    continue
                r = node - 1
                tinfo = ctx.simulate(_strip(route, {r}, ctx))
                tcost = tinfo.cost if tinfo is not None else float("inf")
                saving = info.cost - tcost if tcost != float("inf") else 0.0
                if best_saving is None or saving > best_saving:
                    best_r, best_saving = (r, ridx), saving
        if best_r is None:
            break
        r, ridx = best_r
        plan[ridx] = _strip(plan[ridx], {r}, ctx)
        removed.append(r)
    return sorted(removed)


def test_worst_removal_equals_full_resimulation(tight_fleet):
    for fleet in (FleetParams(), tight_fleet):
        for n, seed in ((5, 71), (10, 72), (20, 73)):
            inst = generate_instance(n, charger_count=2, fleet=fleet, seed=seed)
            ctx = RouteCtx(Env(inst))
            for sol in (greedy_solve(inst),
                        alns_solve(inst, iterations=30, seed=seed)[0]):
                plan = plan_from_solution(sol, inst.fleet.vehicles)
                infos = [ctx.simulate(r) or RouteInfo(r) for r in plan]
                given = list(infos)
                for q in (1, 3, n):
                    assert (worst_removal(infos, ctx, q)
                            == reference_worst_removal(plan, ctx, q))
                assert infos == given       # the caller's plan stays as it was


# Seeded ALNS output, recorded before the destroy step kept each route's
# RouteInfo: (n, tight fleet, instance and search seed, iterations,
# routes, reward.hex(), (accepted, new best, replay failures), sha256 of
# repr(stats.history)). The history digests were recorded before the
# route model priced with Env.price.
GOLDEN = [
    (10, False, 1010, 200,
     [[2, 12, 7, 1, 17, 11, 9, 19], [4, 14, 10, 20, 6, 5, 15, 3, 16, 8, 13, 18]],
     '0x1.3b92ffbe16d38p+6', (162, 5, 0),
     '6ec31cea2c69d400e3ceac4c298a497e4b22be627442a92b0e8ff85b7892fe25'),
    (20, False, 1020, 100,
     [[3, 23, 9, 29, 11, 31, 6, 26, 19, 13, 39, 33, 12, 32, 10, 30, 14, 5, 17, 34,
       37, 25],
      [4, 24, 1, 21, 20, 40, 2, 8, 22, 28, 7, 27, 15, 35, 18, 38]],
     '0x1.3782def703fa9p+7', (74, 13, 0),
     'a0e5f1946a1a3f1f0128f7f05f1155f942280d1ea2a070844a4c90828bb3a634'),
    (40, False, 1040, 40,
     [[9, 49, 32, 72, 16, 56, 26, 8, 66, 48, 23, 63, 22, 62, 3, 43, 34, 11, 51, 74,
       24, 64],
      [27, 67, 18, 30, 58, 70, 7, 10, 50, 17, 47, 57, 4, 44, 40, 20, 28, 60, 80, 31,
       68, 36, 71, 76, 1, 13, 53, 39, 41, 79]],
     '0x1.c4b2fcebc6028p+7', (11, 9, 0),
     'da38ea63859185693da88d61b0d06ac3ed62d34b808cf1f9f23c70f1453a48d0'),
    (10, True, 1081, 200, [[6, 16, 21, 3, 13], [9, 19]],
     '0x1.c96c28f5f8b80p+3', (13, 2, 3),
     '6b74aaa19ea8a20819213457a56a5d0645c4aba67160480c631852f430f8f974'),
    (20, True, 1029, 100, [[5, 25, 13, 33], [18, 38]],
     '0x1.cc25a3a852b07p+3', (5, 3, 0),
     'a46174f5233a753c8994500786b0f5eb601ed91e7e8a33b9ee657413ef9c2c52'),
    (40, True, 1054, 40, [[36, 76, 1, 41, 21, 61], [18, 10, 50, 58]],
     '0x1.ac8338ae24d24p+4', (6, 5, 0),
     '3a857963b2ed3ed9433976d3b6beacf8cade4299f8609943321cc4adeeb63d58'),
]


# the test ids the table had before its history column
GOLDEN_IDS = [f"{n}-{tight}-{seed}-{it}-routes{i}-{reward}-counts{i}"
              for i, (n, tight, seed, it, _, reward, _, _) in enumerate(GOLDEN)]


@pytest.mark.parametrize("n, tight, seed, iterations, routes, reward, counts, history",
                         GOLDEN, ids=GOLDEN_IDS)
def test_seeded_output_is_pinned(request, n, tight, seed, iterations, routes,
                                 reward, counts, history):
    """Seeded runs are byte-identical across refactors of the search: the
    tight-fleet starts hold greedy routes the route model rejects, and
    the n=10 one a charger visited twice. history is the sha256 of the
    per-iteration trajectory (best J, current J, tolerance, operators)."""
    fleet = request.getfixturevalue("tight_fleet") if tight else FleetParams()
    inst = generate_instance(n, charger_count=2, fleet=fleet, seed=seed)
    sol, stats = alns_solve(inst, iterations=iterations, seed=seed)
    assert sol.vehicle_routes() == routes
    assert sol.reward.hex() == reward
    assert (stats.accepted, stats.new_best, stats.replay_failures) == counts
    assert hashlib.sha256(repr(stats.history).encode()).hexdigest() == history


def test_zero_iterations_equals_greedy(small_instance):
    sol, _ = alns_solve(small_instance, iterations=0)
    base = greedy_solve(small_instance)
    assert sol.reward == base.reward
    assert sol.vehicle_routes() == base.vehicle_routes()


def test_reaches_oracle_on_tiny_instances():
    hits = 0
    for seed in (1, 2, 3, 4, 5):
        inst = generate_instance(2, charger_count=1, seed=seed)
        best, optimal = exact_solve(inst)
        assert optimal
        sol, _ = alns_solve(inst, iterations=500, seed=seed)
        assert sol.reward <= best.reward + 1e-9
        if sol.reward >= best.reward - 1e-9:
            hits += 1
    assert hits >= 4


def test_best_cost_monotone_and_beats_greedy():
    inst = generate_instance(10, charger_count=2, seed=321)
    sol, stats = alns_solve(inst, iterations=2000, seed=7)
    base = greedy_solve(inst)
    assert sol.reward >= base.reward - 1e-9
    best_trace = [row[1] for row in stats.history]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best_trace, best_trace[1:]))
    assert len(stats.history) == 2000
    assert best_trace[-1] == pytest.approx(-sol.reward, abs=1e-9)


@pytest.mark.parametrize("n, iterations, tight", [(40, 40, False),
                                                  (10, 200, True)])
def test_route_price_matches_replay(request, n, iterations, tight):
    """The route-model price of the best plan is what replaying it scores,
    also when greedy's start plan holds routes the route model rejects."""
    fleet = request.getfixturevalue("tight_fleet") if tight else FleetParams()
    inst = generate_instance(n, charger_count=2, fleet=fleet, seed=404)
    ctx = RouteCtx(Env(inst))
    start = plan_from_solution(greedy_solve(inst), inst.fleet.vehicles)
    assert any(ctx.simulate(r) is None for r in start)
    sol, stats = alns_solve(inst, iterations=iterations, seed=5)
    assert stats.new_best > 0           # the best plan is a priced candidate
    assert stats.history[-1][1] == -sol.reward      # exact: summed in replay's order


def test_repeated_charger_is_judged_by_replay(tight_fleet):
    """Greedy's escape moves can visit one charger twice, which the route
    model cannot see; replay prices or refuses such candidates."""
    inst = generate_instance(6, charger_count=2, fleet=tight_fleet, seed=1176)
    plan = plan_from_solution(greedy_solve(inst), inst.fleet.vehicles)
    stations = [nd for route in plan for nd in route if nd > 2 * inst.n]
    assert len(stations) > len(set(stations))
    sol, stats = alns_solve(inst, iterations=100, seed=1176)
    assert stats.replay_failures > 0 and stats.new_best > 0
    assert stats.history[-1][1] == -sol.reward


def test_deterministic_given_seed():
    inst = generate_instance(6, charger_count=1, seed=55)
    a, _ = alns_solve(inst, iterations=300, seed=11)
    b, _ = alns_solve(inst, iterations=300, seed=11)
    assert a.reward == b.reward
    assert a.vehicle_routes() == b.vehicle_routes()


def test_telemetry_file_shape(small_instance):
    _, stats = alns_solve(small_instance, iterations=50, seed=3)
    rows = stats.history
    assert len(rows) == 50
    assert [r[0] for r in rows] == list(range(50))
    assert all(len(r) == 6 for r in rows)
    known = {"random_removal", "shaw_removal", "worst_removal",
             "random_insert", "regret_2", "regret_3"}
    assert all(r[4] in known and r[5] in known for r in rows)
