import numpy as np
import pytest

from edarp import (Env, OperatorWeights, RouteCtx, alns_solve,
                   exact_solve, generate_instance, greedy_solve,
                   shaw_relatedness)
from edarp.alns import (W_MIN, random_removal, rtr_accept, rtr_tolerance,
                        shaw_removal, worst_removal)
from edarp.routes import plan_from_solution, served_requests


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
    plan = plan_from_solution(greedy_solve(inst), inst.fleet.vehicles)
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


def test_zero_iterations_equals_greedy(small_instance):
    sol = alns_solve(small_instance, iterations=0)
    base = greedy_solve(small_instance)
    assert sol.reward == base.reward
    assert sol.vehicle_routes() == base.vehicle_routes()


def test_reaches_oracle_on_tiny_instances():
    hits = 0
    for seed in (1, 2, 3, 4, 5):
        inst = generate_instance(2, charger_count=1, seed=seed)
        best, optimal = exact_solve(inst)
        assert optimal
        sol = alns_solve(inst, iterations=500, seed=seed)
        assert sol.reward <= best.reward + 1e-9
        if sol.reward >= best.reward - 1e-9:
            hits += 1
    assert hits >= 4


def test_best_cost_monotone_and_beats_greedy():
    inst = generate_instance(10, charger_count=2, seed=321)
    sol, stats = alns_solve(inst, iterations=2000, seed=7,
                            return_stats=True)
    base = greedy_solve(inst)
    assert sol.reward >= base.reward - 1e-9
    best_trace = [row[1] for row in stats.history]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best_trace, best_trace[1:]))
    assert stats.iterations == 2000
    assert best_trace[-1] == pytest.approx(-sol.reward, abs=1e-9)


def test_deterministic_given_seed():
    inst = generate_instance(6, charger_count=1, seed=55)
    a = alns_solve(inst, iterations=300, seed=11)
    b = alns_solve(inst, iterations=300, seed=11)
    assert a.reward == b.reward
    assert a.vehicle_routes() == b.vehicle_routes()


def test_telemetry_file_shape(small_instance):
    _, stats = alns_solve(small_instance, iterations=50, seed=3,
                          return_stats=True)
    rows = stats.history
    assert len(rows) == 50
    assert [r[0] for r in rows] == list(range(50))
    assert all(len(r) == 6 for r in rows)
    known = {"random_removal", "shaw_removal", "worst_removal",
             "random_insert", "regret_2", "regret_3"}
    assert all(r[4] in known and r[5] in known for r in rows)
