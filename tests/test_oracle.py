import numpy as np

from edarp import (CostWeights, EdgeMatrices, Env, FleetParams, Instance,
                   Node, Request, enumerate_rewards, exact_solve,
                   generate_instance, replay)


def test_single_request_route_is_direct():
    inst = generate_instance(1, charger_count=1, seed=5)
    sol, optimal = exact_solve(inst)
    assert optimal
    assert sol.n_served == 1
    routes = [r for r in sol.vehicle_routes() if r]
    assert routes == [[1, 2]]


def test_pruned_matches_unpruned_enumeration():
    for seed in range(12):
        inst = generate_instance(1 + seed % 2, charger_count=1,
                                 fleet=FleetParams(vehicles=2), seed=300 + seed)
        sol, optimal = exact_solve(inst)
        full = enumerate_rewards(inst)
        assert optimal and full["complete"]
        assert sol.reward == full["best_reward"]
        assert full["best_reward"] >= full["worst_reward"]
        assert full["trajectories"] >= 1


def test_oracle_solution_survives_replay():
    for seed in (41, 42, 43):
        inst = generate_instance(2, charger_count=1, seed=seed)
        sol, _ = exact_solve(inst)
        fresh = replay(Env(inst), sol.vehicle_routes())
        assert fresh.reward == sol.reward
        assert fresh.routes == sol.routes
        assert fresh.n_served == sol.n_served


def test_tie_break_prefers_lexicographically_smaller_sequence():
    # two identical co-located requests: serving order 1 first or 2 first
    # costs exactly the same, so the reported plan must start with node 1
    H = 14_400.0
    nodes = [
        Node(0, "depot", 0.0, 0.0, 0.0, H, 0.0, 0),
        Node(1, "pickup", 1.0, 0.0, 0.0, H, 30.0, 1),
        Node(2, "pickup", 1.0, 0.0, 0.0, H, 30.0, 1),
        Node(3, "delivery", 2.0, 0.0, 0.0, H, 30.0, -1),
        Node(4, "delivery", 2.0, 0.0, 0.0, H, 30.0, -1),
        Node(5, "charger", 0.0, 1.0, 0.0, H, 900.0, 0),
    ]
    t = np.full((6, 6), 60.0)
    np.fill_diagonal(t, 0.0)
    t[1, 2] = t[2, 1] = 0.0
    t[3, 4] = t[4, 3] = 0.0
    e = t * 0.01
    reqs = [Request(0, 1, 3, H), Request(1, 2, 4, H)]
    inst = Instance(nodes, EdgeMatrices(t, t * 10.0, e), reqs,
                    FleetParams(vehicles=1, capacity=3), CostWeights(), H)
    full = enumerate_rewards(inst)
    assert full["complete"]
    assert full["best_seq"][0] == 1
    sol, optimal = exact_solve(inst)
    assert optimal and sol.n_served == 2


def test_budget_exhaustion_reports_not_optimal():
    inst = generate_instance(3, charger_count=1, seed=8)
    sol, optimal = exact_solve(inst, limit=40)
    assert not optimal
    assert sol.reward > float("-inf")


def test_exact_beats_or_ties_every_enumerated_trajectory():
    inst = generate_instance(2, charger_count=1, seed=77)
    sol, optimal = exact_solve(inst)
    full = enumerate_rewards(inst)
    assert optimal
    assert sol.reward >= full["worst_reward"]
    assert sol.reward == full["best_reward"]
