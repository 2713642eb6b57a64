import hashlib

import numpy as np

from edarp import (CostWeights, EdgeMatrices, Env, FleetParams, Instance,
                   Node, exact_solve, generate_instance, greedy_solve,
                   save_solution)


def test_routes_obey_simulator(small_instance):
    sol = greedy_solve(small_instance)
    env = Env(small_instance)
    assert 0 <= sol.n_served <= small_instance.n
    assert len(sol.routes) <= env.K
    for log in sol.routes:
        assert log[0][0] == 0 and log[-1][0] == 0


def test_equal_energy_tie_goes_to_lower_index():
    H = 14_400.0
    nodes = [
        Node(0.0, 0.0, 0.0, H, 0.0, 0),        # depot
        Node(1.0, 0.0, 0.0, H, 30.0, 1),       # pickups
        Node(-1.0, 0.0, 0.0, H, 30.0, 1),
        Node(2.0, 0.0, 0.0, H, 30.0, -1),      # deliveries
        Node(-2.0, 0.0, 0.0, H, 30.0, -1),
        Node(0.0, 5.0, 0.0, H, 900.0, 0),      # charger
    ]
    t = np.full((6, 6), 60.0)
    np.fill_diagonal(t, 0.0)
    e = np.full((6, 6), 1.0)
    np.fill_diagonal(e, 0.0)
    inst = Instance(nodes, EdgeMatrices(t, t * 10.0, e), [H, H],
                    FleetParams(vehicles=1, capacity=3), CostWeights(), H)
    sol = greedy_solve(inst)
    first = next(stop[0] for stop in sol.routes[0][1:])
    assert first == 1


def test_never_beats_oracle():
    for seed in range(100):
        inst = generate_instance(1 + seed % 2, charger_count=1, seed=seed)
        g = greedy_solve(inst)
        best, optimal = exact_solve(inst)
        assert optimal
        assert g.reward <= best.reward + 1e-9, f"seed {seed}"


def test_deterministic(small_instance):
    a = greedy_solve(small_instance)
    b = greedy_solve(small_instance)
    assert a.reward == b.reward
    assert a.routes == b.routes


def test_terminates_within_step_bound():
    for seed in range(20):
        inst = generate_instance(10, charger_count=2, seed=7000 + seed)
        sol = greedy_solve(inst)       # would raise past the step limit
        assert np.isfinite(sol.reward)


def test_frozen_regression_reward(tight_fleet):
    # pinned bytes on one mid-size instance per fleet; catches silent
    # changes to the tie-break, the mask rules or the step's arithmetic.
    # Greedy takes escape moves on both.
    pins = [(FleetParams(), "0x1.2206e009fdd68p+3",
             "609db66a0ff4d8bb0a762d39d9f03b2fae717185a9c568cfeb47ad187599d8af"),
            (tight_fleet, "0x1.88a8ed5420450p+0",
             "8edb3c35444f8befa3f8c3af2ff70e5917763245c9f5b214a6bc91cb418688ec")]
    for fleet, reward, digest in pins:
        inst = generate_instance(10, charger_count=2, fleet=fleet, seed=1234)
        sol = greedy_solve(inst)
        assert sol.reward.hex() == reward, fleet
        assert hashlib.sha256(save_solution(sol)).hexdigest() == digest, fleet
