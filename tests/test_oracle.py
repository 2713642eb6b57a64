import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edarp import (CostWeights, EdgeMatrices, Env, FleetParams, Instance,
                   Node, Policy, PolicyConfig, alns_solve, enumerate_rewards,
                   exact_solve, generate_instance, greedy_solve,
                   multistart_rollout, replay)
from edarp.oracle import _search, _servable


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
        Node(0.0, 0.0, 0.0, H, 0.0, 0),        # depot
        Node(1.0, 0.0, 0.0, H, 30.0, 1),       # pickups
        Node(1.0, 0.0, 0.0, H, 30.0, 1),
        Node(2.0, 0.0, 0.0, H, 30.0, -1),      # deliveries
        Node(2.0, 0.0, 0.0, H, 30.0, -1),
        Node(0.0, 1.0, 0.0, H, 900.0, 0),      # charger
    ]
    t = np.full((6, 6), 60.0)
    np.fill_diagonal(t, 0.0)
    t[1, 2] = t[2, 1] = 0.0
    t[3, 4] = t[4, 3] = 0.0
    e = t * 0.01
    inst = Instance(nodes, EdgeMatrices(t, t * 10.0, e), [H, H],
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


# (n, vehicles, tight fleet, seed) -> (vehicle routes, reward.hex(), optimal),
# recorded from the search before it bounded on the servable requests
PINNED = {
    (3, 1, False, 101): ([[1, 4, 3, 6]], "0x1.f5e488da14af1p+3", True),
    (3, 2, True, 102): ([[2, 5], [3, 6]], "0x1.963674403aff0p+3", True),
    (3, 3, False, 103): ([[], [], [2, 3, 1, 6, 5, 4]], "0x1.922a9f7fe65d6p+4", True),
    (4, 1, True, 104): ([[2, 6, 9, 3, 7]], "0x1.fa3302a25bc2dp+3", True),
    (4, 2, False, 105): ([[1, 5], [2, 6, 4, 8, 3, 7]], "0x1.ffd712ad9efefp+4", True),
    (4, 3, True, 106): ([[], [], [1, 9, 3, 7, 4, 8]], "0x1.dca22a3d51bd8p+3", True),
    (5, 2, False, 107): ([[], [3, 4, 9, 1, 8, 2, 5, 6, 10, 7]],
                         "0x1.4975b56ed836cp+5", True),
    (5, 3, True, 108): ([[], [], [4, 9, 11, 5, 10, 11]], "0x1.8f145a854b9f9p+3", True),
}


def _fleet(vehicles, tight):
    if tight:
        return FleetParams(vehicles=vehicles, battery_kwh=4.0, soc_reserve=0.3)
    return FleetParams(vehicles=vehicles)


def test_seeded_exact_output_is_pinned():
    for (n, k, tight, seed), (routes, reward, optimal) in PINNED.items():
        inst = generate_instance(n, charger_count=1, fleet=_fleet(k, tight), seed=seed)
        sol, opt = exact_solve(inst)
        assert (sol.vehicle_routes(), sol.reward.hex(), opt) == (routes, reward, optimal)


def test_exact_actions_equal_enumerated_best_sequence():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            for tight in (False, True):
                for seed in (200 + 10 * n + k, 500 + 10 * n + k):
                    inst = generate_instance(n, charger_count=1,
                                             fleet=_fleet(k, tight), seed=seed)
                    sol, optimal = exact_solve(inst)
                    full = enumerate_rewards(inst)
                    assert optimal and full["complete"]
                    actions = [stop[0] for log in sol.routes for stop in log[1:]]
                    assert actions == full["best_seq"], (n, k, tight, seed)


def test_no_solver_beats_the_exact_optimum():
    """Every solver's plan is replayed through the same mask as the
    oracle's search, so a reward above the optimum means a route model or
    a replay scored an infeasible plan."""
    policy = Policy(PolicyConfig(seed=0))
    for n in range(3, 7):
        for tight in (False, True):
            for s in range(4):
                inst = generate_instance(n, charger_count=2, fleet=_fleet(2, tight),
                                         seed=3000 + 10 * n + s)
                best, optimal = exact_solve(inst)
                assert optimal, (n, tight, s)
                rewards = {"greedy": greedy_solve(inst).reward,
                           "alns": alns_solve(inst, 60, s)[0].reward,
                           "neural": multistart_rollout(policy, inst, k_p=4).reward}
                for solver, reward in rewards.items():
                    assert reward <= best.reward, (solver, n, tight, s)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 10_000))
def test_servable_bounds_every_terminal_below(n, k, tight, seed):
    inst = generate_instance(n, charger_count=1, fleet=_fleet(k, tight), seed=seed)
    env = Env(inst)

    def most_served(state):
        """Most requests served by a terminal state below state; checks
        _servable against it at every non-terminal state on the way."""
        if state.terminal:
            return state.n_served
        mask = env.mask(state)
        below = 0
        for j in range(env.num_nodes):
            if mask[j]:
                child = state.clone()
                env.step(child, j, mask=mask)
                below = max(below, most_served(child))
        assert _servable(env, state.clock, state.onboard, state.visited,
                         state.vehicles_used, state.n_served) >= below
        return below

    most_served(env.reset())


def test_bound_prunes_most_of_the_enumeration(small_instance):
    pruned = _search(small_instance, 10_000_000, enumerate_all=False)[3]
    full = _search(small_instance, 10_000_000, enumerate_all=True)[3]
    assert not pruned["exhausted"] and not full["exhausted"]
    assert pruned["expanded"] <= 0.4 * full["expanded"]


def _reference_enumeration(inst):
    """Every trajectory, walked with Env.mask, EpisodeState.clone and
    Env.step alone: the trajectory count, the best reward with its action
    sequence, the worst reward and the number of escape nodes. Ties keep
    the first sequence in depth-first order, the lexicographically
    smallest."""
    env = Env(inst)
    w_c = inst.weights.complete
    escape = env._escape_action
    out = {"trajectories": 0, "best": (float("-inf"), None),
           "worst": float("inf"), "escapes": 0}

    def counted_escape(state):
        out["escapes"] += 1
        return escape(state)

    env._escape_action = counted_escape

    def rec(state, seq):
        mask = env.mask(state)
        for j in range(env.num_nodes):
            if not mask[j]:
                continue
            child = state.clone()
            env.step(child, j, mask=mask)
            if child.terminal:
                reward = -env.objective(child) + w_c * child.n_served
                out["trajectories"] += 1
                if reward > out["best"][0]:
                    out["best"] = reward, seq + [j]
                out["worst"] = min(out["worst"], reward)
            else:
                rec(child, seq + [j])

    rec(env.reset(), [])
    return out


def test_search_agrees_with_a_mask_and_step_enumeration():
    """The oracle searches on Env.hop's tuples; an enumeration that only
    clones and steps EpisodeStates must find the same trajectories, the
    same rewards to the bit and the same best sequence."""
    escapes = 0
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            for tight in (False, True):
                case = (n, k, tight)
                inst = generate_instance(n, charger_count=1, fleet=_fleet(k, tight),
                                         seed=700 + 10 * n + k)
                ref = _reference_enumeration(inst)
                escapes += ref["escapes"]
                full = enumerate_rewards(inst)
                sol, optimal = exact_solve(inst)
                assert optimal and full["complete"], case
                assert full["trajectories"] == ref["trajectories"], case
                best_reward, best_seq = ref["best"]
                assert full["best_reward"].hex() == best_reward.hex(), case
                assert sol.reward.hex() == best_reward.hex(), case
                assert full["worst_reward"].hex() == ref["worst"].hex(), case
                assert full["best_seq"] == best_seq, case
                assert [stop[0] for log in sol.routes for stop in log[1:]] == best_seq, case
    assert escapes > 0


def test_exact_solve_refuses_a_search_reward_replay_does_not_reproduce(monkeypatch):
    """A kernel whose hop prices each leg's energy one ulp high gives the
    mask the same verdicts, but the search's totals no longer match the
    simulator's, so exact_solve raises instead of returning them. The
    nudge spares a realized leg, the one Env.step hands hop, so replay
    stays the honest simulator the search is checked against."""
    init = Env.__init__

    def nudged_init(self, inst):
        init(self, inst)
        hop = self.hop

        def hop_high(u, tau, b, load, w, ps, leg=None):
            h = hop(u, tau, b, load, w, ps, leg)
            if h is None or leg is not None:
                return h
            return h[:6] + (math.nextafter(h[6], math.inf), h[7])

        self.hop = hop_high

    # rounding absorbs the nudge into the reward on many instances, not here
    inst = generate_instance(3, charger_count=1, seed=0)
    honest, _ = exact_solve(inst)
    monkeypatch.setattr(Env, "__init__", nudged_init)
    assert _search(inst, 10_000_000, enumerate_all=False)[1][0] != honest.reward
    with pytest.raises(RuntimeError, match="replay scores"):
        exact_solve(inst)
