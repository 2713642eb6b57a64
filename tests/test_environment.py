import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from edarp import (CostWeights, EdgeMatrices, Env, FleetParams, Instance,
                   MaskViolation, Node, NoiseConfig, ReplayError,
                   charging_power, generate_instance, greedy_solve,
                   load_solution, replay, sample_noise, save_solution,
                   score_solution)


def slow_mask(env, state, battery_blocks=None):
    """Re-derivation of the feasibility rules straight from their prose.

    Written independently of Env.mask so the two can cross-check each
    other; intentionally unoptimized. Nodes that only the battery rule
    blocks are appended to battery_blocks when it is given.
    """
    inst = env.inst
    V = inst.num_nodes
    n = inst.n
    B = inst.fleet.battery_kwh
    rho = inst.fleet.soc_reserve
    e = inst.edges.energy
    t = inst.edges.time
    chargers = list(range(1 + 2 * n, V))
    out = [False] * V
    if state.terminal:
        return out
    v, b, lo, tau = state.node, state.soc, state.load, state.clock

    def escape(j):
        return min(e[j][k] for k in [0] + chargers)

    # depot: allowed when empty and battery-reachable
    if lo == 0 and b - e[v][0] / B >= rho:
        out[0] = True
    for j in range(1, V):
        if (state.visited >> j) & 1:
            continue                                   # rule 1: no revisits
        if j in chargers and (v == 0 or v in chargers or lo > 0):
            continue                                   # rule 5
        nd = inst.nodes[j]
        if not (0 <= lo + nd.q <= inst.fleet.capacity):
            continue                                   # rule 2
        arrival = tau + t[v][j]
        ss = max(arrival, nd.a)
        if n < j <= 2 * n:                             # a delivery
            r = j - 1 - n
            if r not in state.onboard:
                continue                               # rule 1: precedence
            if ss - state.onboard[r] > inst.max_ride[r]:
                continue                               # hard ride cap
        else:
            if ss > nd.l:
                continue                               # rule 3: hard window
        after = b - e[v][j] / B
        if after < rho or after - escape(j) / B < rho:
            if battery_blocks is not None:
                battery_blocks.append(j)
            continue                                   # rule 4
        out[j] = True
    if not any(out):
        # deadlock fallback: run for the cheapest reachable refuge
        if b - e[v][0] / B >= rho:
            out[0] = True
        else:
            best = min((c for c in chargers if c != v),
                       key=lambda c: e[v][c], default=0)
            out[best] = True
    return out


def fixture_charging_instance():
    """Hand-built single request plus one charger with exact energies."""
    H = 14_400.0
    nodes = [
        Node(0.0, 0.0, 0.0, H, 0.0, 0),        # depot
        Node(1.0, 0.0, 0.0, H, 30.0, 1),       # pickup
        Node(2.0, 0.0, 0.0, H, 30.0, -1),      # delivery
        Node(3.0, 0.0, 0.0, H, 90.0, 0),       # charger
    ]
    t = np.full((4, 4), 100.0)
    np.fill_diagonal(t, 0.0)
    e = np.array([[0.0, 5.0, 9.0, 9.0],
                  [5.0, 0.0, 5.0, 9.0],
                  [9.0, 5.0, 0.0, 4.0],
                  [1.0, 9.0, 9.0, 0.0]])
    fleet = FleetParams(vehicles=1, capacity=3, battery_kwh=20.0,
                        soc_reserve=0.05)
    return Instance(nodes, EdgeMatrices(t, t * 10.0, e), [10_000.0], fleet,
                    CostWeights(), H)


def test_charging_power_reference_values():
    assert charging_power(0.30) == 100.0
    assert abs(charging_power(0.70) - 65.0) < 1e-12
    assert charging_power(0.97) == 30.0


def test_charging_power_continuity_and_domain():
    assert abs(charging_power(0.45) - 100.0) <= 1e-9
    assert abs(charging_power(0.95) - 30.0) <= 1e-9
    assert abs(charging_power(0.45 - 1e-12) - charging_power(0.45)) < 1e-9
    assert abs(charging_power(0.95 + 1e-12) - charging_power(0.95)) < 1e-9
    with pytest.raises(ValueError):
        charging_power(-0.01)
    with pytest.raises(ValueError):
        charging_power(1.01)


def test_reset_state(small_instance):
    env = Env(small_instance)
    s = env.reset()
    assert (s.node, s.soc, s.load, s.clock) == (0, 1.0, 0, 0.0)
    assert s.vehicles_used == 1 and s.n_served == 0
    assert s.routes == [[(0, 0.0, 0.0, 1.0, 0.0)]]
    s2 = env.reset()
    assert (s2.node, s2.soc, s2.load, s2.clock) == (s.node, s.soc, s.load, s.clock)


def test_fresh_mask_allows_pickups_blocks_chargers(small_instance):
    env = Env(small_instance)
    m = env.mask(env.reset())
    n = env.n
    assert any(m[1:1 + n])
    assert not any(m[j] for j in env.chargers)
    assert not any(m[1 + n:1 + 2 * n])   # no delivery before its pickup


def test_mask_capacity_rule(small_instance):
    env = Env(small_instance)
    s = env.reset()
    s.load = small_instance.fleet.capacity
    m = env.mask(s)
    assert not any(m[j] for j in range(1, 1 + env.n))


def test_mask_battery_boundary():
    inst = fixture_charging_instance()
    inst.edges.energy[1][0] = 0.0   # free ride home keeps the mask nonempty
    env = Env(inst)
    s = env.reset()
    s.node = 1
    s.soc = inst.fleet.soc_reserve
    s.visited = 1 << 1
    s.load = 0
    m = env.mask(s)
    assert m[0]
    assert not any(m[1:])           # every positive-energy move blocked


def test_mask_matches_slow_rederivation(tight_fleet):
    rng = np.random.default_rng(7)
    checked = [0, 0]                # compared steps per fleet
    blocked = []
    for f, fleet in enumerate((FleetParams(), tight_fleet)):
        for seed in range(40):
            inst = generate_instance(1 + seed % 4, charger_count=1 + seed % 2,
                                     fleet=fleet, seed=900 + seed)
            env = Env(inst)
            s = env.reset()
            while not s.terminal:
                fast = env.mask(s)
                assert fast == slow_mask(env, s, blocked), \
                    f"{fleet} seed {seed} step {s.steps}"
                checked[f] += 1
                choices = [j for j, ok in enumerate(fast) if ok]
                env.step(s, int(rng.choice(choices)))
    assert checked[0] > 200
    assert checked[1] >= 100          # the tight fleet ends episodes sooner
    assert blocked, "the battery rule never blocked a candidate"


def test_step_charging_delta_hand_value():
    inst = fixture_charging_instance()
    env = Env(inst)
    s = env.reset()
    env.step(s, 1)
    env.step(s, 2)
    assert s.soc == 1.0 - 0.25 - 0.25
    env.step(s, 3)
    # 100 kW at SoC 0.30 for 90 s into a 20 kWh pack
    assert s.routes[-1][-1][4] == 0.125          # the stop's charge delta
    assert s.soc == 0.5 - 0.2 + 0.125
    assert s.charge_visits == 1


def test_step_charge_clamped_at_full():
    inst = fixture_charging_instance()
    inst.nodes[3].sigma = 7200.0    # absurdly long plug-in
    env = Env(inst)
    s = env.reset()
    env.step(s, 1)
    env.step(s, 2)
    env.step(s, 3)
    assert s.soc == 1.0
    assert s.routes[-1][-1][4] == pytest.approx(1.0 - 0.3, abs=1e-12)


def test_step_wait_before_window(small_instance):
    env = Env(small_instance)
    s = env.reset()
    m = env.mask(s)
    j = next(j for j in range(1, 1 + env.n) if m[j])
    arrival = s.clock + env.t[0][j]
    wait_before = s.wait_sec
    env.step(s, j)
    wait = s.wait_sec - wait_before
    a_j = small_instance.nodes[j].a
    if arrival < a_j:
        assert wait == pytest.approx(a_j - arrival)
        assert s.routes[-1][-1][2] == a_j
    else:
        assert wait == 0.0


def test_terminal_on_depot_when_done():
    inst = fixture_charging_instance()
    env = Env(inst)
    s = env.reset()
    for a in (1, 2, 3):
        env.step(s, a)
        assert not s.terminal
    env.step(s, 0)
    assert s.terminal
    with pytest.raises(RuntimeError):
        env.step(s, 0)


def test_vehicle_reset_and_fleet_exhaustion(tiny_instance):
    env = Env(tiny_instance)
    assert env.K == 2
    s = env.reset()
    env.step(s, 0)                # give up immediately; requests remain
    assert not s.terminal
    assert s.vehicles_used == 2 and s.soc == 1.0 and s.clock == 0.0
    env.step(s, 0)                # second depot visit exhausts the fleet
    assert s.terminal and s.vehicles_used == 2


def test_off_mask_step_raises(small_instance):
    env = Env(small_instance)
    s = env.reset()
    charger = env.chargers[0]
    with pytest.raises(MaskViolation):
        env.step(s, charger)


def test_noise_disabled_reproduces_matrix_times(small_instance):
    env = Env(small_instance)
    s = env.reset()
    m = env.mask(s)
    j = next(j for j in range(1, 1 + env.n) if m[j])
    env.step(s, j)
    node, arrival, _, _, _ = s.routes[-1][-1]
    assert arrival == env.t[0][j]


def test_sample_noise_contract(rng):
    assert sample_noise(5.0, 0.1, 0.0) == 5.0
    zs = rng.standard_normal(20_000)
    draws = sample_noise(100.0, 0.1, zs)
    assert np.all(draws >= 100.0)
    mean_inflation = draws.mean() / 100.0 - 1.0
    assert 0.070 <= mean_inflation <= 0.090


def test_noisy_rollout_never_undercuts(small_instance):
    env = Env(small_instance)
    noise = NoiseConfig.make(0.2, 99)
    rng = np.random.default_rng(1)
    s = env.reset()
    prev_node, prev_depart = 0, 0.0
    while not s.terminal:
        m = env.mask(s)
        j = int(rng.choice([k for k, ok in enumerate(m) if ok]))
        env.step(s, j, noise=noise)
        node, arrival, ss, _, _ = s.routes[-1][-1]
        if node != 0 or len(s.routes[-1]) > 1:
            assert arrival - prev_depart >= env.t[prev_node][node] - 1e-9
        prev_node, prev_depart = node, s.clock
        if node == 0:
            prev_node, prev_depart = 0, 0.0


def test_forced_leg_takes_the_rule_path(tight_fleet):
    """Wherever hop admits a move, the same move with its matrix leg
    forced (every rule skipped) returns hop's tuple field for field, and
    Env.step logs and totals that tuple."""
    compared = set()              # (tight, kind) of compared hops

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 8), tight=st.booleans(), seed=st.integers(0, 10_000),
           walk=st.integers(0, 2 ** 32 - 1))
    def check(n, tight, seed, walk):
        fleet = tight_fleet if tight else FleetParams()
        try:
            inst = generate_instance(n, charger_count=2, fleet=fleet, seed=seed)
        except ValueError:
            reject()
        env = Env(inst)
        rng = np.random.default_rng(walk)
        s = env.reset()
        while not s.terminal:
            u, tau, b, load = s.node, s.clock, s.soc, s.load
            admitted = {}
            for w in range(env.num_nodes):
                ps = s.onboard.get(w - 1 - n)
                h = env.hop(u, tau, b, load, w, ps)
                if h is not None:
                    assert env.hop(u, tau, b, load, w, ps,
                                   leg=(env.t[u][w], env.e[u][w])) == h, (u, w)
                    admitted[w] = h
                    compared.add((tight, env.kindc[w]))
            m = env.mask(s)
            j = int(rng.choice([w for w, ok in enumerate(m) if ok]))
            totals = (s.energy_kwh, s.wait_sec, s.late_sec, s.travel_sec)
            used = s.vehicles_used
            env.step(s, j, mask=m)
            if j not in admitted:
                continue            # an escape move: no rule admits it
            ss, dep, soc, nl, wait, late, de, dt = admitted[j]
            route = s.routes[-2 if s.vehicles_used > used else -1]
            assert route[-1][:4] == (j, tau + dt, ss, soc)
            E, W, L, T = totals
            assert (s.energy_kwh, s.wait_sec, s.late_sec, s.travel_sec) == \
                (E + de, W + wait, L + late, T + dt)
            if j:
                assert (s.clock, s.soc, s.load) == (dep, soc, nl)

    check()
    assert compared == {(tight, kind) for tight in (False, True)
                        for kind in range(4)}, compared


def test_noisy_episode_bytes_are_pinned(tight_fleet, monkeypatch):
    """Episodes driven by the mask alone (greedy's lowest-energy rule)
    under noise 0.3: the realized legs, escape moves included, keep
    their bytes. No policy and no BLAS call is involved."""
    escapes = []
    escape = Env._escape_action
    monkeypatch.setattr(Env, "_escape_action",
                        lambda env, s: escapes.append(s.steps) or escape(env, s))
    pins = [(FleetParams(), "6984b9c9e6bd1897214e096667a6803c747a1c35ac4cd1ea6be0d651c7a76c26"),
            (tight_fleet, "4fb53d2ec262f092e6c62862bd070faf36acbddf661df0783b801de1c5f8c280")]
    for fleet, digest in pins:
        h = hashlib.sha256()
        for seed in range(5):
            env = Env(generate_instance(10, charger_count=2, fleet=fleet,
                                        seed=1234 + seed))
            noise = NoiseConfig.make(0.3, seed)
            s = env.reset()
            while not s.terminal:
                m = env.mask(s)
                e_v = env.e[s.node]
                action = min((j for j in range(1, env.num_nodes) if m[j]),
                             key=e_v.__getitem__, default=0)
                env.step(s, action, noise=noise, mask=m)
            h.update(save_solution(env.solution(s)))
        assert h.hexdigest() == digest, fleet
    assert len(escapes) >= 20       # noisy legs run batteries down


def test_reward_decomposition(small_instance):
    from edarp import greedy_solve
    sol = greedy_solve(small_instance)
    w = small_instance.weights
    assert sol.reward + sol.objective - w.complete * sol.n_served == pytest.approx(0.0, abs=1e-12)


def test_score_solution_zero_weights_counts_served(tiny_instance):
    from edarp import greedy_solve
    inst = tiny_instance
    inst.weights = CostWeights(energy=0.0, wait=0.0, late=0.0, complete=1.0)
    sol = greedy_solve(inst)
    j, r, _ = score_solution(sol, inst)
    assert j == 0.0
    assert r == float(sol.n_served)


def test_replay_bit_exact(small_instance):
    from edarp import greedy_solve
    sol = greedy_solve(small_instance)
    sol2 = replay(Env(small_instance), sol.vehicle_routes())
    assert sol2.reward == sol.reward
    assert sol2.routes == sol.routes


def test_replay_rejects_off_mask(small_instance):
    charger = Env(small_instance).chargers[0]
    with pytest.raises(ReplayError):
        replay(Env(small_instance), [[charger]])


def test_solution_round_trip(small_instance):
    from edarp import greedy_solve
    sol = greedy_solve(small_instance)
    back = load_solution(save_solution(sol))
    assert back.reward == pytest.approx(sol.reward, abs=1e-12)
    assert back.routes == sol.routes


def test_load_solution_refuses_missing_fields(small_instance):
    blob = save_solution(greedy_solve(small_instance))
    for field in ("cost.travel", "metrics.charge_visits"):
        doc = json.loads(blob)
        *outer, key = field.split(".")
        del (doc[outer[0]] if outer else doc)[key]
        with pytest.raises(ValueError, match=field):
            load_solution(json.dumps(doc))


def test_rollout_invariants_small_fuzz():
    rng = np.random.default_rng(3)
    for seed in range(25):
        inst = generate_instance(1 + seed % 5, seed=4000 + seed)
        env = Env(inst)
        s = env.reset()
        rho = inst.fleet.soc_reserve
        all_requests = (1 << inst.n) - 1
        clock_prev = 0.0
        while not s.terminal:
            m = env.mask(s)
            j = int(rng.choice([k for k, ok in enumerate(m) if ok]))
            used = s.vehicles_used
            env.step(s, j)
            assert 0 <= s.load <= inst.fleet.capacity
            assert s.soc >= rho - 1e-12
            assert s.soc <= 1.0 + 1e-12
            picked = (s.visited >> 1) & all_requests
            delivered = (s.visited >> (1 + inst.n)) & all_requests
            assert delivered & ~picked == 0
            if s.vehicles_used > used:
                clock_prev = 0.0
                assert s.soc == 1.0
            else:
                assert s.clock >= clock_prev - 1e-9
                clock_prev = s.clock


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), chargers=st.integers(1, 2),
       battery=st.sampled_from([3.0, 4.0, 6.0, 10.0]),
       reserve=st.sampled_from([0.1, 0.3, 0.5]),
       seed=st.integers(0, 10_000), walk=st.integers(0, 2 ** 32 - 1))
def test_tight_battery_rollouts_keep_mask_and_reserve(n, chargers, battery,
                                                      reserve, seed, walk):
    """On fleets whose battery binds, a random mask-guided deterministic
    rollout always has an action to take and never steps below the
    reserve, not even on arrival before a charge or a vehicle reset."""
    fleet = FleetParams(battery_kwh=battery, soc_reserve=reserve)
    try:
        inst = generate_instance(n, charger_count=chargers, fleet=fleet,
                                 seed=seed)
    except ValueError:
        reject()                      # the generator refuses this fleet
    env = Env(inst)
    rng = np.random.default_rng(walk)
    state = env.reset()
    while not state.terminal:
        acts = np.flatnonzero(env.mask(state))
        assert acts.size, "empty mask before terminal"
        used = state.vehicles_used
        env.step(state, int(rng.choice(acts)))
        assert state.soc >= reserve - 1e-12
        # a depot return that starts a fresh vehicle logs its arrival as
        # the last entry of the finished route
        route = state.routes[-2 if state.vehicles_used > used else -1]
        _, _, _, soc, charge = route[-1]
        assert soc - charge >= reserve - 1e-12
    # random walks seldom run out of regular moves; greedy's escapes
    # (hundreds per few thousand tight instances) face the same check
    for route in greedy_solve(inst).routes:
        for _, _, _, soc, charge in route:
            assert soc - charge >= reserve - 1e-12


def test_too_late_is_sound(tight_fleet):
    """Whenever the kernel's lateness bound holds, no hop that leaves for
    that node at the same clock or later serves it, from any other node,
    at the drawn charge and load; the bound never holds for the depot.
    Travel times are scaled down, to zero too, so that a bound looser
    than the hop's own verdict cannot hide behind a long leg."""
    held = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(3, 10), tight=st.booleans(), seed=st.integers(0, 10_000),
           speedup=st.sampled_from([0.0, 0.01, 1.0]),
           start=st.floats(0.0, 1.0), late=st.floats(-0.2, 0.2),
           later=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=3),
           b=st.floats(0.3, 1.0), load=st.integers(0, 2))
    def check(n, tight, seed, speedup, start, late, later, b, load):
        fleet = tight_fleet if tight else FleetParams()
        try:
            inst = generate_instance(n, charger_count=2, fleet=fleet, seed=seed)
        except ValueError:
            reject()
        edges = EdgeMatrices(inst.edges.time * speedup, inst.edges.dist,
                             inst.edges.energy)
        inst = Instance(inst.nodes, edges, inst.max_ride, inst.fleet,
                        inst.weights, inst.horizon, inst.seed)
        env = Env(inst)
        load = min(load, inst.fleet.capacity)
        # clocks near the threshold: past the window close, or past the
        # ride cap of a delivery picked up at `start`, by a `late` share
        # of the window or the cap; deliveries also when not on board
        cases = []
        for w in range(env.num_nodes):
            if n < w <= 2 * n:
                ps = start * inst.horizon
                cases.append((w, ps + (1.0 + late) * inst.max_ride[w - 1 - n], ps))
                cases.append((w, ps, None))
            else:
                nd = inst.nodes[w]
                cases.append((w, max(0.0, nd.l + late * (nd.l - nd.a)), None))
        for w, tau, ps in cases:
            if not env.too_late(tau, w, ps):
                continue
            assert w != 0, "the bound held for the depot"
            held.add(env.kindc[w])
            for u in range(env.num_nodes):
                if u == w:
                    continue
                for dt in [0.0, *later]:
                    assert env.hop(u, tau + dt, b, load, w, ps) is None, \
                        (u, w, tau + dt, ps)

    check()
    assert held == {1, 2, 3}, held      # pickups, deliveries and chargers
    inst = generate_instance(4, charger_count=2, seed=1)
    env = Env(inst)
    for tau in (0.0, inst.horizon, 10 * inst.horizon):
        assert not env.too_late(tau, 0, None)


def test_lateness_bound_is_monotone_and_hops_leave_after_ready(tight_fleet):
    """The two facts the insertion scan's slot skip rests on. Once
    too_late holds at a clock it holds at every later clock, for every
    node kind, with or without a pickup start. And no departure hop
    returns from w, on the rule path or on a given leg, is earlier than
    env.ready[w]; clocks are drawn around the arrival at w's window
    open, where the service start is a[w] itself."""
    held = set()                # kinds the bound held for
    admitted = set()            # kinds the rule path admitted a hop to

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(2, 8), tight=st.booleans(), seed=st.integers(0, 10_000),
           start=st.floats(0.0, 1.0), shift=st.floats(-0.2, 0.2),
           later=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=3),
           offset=st.floats(-60.0, 60.0), leg_dt=st.floats(0.0, 2000.0),
           b=st.floats(0.3, 1.0), load=st.integers(0, 2))
    def check(n, tight, seed, start, shift, later, offset, leg_dt, b, load):
        fleet = tight_fleet if tight else FleetParams()
        try:
            inst = generate_instance(n, charger_count=2, fleet=fleet, seed=seed)
        except ValueError:
            reject()
        env = Env(inst)
        load = min(load, inst.fleet.capacity)
        ps_on = start * inst.horizon
        for w in range(env.num_nodes):
            nd = inst.nodes[w]
            if n < w <= 2 * n:
                cases = [(ps_on + (1.0 + shift) * inst.max_ride[w - 1 - n], ps_on),
                         (ps_on, None)]
            else:
                cases = [(max(0.0, nd.l + shift * (nd.l - nd.a)), None)]
            for tau, ps in cases:
                if env.too_late(tau, w, ps):
                    held.add(env.kindc[w])
                    for tau2 in (np.nextafter(tau, np.inf), *(tau + dt for dt in later)):
                        assert env.too_late(tau2, w, ps), (w, tau, tau2, ps)
            for u in range(env.num_nodes):
                if u == w:
                    continue
                tau = max(0.0, nd.a - env.t[u][w] + offset)
                for ps in (None, ps_on):
                    h = env.hop(u, tau, b, load, w, ps)
                    if h is not None:
                        admitted.add(env.kindc[w])
                        assert h[1] >= env.ready[w], (u, w, tau, h)
                    h = env.hop(u, tau, b, load, w, ps, leg=(leg_dt, env.e[u][w]))
                    assert h[1] >= env.ready[w], (u, w, tau, leg_dt, h)

    check()
    assert held == {1, 2, 3}, held      # pickups, deliveries and chargers
    assert admitted == {0, 1, 2, 3}, admitted
