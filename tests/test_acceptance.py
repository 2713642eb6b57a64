"""Acceptance gate: one test per headline property, each at its stated
tolerance and time budget, printing a single verdict line with the
measured numbers. The heavy measurements carry the `slow` marker; the
default run includes them.
"""
import time

import numpy as np
import pytest

from edarp import Tape, Tensor
from edarp import autodiff as ad
from edarp.alns import OperatorWeights, alns_solve, rtr_accept, rtr_tolerance
from edarp.environment import Env, charging_power, sample_noise, score_solution
from edarp.greedy import greedy_solve
from edarp.instance import (CostWeights, FleetParams, generate_instance,
                            normalize_features)
from edarp.oracle import enumerate_rewards, exact_solve
from edarp.policy import (Policy, PolicyConfig, multistart_rollout,
                          rollout_episode, state_scalars, visited_array)
from edarp.training import (CURRICULUM_SIZES, TrainConfig, pomo_advantages,
                            train, validation_set)
from edarp.training import validate as validate_policy

ATOL, RTOL = 1e-7, 1e-4


def _verdict(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- independent episode verification -----------------------------------------

def _verify_episode(env, state):
    """Re-check a finished episode's recorded timeline against the raw
    constraint definitions: capacity, pairing/precedence, hard pickup
    windows, per-request ride caps, and the SoC floor. Charger windows
    are skipped: the emergency refuge move ignores them by design."""
    n = env.n
    for route in state.routes:
        load = 0
        pick_ss = {}
        for node, arrival, ss, soc, charge in route:
            assert ss >= arrival - 1e-9
            assert soc - charge >= env.inst.fleet.soc_reserve - 1e-12      # soc on arrival
            assert soc <= 1.0 + 1e-12
            if 1 <= node <= n:                          # pickup
                r = node - 1
                load += 1
                pick_ss[r] = ss
                nd = env.inst.nodes[node]
                assert nd.a - 1e-9 <= ss <= nd.l + 1e-9
            elif n < node <= 2 * n:                     # delivery
                r = node - 1 - n
                load -= 1
                assert r in pick_ss
                assert ss - pick_ss[r] <= env.inst.max_ride[r] + 1e-9
            assert 0 <= load <= env.inst.fleet.capacity


def test_mask_guided_rollouts_never_violate_constraints():
    t0 = time.time()
    rollouts = 10_000
    states_checked = 0
    for i in range(rollouts):
        n = (2, 5, 10)[i % 3]
        inst = generate_instance(n, seed=20_000 + i)
        env = Env(inst)
        rng = np.random.default_rng(i)
        state = env.reset()
        while not state.terminal:
            acts = np.flatnonzero(env.mask(state))
            env.step(state, int(rng.choice(acts)))
            assert state.load <= inst.fleet.capacity
            assert inst.fleet.soc_reserve - 1e-12 <= state.soc <= 1.0 + 1e-12
            states_checked += 1
        _verify_episode(env, state)
    dt = time.time() - t0
    _verdict("mask soundness", dt < 120.0,
             f"{rollouts} rollouts, {states_checked} steps, "
             f"0 violations, {dt:.1f}s < 120s")


def test_charging_curve_exactness():
    t0 = time.time()
    errs = [abs(charging_power(0.30) - 100.0),
            abs(charging_power(0.70) - 65.0),
            abs(charging_power(0.97) - 30.0)]
    d = 1e-12
    joins = [abs(charging_power(0.45 - d) - charging_power(0.45 + d)),
             abs(charging_power(0.95 - d) - charging_power(0.95 + d))]
    dt = time.time() - t0
    worst = max(errs + joins)
    _verdict("charging curve", worst <= 1e-9 and dt < 1.0,
             f"max |mismatch| {worst:.2e} <= 1e-9, {dt:.3f}s < 1s")


def test_pruned_search_equals_full_enumeration():
    t0 = time.time()
    worst_replay = 0.0
    for i in range(100):
        n = 1 + i % 2
        k = 1 + i % 2
        inst = generate_instance(n, fleet=FleetParams(vehicles=k),
                                 seed=30_000 + i)
        sol, optimal = exact_solve(inst)
        full = enumerate_rewards(inst)
        assert optimal and full["complete"]
        assert sol.reward == full["best_reward"]        # exact
        _, rew, _ = score_solution(sol, inst)
        worst_replay = max(worst_replay, abs(rew - sol.reward))
    dt = time.time() - t0
    _verdict("oracle equivalence",
             worst_replay <= 1e-9 and dt < 300.0,
             f"100 instances exact, replay drift {worst_replay:.2e} <= 1e-9, "
             f"{dt:.1f}s < 300s")


@pytest.mark.slow
def test_alns_dominates_greedy_at_ten_requests():
    t0 = time.time()
    wins = 0
    g_mean, a_mean = [], []
    for i in range(30):
        inst = generate_instance(10, fleet=FleetParams(vehicles=2),
                                 seed=40_000 + i)
        g = greedy_solve(inst)
        a, stats = alns_solve(inst, iterations=10_000, seed=i)
        best_trace = [h[1] for h in stats.history]
        assert all(b2 <= b1 for b1, b2 in zip(best_trace, best_trace[1:]))
        g_mean.append(g.reward)
        a_mean.append(a.reward)
        wins += a.reward >= g.reward
    dt = time.time() - t0
    ok = (wins >= 27 and np.mean(a_mean) >= np.mean(g_mean) and dt < 1200.0)
    _verdict("heuristic ordering", ok,
             f"alns >= greedy on {wins}/30, mean {np.mean(a_mean):.2f} vs "
             f"{np.mean(g_mean):.2f}, monotone, {dt:.0f}s < 1200s")


def test_operator_weight_and_tolerance_arithmetic():
    w = OperatorWeights(["a", "b"])
    w.credit("a", 10.0)
    w.update()
    worst = 0.0
    for j0 in (-37.5, 512.0):
        for k in (0, 1, 17, 100):
            worst = max(worst, abs(rtr_tolerance(j0, k)
                                   - 0.05 * abs(j0) * 0.99 ** k))
    ok = (w.values["a"] == 2.8 and w.values["b"] == 1.0
          and worst <= 1e-12
          and rtr_accept(10.0, 9.5, 0.5) and not rtr_accept(10.0, 9.5, 0.4))
    _verdict("weight arithmetic", ok,
             f"update -> {w.values['a']} (exact 2.8), "
             f"tolerance drift {worst:.2e} <= 1e-12")


# -- gradient checks -----------------------------------------------------------

def _numeric_grad(build, tensors, i, h=1e-6):
    flat = tensors[i].data.ravel()
    g = np.zeros_like(flat)
    for k in range(flat.size):
        old = flat[k]
        flat[k] = old + h
        hi = float(build(None, *tensors).data)
        flat[k] = old - h
        lo = float(build(None, *tensors).data)
        flat[k] = old
        g[k] = (hi - lo) / (2.0 * h)
    return g.reshape(tensors[i].data.shape)


def _check(build, tensors):
    for t in tensors:
        t.grad = None
    tape = Tape()
    tape.backward(build(tape, *tensors))
    worst = 0.0
    for i, t in enumerate(tensors):
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        num = _numeric_grad(build, tensors, i)
        err = np.abs(num - ana)
        assert np.all(err <= ATOL + RTOL * np.maximum(np.abs(num),
                                                      np.abs(ana)))
        scale = np.maximum(np.abs(num), 1.0)
        worst = max(worst, float((err / scale).max()))
    return worst


def _primitive_suite(rng):
    a23 = Tensor(rng.standard_normal((2, 3)))
    b3 = Tensor(rng.standard_normal((3,)))
    m34 = Tensor(rng.standard_normal((3, 4)))
    m42 = Tensor(rng.standard_normal((4, 2)))
    bat = Tensor(rng.standard_normal((2, 3, 4)))
    pos = Tensor(rng.uniform(0.5, 2.0, (2, 3)))
    off = rng.standard_normal((3, 4))
    off[np.abs(off) < 0.1] += 0.2
    kink = Tensor(off)
    gain = Tensor(rng.uniform(0.5, 1.5, (4,)))
    bias = Tensor(rng.standard_normal((4,)))
    mask = np.ones((3, 4), dtype=bool)
    mask[0, 1] = mask[2, 0] = False
    return [
        (lambda tp, x, y: ad.tsum(tp, ad.mul(tp, ad.add(tp, x, y),
                                             ad.add(tp, x, y))), [a23, b3]),
        (lambda tp, x: ad.tsum(tp, ad.scale(tp, x, -2.5)), [a23]),
        (lambda tp, x, y: ad.tsum(tp, ad.tanh(tp, ad.matmul(tp, x, y))),
         [m34, m42]),
        (lambda tp, x, y: ad.tsum(tp, ad.matmul(tp, x, y)), [bat, m42]),
        (lambda tp, *t: ad.tsum(tp, ad.tanh(tp, ad.ffn(tp, *t))),
         [kink, Tensor(np.eye(4)), Tensor(np.zeros(4)), m42,
          Tensor(np.array([0.3, -0.2]))]),
        (lambda tp, x: ad.tsum(tp, ad.log(tp, x)), [pos]),
        (lambda tp, x: ad.tsum(tp, ad.tmean(tp, x, axis=1)), [m34]),
        (lambda tp, x: ad.tsum(tp, ad.transpose(tp, x, (1, 0, 2))), [bat]),
        (lambda tp, x: ad.tsum(tp, ad.mul(tp, ad.reshape(tp, x, (6,)),
                                          ad.reshape(tp, x, (6,)))), [a23]),
        (lambda tp, x, y: ad.tsum(tp, ad.tanh(tp, ad.concat(tp, [x, y], 0))),
         [a23, a23]),
        (lambda tp, x: ad.tsum(tp, ad.take(tp, x, np.s_[:, 1:3])), [m34]),
        (lambda tp, x: ad.tsum(tp, ad.take(tp, ad.reshape(tp, x, (6,)), 4)),
         [a23]),
        (lambda tp, x, g, b: ad.tsum(tp, ad.tanh(tp, ad.layer_norm(tp, x, g,
                                                                   b))),
         [m34, gain, bias]),
        (lambda tp, x: ad.tsum(tp, ad.mul(tp, ad.masked_softmax(tp, x, mask),
                                          Tensor(np.arange(12.0)
                                                 .reshape(3, 4)))), [m34]),
    ]


def _forced_logprob(policy, inst, actions):
    env = Env(inst)
    tape = Tape()
    enc = policy.encode(tape, normalize_features(inst))
    state = env.reset()
    logps = []
    for a in actions:
        m = env.mask(state)
        load, soc, tfrac = state_scalars(env, state)
        probs = policy.decode_step(tape, enc, [state.node], [load], [soc],
                                   [tfrac], [m], [visited_array(env, state)])
        logps.append(ad.log(tape, ad.take(tape, probs, ([0], [a]))))
        env.step(state, a, mask=m)
    return tape, ad.tsum(tape, ad.concat(tape, logps, 0))


def _nudge(tensors, vec, h):
    off = 0
    for t in tensors:
        k = t.data.size
        t.data += h * vec[off:off + k].reshape(t.data.shape)
        off += k


@pytest.mark.slow
def test_gradients_match_finite_differences():
    t0 = time.time()
    worst_prim = 0.0
    for s in range(20):
        rng = np.random.default_rng(4000 + s)
        for build, tensors in _primitive_suite(rng):
            worst_prim = max(worst_prim, _check(build, tensors))

    worst_comp = 0.0
    h = 1e-6
    for s in range(20):
        policy = Policy(PolicyConfig(d_h=(16, 24, 32)[s % 3],
                                     heads=(2, 4)[s % 2], layers=1 + s % 2,
                                     seed=s))
        inst = generate_instance(2, seed=60_000 + s)
        _, _, (actions,) = rollout_episode(policy, Env(inst), None,
                                           rng=np.random.default_rng(1000 + s))
        tape, lp = _forced_logprob(policy, inst, actions)
        tape.backward(lp)
        tensors = list(policy.params.values())
        g = np.concatenate([(t.grad if t.grad is not None
                             else np.zeros_like(t.data)).ravel()
                            for t in tensors])
        dir_rng = np.random.default_rng(5000 + s)
        dirs = []
        for _ in range(3):
            d = dir_rng.standard_normal(g.size)
            dirs.append(d / np.linalg.norm(d))
        for _ in range(40):
            d = np.zeros(g.size)
            d[dir_rng.integers(g.size)] = 1.0
            dirs.append(d)
        for d in dirs:
            _nudge(tensors, d, +h)
            _, hi = _forced_logprob(policy, inst, actions)
            _nudge(tensors, d, -2 * h)
            _, lo = _forced_logprob(policy, inst, actions)
            _nudge(tensors, d, +h)
            num = (float(hi.data) - float(lo.data)) / (2 * h)
            ana = float(g @ d)
            assert abs(num - ana) <= ATOL + RTOL * max(abs(num), abs(ana))
            worst_comp = max(worst_comp,
                             abs(num - ana) / max(abs(num), abs(ana), 1.0))
        policy.zero_grad()
    dt = time.time() - t0
    _verdict("gradient checks", dt < 600.0,
             f"primitives worst rel {worst_prim:.1e}, composed worst rel "
             f"{worst_comp:.1e} <= 1e-4, 20 seeds, {dt:.0f}s < 600s")


def test_decoder_distribution_contract():
    policy = Policy(PolicyConfig(d_h=16, heads=2, layers=1, seed=0))
    checked = 0
    worst_sum = 0.0
    i = 0
    while checked < 1000:
        inst = generate_instance((2, 3, 5)[i % 3], seed=70_000 + i)
        env = Env(inst)
        enc = policy.encode(None, normalize_features(inst))
        rng = np.random.default_rng(i)
        state = env.reset()
        while not state.terminal and checked < 1000:
            m = env.mask(state)
            load, soc, tfrac = state_scalars(env, state)
            p = policy.decode_step(None, enc, [state.node], [load], [soc],
                                   [tfrac], [m],
                                   [visited_array(env, state)]).data[0]
            worst_sum = max(worst_sum, abs(p.sum() - 1.0))
            assert all(p[j] == 0.0 for j in range(len(m)) if not m[j])
            checked += 1
            acts = np.flatnonzero(env.mask(state))
            env.step(state, int(rng.choice(acts)))
        i += 1
    _verdict("distribution contract", worst_sum <= 1e-9,
             f"{checked} states, |sum-1| worst {worst_sum:.1e} <= 1e-9, "
             "masked entries exactly 0")


def test_advantage_identity_over_random_batches():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 17))
        r = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 5)
        worst = max(worst, abs(float(pomo_advantages(r).sum())))
    _verdict("shared-baseline identity", worst <= 1e-9,
             f"1000 batches, worst |sum| {worst:.1e} <= 1e-9")


@pytest.mark.slow
def test_trained_policy_beats_greedy_and_nears_oracle():
    t0 = time.time()
    cfg = TrainConfig(n=4, epochs=12, steps_per_epoch=15, batch=24, k_p=4,
                      lr=1e-3, seed=0, val_size=32)
    _, rep = train(cfg, policy_config=PolicyConfig(d_h=32, heads=4, layers=2,
                                                   seed=0))
    best = rep.best_policy
    t_train = time.time() - t0

    wins = 0
    for i in range(100):
        inst = generate_instance(4, fleet=FleetParams(vehicles=2, capacity=3),
                                 seed=555_000_000 + i)
        g = greedy_solve(inst)
        p = multistart_rollout(best, inst, k_p=4)
        wins += p.reward >= g.reward

    gaps = []
    for n, base in ((2, 9000), (3, 9500)):
        for i in range(12):
            inst = generate_instance(n, fleet=FleetParams(vehicles=2,
                                                          capacity=3),
                                     seed=base + i)
            full = enumerate_rewards(inst)
            assert full["complete"]
            lo, hi = full["worst_reward"], full["best_reward"]
            p = multistart_rollout(best, inst, k_p=4)
            gaps.append((hi - p.reward) / max(hi - lo, 1e-12))
    mean_gap = float(np.mean(gaps))
    ok = wins >= 70 and mean_gap <= 0.10 and t_train < 1800.0
    _verdict("learning signal", ok,
             f">= greedy on {wins}/100 (need 70), mean oracle gap "
             f"{mean_gap * 100:.2f}% of reward range (need <= 10%), "
             f"train {t_train:.0f}s < 1800s")


def test_noise_model_floor_and_mean():
    t0 = time.time()
    z = np.random.default_rng(123).standard_normal(10 ** 6)
    draws = sample_noise(100.0, 0.1, z)
    inflation = float(draws.mean() / 100.0 - 1.0)
    dt = time.time() - t0
    ok = bool((draws >= 100.0).all()) and 0.075 <= inflation <= 0.085 \
        and dt < 30.0
    _verdict("stochastic model", ok,
             f"10^6 draws all >= base, mean inflation {inflation:.4f} in "
             f"[0.075, 0.085], {dt:.1f}s < 30s")


@pytest.mark.slow
def test_curriculum_transfers_across_sizes():
    t0 = time.time()
    assert CURRICULUM_SIZES == [8, 10, 12, 14, 17, 21]
    policy = Policy(PolicyConfig(d_h=16, heads=2, layers=1, seed=0))
    stages = []
    for size in CURRICULUM_SIZES:
        cfg = TrainConfig(n=size, epochs=3, steps_per_epoch=8, batch=8,
                          k_p=4, lr=1e-3, seed=0, val_size=12, vehicles=4,
                          capacity=3)
        zero, _ = validate_policy(policy, validation_set(cfg))
        policy, rep = train(cfg, policy=policy)
        final = rep.rows[-1]["val_reward"]
        stages.append((size, zero, final, final >= zero - 0.05 * abs(zero)))
        policy = rep.best_policy
    dt = time.time() - t0
    ok = all(s[3] for s in stages)
    trace = "  ".join(f"n={s}: {z:.1f}->{f:.1f}" for s, z, f, _ in stages)
    _verdict("curriculum transfer", ok,
             f"all {len(stages)} stages within the 5% zero-shot band "
             f"[{trace}], {dt:.0f}s")


@pytest.mark.slow
def test_discounted_time_weights_raise_load_factor():
    t0 = time.time()
    pool_w = CostWeights(energy=1.0, wait=0.1, late=0.1, complete=1.0)
    flat_w = CostWeights(energy=1.0, wait=1.0, late=1.0, complete=1.0)
    lf = {"pool": [], "flat": []}
    for i in range(50):
        for name, w in (("pool", pool_w), ("flat", flat_w)):
            inst = generate_instance(12, fleet=FleetParams(vehicles=4,
                                                           capacity=3),
                                     seed=120_000 + i, weights=w)
            sol, _ = alns_solve(inst, iterations=600, seed=i)
            lf[name].append(sol.metrics["load_factor"])
    mp, mf = float(np.mean(lf["pool"])), float(np.mean(lf["flat"]))
    dt = time.time() - t0
    _verdict("load-factor direction", mp > mf,
             f"mean load factor {mp:.3f} (wait/late x0.1) > {mf:.3f} "
             f"(uniform) over 50 instances, {dt:.0f}s")
