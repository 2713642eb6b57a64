import json

import numpy as np
import pytest

from edarp import autodiff as ad
from edarp import (Adam, Env, NoiseConfig, Policy, PolicyConfig, Tape, Tensor,
                   generate_instance, greedy_rollout, load_policy,
                   multistart_rollout, rollout_episode, save_policy)
from edarp.instance import FeatureTensors, normalize_features
from edarp.policy import clipped_logits, state_scalars, visited_array

CFG = PolicyConfig(d_h=16, heads=2, layers=1, seed=0)


def random_states(inst, policy, count, seed):
    """Visit `count` states along random feasible walks, yielding the
    decoder's distribution at each."""
    env = Env(inst)
    feats = normalize_features(inst)
    enc = policy.encode(None, feats)
    rng = np.random.default_rng(seed)
    seen = 0
    while seen < count:
        s = env.reset()
        while not s.terminal and seen < count:
            m = env.mask(s)
            load, soc, tfrac = state_scalars(env, s)
            probs = policy.decode_step(None, enc, s.node, load, soc, tfrac, m,
                                       visited=visited_array(env, s))
            yield probs.data, np.array(m, dtype=bool)
            seen += 1
            env.step(s, int(rng.choice(np.flatnonzero(m))))


def test_decode_distribution_contract():
    policy = Policy(CFG)
    for seed in (0, 1):
        inst = generate_instance(3, charger_count=2, seed=seed)
        for p, m in random_states(inst, policy, 40, seed):
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p[~m] == 0.0)
            assert np.all(p >= 0.0)


def test_single_feasible_action_gets_probability_one():
    policy = Policy(CFG)
    inst = generate_instance(2, charger_count=1, seed=3)
    env = Env(inst)
    enc = policy.encode(None, normalize_features(inst))
    s = env.reset()
    s.load = inst.fleet.capacity    # blocks everything; fallback leaves one
    m = env.mask(s)
    assert sum(m) == 1
    load, soc, tfrac = state_scalars(env, s)
    p = policy.decode_step(None, enc, s.node, load, soc, tfrac, m,
                           visited_array(env, s)).data
    assert p[np.argmax(m)] == 1.0
    assert p.sum() == 1.0


def test_zeroed_policy_ranks_actions_by_energy():
    # with every parameter at zero the content logits vanish and only
    # the energy bias -lam * eps_norm[current] remains, so feasible
    # probabilities must order inversely to edge energy
    cfg = PolicyConfig(d_h=16, heads=2, layers=1, lam=5.0, kappa=10.0)
    policy = Policy(cfg)
    for t in policy.params.values():
        t.data[:] = 0.0
    inst = generate_instance(4, charger_count=1, seed=21)
    env = Env(inst)
    feats = normalize_features(inst)
    enc = policy.encode(None, feats)
    s = env.reset()
    m = env.mask(s)
    p = policy.decode_step(None, enc, 0, 0.0, 1.0, 0.0, m,
                           visited_array(env, s)).data
    eps = enc.eps_norm[0]
    live = np.flatnonzero(m)
    for i in live:
        for j in live:
            if eps[i] < eps[j] - 1e-12:
                assert p[i] > p[j]
    assert live[np.argmax(p[live])] == live[np.argmin(eps[live])]


def test_clipped_logits_values_and_monotonicity():
    out = clipped_logits(None, Tensor(np.array([10.0])), 10.0).data
    assert out[0] == pytest.approx(10.0 * np.tanh(1.0), abs=1e-12)
    grid = np.arange(-20.0, 20.5, 0.5)
    y = clipped_logits(None, Tensor(grid), 10.0).data
    assert np.all(np.diff(y) > 0.0)
    assert np.all(np.abs(y) < 10.0)
    small = clipped_logits(None, Tensor(np.array([1e-3])), 10.0).data
    assert small[0] == pytest.approx(1e-3, rel=1e-6)


def test_encoder_permutation_equivariance():
    policy = Policy(CFG)
    inst = generate_instance(3, charger_count=2, seed=11)
    feats = normalize_features(inst)
    v = feats.node.shape[0]
    rng = np.random.default_rng(0)
    perm = rng.permutation(v)
    pfeats = FeatureTensors(feats.node[perm], feats.edge[perm][:, perm])
    z = policy.encode(None, feats).Z.data
    zp = policy.encode(None, pfeats).Z.data
    assert np.max(np.abs(zp - z[perm])) <= 1e-9


def test_encoder_sensitive_to_edge_direction():
    policy = Policy(CFG)
    inst = generate_instance(3, charger_count=1, seed=14, asymmetry=0.4)
    feats = normalize_features(inst)
    flipped = FeatureTensors(feats.node,
                             np.ascontiguousarray(feats.edge.transpose(1, 0, 2)))
    z = policy.encode(None, feats).Z.data
    zf = policy.encode(None, flipped).Z.data
    assert np.max(np.abs(zf - z)) > 1e-6


def test_single_node_graph():
    policy = Policy(CFG)
    node = np.zeros((1, 10))
    node[0, 0] = 1.0                # depot one-hot
    edge = np.zeros((1, 1, 3))
    enc = policy.encode(None, FeatureTensors(node, edge))
    p = policy.decode_step(None, enc, 0, 0.0, 1.0, 0.0, [True],
                           np.zeros(1, dtype=bool)).data
    assert p.shape == (1,)
    assert p[0] == 1.0


MAX = 1.7976931348623157e308


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_checkpoint_round_trip_bit_exact():
    policy = Policy(PolicyConfig(d_h=16, heads=2, layers=2, lam=0.7,
                                 kappa=8.0, seed=5))
    adam = Adam(policy.params)
    for t in policy.params.values():
        t.grad = np.sin(np.arange(t.data.size) + 1.0).reshape(t.data.shape)
    adam.step()
    adam.step()

    def round_trip():
        back, opt = load_policy(save_policy(policy, adam, epoch=3))
        assert (opt["t"], opt["epoch"]) == (2, 3)
        assert set(back.params) == set(policy.params)
        for k in policy.params:
            assert same_bits(back.params[k].data, policy.params[k].data)
            assert back.params[k].data.flags.writeable
            assert same_bits(opt["m"][k], adam.m[k])
            assert same_bits(opt["v"][k], adam.v[k])
        return back

    back = round_trip()
    assert back.config.d_h == 16 and back.config.layers == 2
    assert back.config.lam == 0.7 and back.config.kappa == 8.0
    inst = generate_instance(2, charger_count=1, seed=1)
    assert greedy_rollout(back, inst).reward == greedy_rollout(policy, inst).reward
    # signed zeros, the smallest subnormal, the largest finite values and
    # a zero second moment survive too
    policy.params["embed_w"].data.flat[:4] = [-0.0, 5e-324, MAX, -MAX]
    adam.m["ctx_curr"].flat[:4] = [-0.0, 5e-324, MAX, -MAX]
    adam.v["ctx_soc"].flat[:4] = [0.0, -0.0, 5e-324, MAX]
    round_trip()


def test_default_checkpoint_is_packed():
    """At most 12 bytes per stored number: base64 float64 takes 32/3,
    decimal float lists about 22."""
    policy = Policy(PolicyConfig())
    adam = Adam(policy.params)
    rng = np.random.default_rng(0)
    for t in policy.params.values():
        t.grad = rng.standard_normal(t.data.shape)
    adam.step()
    numbers = 3 * sum(t.data.size for t in policy.params.values())
    assert len(save_policy(policy, adam, epoch=1)) <= 12 * numbers


def test_checkpoint_rejects_bad_schema_and_shapes():
    policy = Policy(CFG)
    doc = json.loads(save_policy(policy))
    bad = dict(doc, schema="edarp-policy/99")
    with pytest.raises(ValueError, match="schema"):
        load_policy(json.dumps(bad))
    tampered = json.loads(save_policy(policy))
    tampered["params"]["embed_w"]["shape"][0] += 1
    with pytest.raises(ValueError):
        load_policy(json.dumps(tampered))
    renamed = json.loads(save_policy(policy))
    renamed["params"]["no_such_param"] = renamed["params"].pop("embed_w")
    with pytest.raises(ValueError, match="no_such_param"):
        load_policy(json.dumps(renamed))
    dropped = json.loads(save_policy(policy))
    del dropped["params"]["embed_w"]
    with pytest.raises(ValueError, match="embed_w"):
        load_policy(json.dumps(dropped))


def test_greedy_rollout_deterministic(small_instance):
    policy = Policy(CFG)
    a = greedy_rollout(policy, small_instance)
    b = greedy_rollout(policy, small_instance)
    assert a.reward == b.reward
    assert a.vehicle_routes() == b.vehicle_routes()


def test_sampled_rollout_on_mask_and_logprob_sign(small_instance):
    policy = Policy(CFG)
    env = Env(small_instance)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        tape = Tape()
        state, lp, actions = rollout_episode(policy, env, tape, rng=rng)
        assert state.terminal
        assert float(lp.data) <= 1e-12
        assert len(actions) == state.steps
        tape.backward(lp)           # the whole trajectory stays differentiable
        assert any(t.grad is not None for t in policy.params.values())


def test_forced_first_action_validated(small_instance):
    policy = Policy(CFG)
    env = Env(small_instance)
    charger = env.chargers[0]       # blocked from the depot
    with pytest.raises(ValueError, match="masked"):
        rollout_episode(policy, env, None, greedy=True, starts=[charger])


def test_forced_first_action_respected(small_instance):
    policy = Policy(CFG)
    env = Env(small_instance)
    m = env.mask(env.reset())
    pickups = [j for j in range(1, 1 + env.n) if m[j]]
    _, _, actions = rollout_episode(policy, env, None, greedy=True,
                                    starts=[pickups[-1], None])
    assert actions[0][0] == pickups[-1]
    assert actions[1] == rollout_episode(policy, env, None, greedy=True)[2]


def forced_logprobs(policy, inst, tape, enc, actions):
    """(k,) log-prob sums of k action lists, decoding one state per call."""
    env = Env(inst)
    sums = []
    for acts in actions:
        s = env.reset()
        terms = []
        for a in acts:
            m = env.mask(s)
            load, soc, tfrac = state_scalars(env, s)
            p = policy.decode_step(tape, enc, s.node, load, soc, tfrac, m,
                                   visited_array(env, s))
            terms.append(ad.reshape(tape, ad.log(tape, ad.take(tape, p, a)),
                                    (1,)))
            env.step(s, a, mask=m)
        assert s.terminal
        sums.append(ad.reshape(tape, ad.tsum(tape, ad.concat(tape, terms, 0)),
                               (1,)))
    return ad.concat(tape, sums, 0)


def test_lockstep_matches_one_start_decoding():
    # a batch of starts decoded in lock-step gives each start the
    # actions and log-prob sum it gets alone
    policy = Policy(PolicyConfig(d_h=16, heads=2, layers=2, seed=4))
    for seed in range(3):
        inst = generate_instance(5, charger_count=1, seed=300 + seed)
        env = Env(inst)
        enc = policy.encode(None, normalize_features(inst))
        m = env.mask(env.reset())
        starts = [None] + [j for j in range(1, 1 + env.n) if m[j]]
        states, lps, actions = rollout_episode(policy, env, None, greedy=True,
                                               starts=starts, enc=enc)
        assert lps.shape == (len(starts),)
        for i, a0 in enumerate(starts):
            s1, lp1, acts1 = rollout_episode(policy, env, None, greedy=True,
                                             starts=[a0], enc=enc)
            assert actions[i] == acts1[0]
            assert states[i].steps == s1[0].steps == len(actions[i])
            assert env.solution(states[i]).reward == env.solution(s1[0]).reward
            assert abs(lps.data[i] - lp1.data[0]) <= 1e-12
        _, lps, actions = rollout_episode(
            policy, env, None, rng=np.random.default_rng(seed), starts=starts,
            enc=enc)
        ref = forced_logprobs(policy, inst, None, enc, actions)
        assert np.all(np.abs(lps.data - ref.data) <= 1e-12)


def test_lockstep_gradient_matches_one_start_decoding():
    # the batched decoder's backward, gathers with repeated rows
    # included, equals the backward of one-state-per-call decoding
    policy = Policy(PolicyConfig(d_h=16, heads=2, layers=1, seed=8))
    inst = generate_instance(4, charger_count=1, seed=41)
    feats = normalize_features(inst)
    env = Env(inst)
    m = env.mask(env.reset())
    starts = [j for j in range(1, 1 + env.n) if m[j]]
    starts = starts + starts[:1]               # a repeated start
    weights = Tensor(np.linspace(-1.0, 1.0, len(starts)))

    def grads(tape, lps):
        tape.backward(ad.tsum(tape, ad.mul(tape, lps, weights)))
        out = {k: t.grad.copy() for k, t in policy.params.items()
               if t.grad is not None}
        policy.zero_grad()
        return out

    tape = Tape()
    _, lps, actions = rollout_episode(policy, env, tape,
                                      rng=np.random.default_rng(3),
                                      starts=starts,
                                      enc=policy.encode(tape, feats))
    lock = grads(tape, lps)
    tape = Tape()
    one = grads(tape, forced_logprobs(policy, inst, tape,
                                      policy.encode(tape, feats), actions))
    assert set(lock) == set(one)
    for k in lock:
        assert np.allclose(lock[k], one[k], rtol=1e-9, atol=1e-12), k


def reference_decode(policy, enc, node, load, soc, tfrac, feasible, visited):
    """The one-state decoder written out row by row: the context terms
    are added in the decoder's order, so results must match bit for bit."""
    p = {k: t.data for k, t in policy.params.items()}
    z = enc.Z.data
    d = z.shape[1]
    blocked = ~np.asarray(feasible, dtype=bool)

    def project(vec, w):
        return (vec.reshape(1, d) @ w).reshape(d)

    def mean_of(select):
        return ((select.astype(float) / select.sum())[None, :] @ z).reshape(d)

    c = project(z[node], p["ctx_curr"]) + project(z[0], p["ctx_depot"])
    c = c + project(z.mean(axis=0), p["ctx_graph"])
    if visited.any():
        c = c + project(mean_of(visited), p["ctx_visited"])
    if blocked.any():
        c = c + project(mean_of(blocked), p["ctx_mask"])
    c = c + p["ctx_load"] * load
    c = c + p["ctx_soc"] * soc
    c = c + p["ctx_time"] * tfrac
    u = (enc.keys.data @ c.reshape(d, 1)).reshape(-1) * (1.0 / np.sqrt(d))
    u = u + -policy.config.lam * enc.eps_norm[node]
    u = clipped_logits(None, Tensor(u), policy.config.kappa)
    return ad.masked_softmax(None, u, blocked).data


def test_single_state_decode_is_bit_exact_to_reference():
    policy = Policy(PolicyConfig(d_h=32, heads=4, layers=1, seed=2))
    inst = generate_instance(6, charger_count=2, seed=19)
    env = Env(inst)
    enc = policy.encode(None, normalize_features(inst))
    rng = np.random.default_rng(1)
    s = env.reset()
    while not s.terminal:
        m = env.mask(s)
        row = (s.node, *state_scalars(env, s), m, visited_array(env, s))
        want = reference_decode(policy, enc, *row)
        assert np.array_equal(policy.decode_step(None, enc, *row).data, want)
        batch_of_one = policy.decode_step(None, enc, *([x] for x in row))
        assert np.array_equal(batch_of_one.data, want[None, :])
        env.step(s, int(rng.choice(np.flatnonzero(m))))


def test_batched_decode_rows_match_single_calls():
    policy = Policy(CFG)
    inst = generate_instance(4, charger_count=2, seed=17)
    env = Env(inst)
    enc = policy.encode(None, normalize_features(inst))
    rng = np.random.default_rng(5)
    states = []
    for walk in range(5):
        s = env.reset()
        for _ in range(walk):
            if s.terminal:
                break
            env.step(s, int(rng.choice(np.flatnonzero(env.mask(s)))))
        if not s.terminal:
            states.append(s)
    rows = [(s.node, *state_scalars(env, s), env.mask(s), visited_array(env, s))
            for s in states]
    batch = policy.decode_step(None, enc, *map(list, zip(*rows))).data
    assert batch.shape == (len(states), env.num_nodes)
    for got, row in zip(batch, rows):
        want = policy.decode_step(None, enc, *row).data
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(got == 0.0, ~np.asarray(row[4]))


def test_multistart_never_worse_than_greedy():
    policy = Policy(CFG)
    for seed in range(6):
        inst = generate_instance(4, charger_count=1, seed=200 + seed)
        g = greedy_rollout(policy, inst)
        ms = multistart_rollout(policy, inst, k_p=4)
        assert ms.reward >= g.reward - 1e-12


def test_multistart_shared_encoding_is_exact():
    # noise changes transitions, never features: one encoding serves
    # every noise draw, and leaves each result exactly as it was
    policy = Policy(CFG)
    inst = generate_instance(5, charger_count=1, seed=31)
    shared = policy.encode(None, normalize_features(inst))
    for seed in range(4):
        own = multistart_rollout(policy, inst, k_p=4,
                                 noise=NoiseConfig.make(0.2, seed))
        got = multistart_rollout(policy, inst, k_p=4,
                                 noise=NoiseConfig.make(0.2, seed), enc=shared)
        assert got.reward == own.reward
        assert got.routes == own.routes


def test_state_scalars_ranges(small_instance):
    env = Env(small_instance)
    s = env.reset()
    load, soc, tfrac = state_scalars(env, s)
    assert (load, soc, tfrac) == (0.0, 1.0, 0.0)
    s.load = small_instance.fleet.capacity
    s.clock = small_instance.horizon * 2
    load, _, tfrac = state_scalars(env, s)
    assert load == 1.0 and tfrac == 1.0


def test_visited_array_decodes_bitset(small_instance):
    env = Env(small_instance)
    s = env.reset()
    s.visited = (1 << 3) | (1 << 1)
    va = visited_array(env, s)
    assert va[1] and va[3]
    assert va.sum() == 2
