import json

import numpy as np
import pytest

from edarp import (Env, Policy, PolicyConfig, Tape, Tensor, generate_instance,
                   greedy_rollout, load_policy, multistart_rollout,
                   rollout_episode, save_policy)
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


def test_checkpoint_round_trip_bit_exact():
    policy = Policy(PolicyConfig(d_h=16, heads=2, layers=2, lam=0.7,
                                 kappa=8.0, seed=5))
    blob = save_policy(policy, opt_state={"epoch": 3})
    back, opt = load_policy(blob)
    assert opt == {"epoch": 3}
    assert back.config.d_h == 16 and back.config.layers == 2
    assert back.config.lam == 0.7 and back.config.kappa == 8.0
    assert set(back.params) == set(policy.params)
    for k in policy.params:
        assert np.array_equal(back.params[k].data, policy.params[k].data)
    inst = generate_instance(2, charger_count=1, seed=1)
    assert greedy_rollout(back, inst).reward == greedy_rollout(policy, inst).reward


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
        assert any(t.grad is not None for t in policy.parameters())


def test_forced_first_action_validated(small_instance):
    policy = Policy(CFG)
    env = Env(small_instance)
    charger = env.chargers[0]       # blocked from the depot
    with pytest.raises(ValueError, match="masked"):
        rollout_episode(policy, env, None, greedy=True, first_action=charger)


def test_forced_first_action_respected(small_instance):
    policy = Policy(CFG)
    env = Env(small_instance)
    m = env.mask(env.reset())
    pickups = [j for j in range(1, 1 + env.n) if m[j]]
    _, _, actions = rollout_episode(policy, env, None, greedy=True,
                                    first_action=pickups[-1])
    assert actions[0] == pickups[-1]


def test_multistart_never_worse_than_greedy():
    policy = Policy(CFG)
    for seed in range(6):
        inst = generate_instance(4, charger_count=1, seed=200 + seed)
        g = greedy_rollout(policy, inst)
        ms = multistart_rollout(policy, inst, k_p=4)
        assert ms.reward >= g.reward - 1e-12


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
