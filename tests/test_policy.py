import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import edarp
from edarp import autodiff as ad
from edarp import (Adam, Env, NoiseConfig, Policy, PolicyConfig, Tape, Tensor,
                   generate_instance, greedy_rollout, load_policy,
                   multistart_rollout, pomo_starts, rollout_episode,
                   save_policy)
from edarp.cli import BLAS_THREAD_VARS
from edarp.instance import FeatureTensors, normalize_features
from edarp.policy import (NODE_FEATS, EncodedGraph, clipped_logits,
                          state_scalars, visited_array)

CFG = PolicyConfig(d_h=16, heads=2, layers=1, seed=0)


def decode_one(policy, tape, enc, env, s, m):
    """The decoder's (1, V) distribution at one state, a batch of one."""
    load, soc, tfrac = state_scalars(env, s)
    return policy.decode_step(tape, enc, [s.node], [load], [soc], [tfrac], [m],
                              [visited_array(env, s)])


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
            yield (decode_one(policy, None, enc, env, s, m).data[0],
                   np.array(m, dtype=bool))
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
    p = decode_one(policy, None, enc, env, s, m).data[0]
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
    p = policy.decode_step(None, enc, [0], [0.0], [1.0], [0.0], [m],
                           [visited_array(env, s)]).data[0]
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
    p = policy.decode_step(None, enc, [0], [0.0], [1.0], [0.0], [[True]],
                           np.zeros((1, 1), dtype=bool)).data
    assert p.shape == (1, 1)
    assert p[0, 0] == 1.0


def relu(tape, a):
    """The ReLU op between the two dense layers that ad.ffn fused."""
    return ad._op(tape, np.maximum(a.data, 0.0),
                  lambda g: ad._accum_owned(a, g * (a.data > 0.0)))


def reference_encode(policy, tape, feats):
    """Policy.encode with a projection, a score and a value sum per head:
    the per-head composition of taped ops that ad.edge_attention fused."""
    cfg, p = policy.config, policy.params
    v = feats.node.shape[0]
    node_part = np.broadcast_to(feats.node[None, :, :], (v, v, NODE_FEATS))
    combined = Tensor(np.concatenate([feats.edge, node_part], axis=-1))
    h = ad.add(tape, ad.matmul(tape, combined, p["embed_w"]), p["embed_b"])
    dup = np.zeros((v, v, 2 * v), dtype=bool)
    for i in range(v):
        dup[i, :, v + i] = True
    dk = cfg.d_h // cfg.heads
    for l in range(cfg.layers):
        heads = []
        for hd in range(cfg.heads):
            q, k, vv = (ad.matmul(tape, h, p[f"l{l}h{hd}_{part}"])
                        for part in "qkv")
            src = ad.matmul(tape, q, ad.transpose(tape, k, (0, 2, 1)))
            qt = ad.transpose(tape, q, (1, 0, 2))
            kt = ad.transpose(tape, k, (1, 0, 2))
            tgt = ad.matmul(tape, qt, ad.transpose(tape, kt, (0, 2, 1)))
            tgt = ad.transpose(tape, tgt, (1, 0, 2))
            scores = ad.scale(tape, ad.concat(tape, [src, tgt], -1),
                              1.0 / np.sqrt(dk))
            attn = ad.masked_softmax(tape, scores, dup)
            out_src = ad.matmul(tape, ad.take(tape, attn, np.s_[..., :v]), vv)
            at = ad.transpose(tape, ad.take(tape, attn, np.s_[..., v:]),
                              (1, 0, 2))
            vt = ad.transpose(tape, vv, (1, 0, 2))
            out_tgt = ad.transpose(tape, ad.matmul(tape, at, vt), (1, 0, 2))
            heads.append(ad.add(tape, out_src, out_tgt))
        mha = ad.add(tape, ad.matmul(tape, ad.concat(tape, heads, -1),
                                     p[f"l{l}_wo"]), p[f"l{l}_bo"])
        h1 = ad.layer_norm(tape, ad.add(tape, h, mha),
                           p[f"l{l}_ln1_g"], p[f"l{l}_ln1_b"])
        ffn = relu(tape, ad.add(tape, ad.matmul(tape, h1, p[f"l{l}_ffn1_w"]),
                                p[f"l{l}_ffn1_b"]))
        ffn = ad.add(tape, ad.matmul(tape, ffn, p[f"l{l}_ffn2_w"]),
                     p[f"l{l}_ffn2_b"])
        h = ad.layer_norm(tape, ad.add(tape, h1, ffn),
                          p[f"l{l}_ln2_g"], p[f"l{l}_ln2_b"])
    s = ad.add(tape, ad.matmul(tape, h, p["agg_w"]), p["agg_b"])
    s = ad.transpose(tape, ad.reshape(tape, s, (v, v)), (1, 0))
    omega = ad.masked_softmax(tape, s, np.zeros((v, v), dtype=bool))
    ht = ad.transpose(tape, h, (1, 0, 2))
    z = ad.tsum(tape, ad.mul(tape, ht, ad.reshape(tape, omega, (v, v, 1))),
                axis=1)
    zbar = ad.reshape(tape, ad.tmean(tape, z, axis=0), (1, cfg.d_h))
    return EncodedGraph(
        z, ad.matmul(tape, z, p["dec_key"]),
        ad.matmul(tape, ad.take(tape, z, np.s_[:1]), p["ctx_depot"]),
        ad.matmul(tape, zbar, p["ctx_graph"]), feats.edge[:, :, 2])


@pytest.mark.parametrize("cfg, n", [(CFG, 5), (PolicyConfig(seed=3), 10)])
def test_encode_matches_per_head_reference(cfg, n):
    # outputs bit for bit, taped and untaped; weight gradients are summed
    # in another order, so they agree to a float64 rounding tolerance
    policy = Policy(cfg)
    feats = normalize_features(generate_instance(n, charger_count=2, seed=n))
    runs = []
    for encode in (policy.encode,
                   lambda tape, f: reference_encode(policy, tape, f)):
        policy.zero_grad()
        tape = Tape()
        outs = [(e.Z, e.keys, e.depot_ctx, e.graph_ctx)
                for e in (encode(tape, feats), encode(None, feats))]
        assert [t.data.tobytes() for t in outs[0]] == \
            [t.data.tobytes() for t in outs[1]]
        rng = np.random.default_rng(n)
        loss = ad.tsum(tape, ad.concat(tape, [
            ad.reshape(tape, ad.mul(tape, t, Tensor(rng.standard_normal(t.shape))),
                       (-1,)) for t in outs[0]], 0))
        tape.backward(loss)
        runs.append(([t.data.tobytes() for t in outs[0]],
                     {k: t.grad for k, t in policy.params.items()
                      if t.grad is not None}))
    (fused, g_fused), (ref, g_ref) = runs
    assert fused == ref
    assert g_fused.keys() == g_ref.keys()
    for k, g in g_ref.items():
        assert np.abs(g_fused[k] - g).max() <= 1e-12 * np.abs(g).max(), k


def test_encode_records_one_attention_op_per_layer():
    tape = Tape()
    Policy(PolicyConfig(seed=0)).encode(
        tape, normalize_features(generate_instance(10, charger_count=2, seed=0)))
    assert len(tape._ops) <= 51


ENCODER_DIGESTS = """
import hashlib
import numpy as np
from edarp import autodiff as ad
from edarp import Policy, PolicyConfig, Tape, Tensor, generate_instance
from edarp.instance import normalize_features

enc = Policy(PolicyConfig(seed=0)).encode(
    None, normalize_features(generate_instance(40, seed=1)))
print(hashlib.sha256(enc.Z.data.tobytes() + enc.keys.data.tobytes()).hexdigest())

policy = Policy(PolicyConfig(seed=0))
tape = Tape()
enc = policy.encode(tape, normalize_features(generate_instance(10, seed=1)))
rng = np.random.default_rng(10)
tape.backward(ad.tsum(tape, ad.concat(tape, [
    ad.reshape(tape, ad.mul(tape, t, Tensor(rng.standard_normal(t.shape))), (-1,))
    for t in (enc.Z, enc.keys, enc.depot_ctx, enc.graph_ctx)], 0)))
h = hashlib.sha256()
for name, t in policy.params.items():
    if t.grad is not None:
        h.update(name.encode() + t.grad.tobytes())
print(h.hexdigest())
"""


def test_encoder_bits_are_pinned():
    """sha256 of the untaped n=40 encoding (Z and keys bytes) and of the
    parameter gradients of a taped n=10 encode and backward, recorded
    from the encoder that composed linear, ReLU and linear and masked
    attention with a (V, V, 2V) array. They run under one BLAS thread:
    the gradients' GEMMs over the flattened rows sum in an order that
    depends on the thread count."""
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(Path(edarp.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", ENCODER_DIGESTS], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == [
        "668b777279f96fcbc834b75fc8d8c72fb940452250d310a8fcf3b0ee1236d5a1",
        "bf0d772b9a5d5efd546512b38539e45176e83ee207b3b939a5aa7131a413f6e4"]


@pytest.mark.slow
def test_n120_encode_memory_and_blocks(monkeypatch):
    # attention in blocks of source rows keeps an untaped n=120 encode
    # (V = 242, 17 source rows a block) under 366 MiB of traced numpy
    # memory, against 549 MiB with whole-graph scores, and it agrees
    # with one forced block to 1e-12
    policy = Policy(PolicyConfig(seed=0))
    feats = normalize_features(generate_instance(120, seed=1))
    tracemalloc.start()
    try:
        enc = policy.encode(None, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 366 * 2 ** 20
    monkeypatch.setattr(ad, "BLOCK_BYTES", 2 ** 62)
    one = policy.encode(None, feats)
    for got, want in ((enc.Z, one.Z), (enc.keys, one.keys)):
        assert np.abs(got.data - want.data).max() <= 1e-12


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
        states, lp, actions = rollout_episode(policy, env, tape, rng=rng)
        assert states[0].terminal
        assert lp.shape == (1,) and lp.data[0] <= 1e-12
        assert len(actions[0]) == states[0].steps
        tape.backward(lp)           # the whole trajectory stays differentiable
        assert any(t.grad is not None for t in policy.params.values())


def test_forced_first_action_validated(small_instance):
    policy = Policy(CFG)
    env = Env(small_instance)
    charger = env.chargers[0]       # blocked from the depot
    with pytest.raises(ValueError, match="masked"):
        rollout_episode(policy, env, None, starts=[charger])


def test_forced_first_action_respected(small_instance):
    policy = Policy(CFG)
    env = Env(small_instance)
    m = env.mask(env.reset())
    pickups = [j for j in range(1, 1 + env.n) if m[j]]
    _, _, actions = rollout_episode(policy, env, None, starts=[pickups[-1], None])
    assert actions[0][0] == pickups[-1]
    assert actions[1] == rollout_episode(policy, env, None)[2][0]


def forced_logprobs(policy, inst, tape, enc, actions):
    """(k,) log-prob sums of k action lists, decoding one state per call."""
    env = Env(inst)
    sums = []
    for acts in actions:
        s = env.reset()
        terms = []
        for a in acts:
            m = env.mask(s)
            p = decode_one(policy, tape, enc, env, s, m)
            terms.append(ad.log(tape, ad.take(tape, p, ([0], [a]))))
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
        states, lps, actions = rollout_episode(policy, env, None,
                                               starts=starts, enc=enc)
        assert lps.shape == (len(starts),)
        for i, a0 in enumerate(starts):
            s1, lp1, acts1 = rollout_episode(policy, env, None, starts=[a0], enc=enc)
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
        want = reference_decode(policy, enc, s.node, *state_scalars(env, s),
                                m, visited_array(env, s))
        got = decode_one(policy, None, enc, env, s, m).data
        assert np.array_equal(got, want[None, :])
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
        want = policy.decode_step(None, enc, *([x] for x in row)).data[0]
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


def one_start_per_call(policy, inst, k_p):
    """The reference multistart: one rollout_episode call per start, the
    best reward kept and ties going to the earliest start."""
    env = Env(inst)
    enc = policy.encode(None, normalize_features(inst))
    best = None
    for a0 in [None] + pomo_starts(env, k_p):
        states, _, _ = rollout_episode(policy, env, None, starts=[a0], enc=enc)
        sol = env.solution(states[0])
        if best is None or sol.reward > best.reward:
            best = sol
    return best


@pytest.mark.parametrize("seed", [0, 1])
def test_multistart_lockstep_matches_one_start_per_call(seed):
    policy = Policy(PolicyConfig(d_h=16, heads=2, layers=2, seed=seed))
    for n in (2, 5, 10, 20, 40):
        inst = generate_instance(n, charger_count=2, seed=500 + n + seed)
        for k_p in (0, 1, 8):
            got = multistart_rollout(policy, inst, k_p=k_p)
            want = one_start_per_call(policy, inst, k_p)
            assert got.reward == want.reward
            assert got.routes == want.routes


def test_noisy_multistart_draws_one_normal_per_step():
    # every start's Env.step draws from the one noise generator, so a
    # call consumes exactly one standard normal per step over all starts
    policy = Policy(CFG)
    for seed in range(4):
        inst = generate_instance(6, charger_count=1, seed=60 + seed)
        env = Env(inst)
        states, _, _ = rollout_episode(policy, env, None,
                                       starts=[None] + pomo_starts(env, 8),
                                       noise=NoiseConfig.make(0.3, seed))
        noise = NoiseConfig.make(0.3, seed)
        got = multistart_rollout(policy, inst, k_p=8, noise=noise)
        ref = np.random.default_rng(seed)
        ref.standard_normal(sum(s.steps for s in states))
        assert noise.rng.bit_generator.state == ref.bit_generator.state
        best = max((env.solution(s) for s in states), key=lambda x: x.reward)
        assert (got.reward, got.routes) == (best.reward, best.routes)
        again = multistart_rollout(policy, inst, k_p=8,
                                   noise=NoiseConfig.make(0.3, seed))
        assert (again.reward, again.routes) == (got.reward, got.routes)


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
