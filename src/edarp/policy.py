"""Edge-attention encoder and pointer decoder over episode states.

The encoder embeds every directed edge (i, j) together with the feature
vector of its target node, then runs multi-head attention in which edge
(i, j) attends over all edges leaving i and all edges entering j, with
its own duplicate appearance masked out of the second group so the
joint softmax counts it once. Node embeddings are a learned softmax
mix of each node's incoming edge embeddings.

The decoder scores nodes against a context built from the current
node, the depot, the graph mean, the visited-set mean, the mean of the
currently masked nodes, and scalar load / charge / clock features. A
normalized energy row biases the scores away from expensive moves and
clipped logits go through a masked softmax, so infeasible nodes carry
exactly zero probability.
"""

import json
import math
from numbers import Integral, Real

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .environment import Env
from .instance import normalize_features

SCHEMA_POLICY = "edarp-policy/1"

NODE_FEATS = 10
EDGE_FEATS = 3


def require(name, value, lo, *, integer=False, above=False, below=math.inf):
    """Raise ValueError naming `name` unless value is a number (an integer
    when asked, never a bool) with lo <= value < below, and value > lo
    when above is set. NaN and infinities fail."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if not lo <= value < below or (above and value == lo):
        bound = f"> {lo}" if above else f">= {lo}"
        if below < math.inf:
            bound += f" and < {below}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


class PolicyConfig:
    def __init__(self, d_h=64, heads=4, layers=4, ffn_mult=4,
                 lam=1.0, kappa=10.0, seed=0):
        for name, value in (("d_h", d_h), ("heads", heads), ("layers", layers),
                            ("ffn_mult", ffn_mult)):
            require(name, value, 1, integer=True)
        require("seed", seed, 0, integer=True)
        require("lambda", lam, 0)
        require("kappa", kappa, 0, above=True)
        if d_h % heads:
            raise ValueError(f"d_h={d_h} must be divisible by heads={heads}")
        self.d_h = d_h
        self.heads = heads
        self.layers = layers
        self.ffn_mult = ffn_mult
        self.lam = lam
        self.kappa = kappa
        self.seed = seed


class EncodedGraph:
    """Per-instance tensors reused across every decode step."""

    __slots__ = ("Z", "zbar", "keys", "eps_norm")

    def __init__(self, Z, zbar, keys, eps_norm):
        self.Z = Z
        self.zbar = zbar
        self.keys = keys
        self.eps_norm = eps_norm


_dup_masks = {}


def _dup_mask(v):
    """Joint-attention mask hiding edge (i, j)'s second appearance."""
    m = _dup_masks.get(v)
    if m is None:
        m = np.zeros((v, v, 2 * v), dtype=bool)
        for i in range(v):
            m[i, :, v + i] = True
        _dup_masks[v] = m
    return m


class Policy:
    def __init__(self, config=None):
        self.config = config or PolicyConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        d, dk, hid = cfg.d_h, cfg.d_h // cfg.heads, cfg.ffn_mult * cfg.d_h
        p = {}

        def par(name, *shape):
            p[name] = ad.params_init(rng, shape, d)

        par("embed_w", EDGE_FEATS + NODE_FEATS, d)
        par("embed_b", d)
        for l in range(cfg.layers):
            for h in range(cfg.heads):
                par(f"l{l}h{h}_q", d, dk)
                par(f"l{l}h{h}_k", d, dk)
                par(f"l{l}h{h}_v", d, dk)
            par(f"l{l}_wo", d, d)
            par(f"l{l}_bo", d)
            p[f"l{l}_ln1_g"] = Tensor(np.ones(d))
            p[f"l{l}_ln1_b"] = Tensor(np.zeros(d))
            par(f"l{l}_ffn1_w", d, hid)
            par(f"l{l}_ffn1_b", hid)
            par(f"l{l}_ffn2_w", hid, d)
            par(f"l{l}_ffn2_b", d)
            p[f"l{l}_ln2_g"] = Tensor(np.ones(d))
            p[f"l{l}_ln2_b"] = Tensor(np.zeros(d))
        par("agg_w", d, 1)
        par("agg_b", 1)
        for name in ("ctx_curr", "ctx_depot", "ctx_graph", "ctx_visited",
                     "ctx_mask", "dec_key"):
            par(name, d, d)
        for name in ("ctx_load", "ctx_soc", "ctx_time"):
            par(name, d)
        self.params = p

    def parameters(self):
        return list(self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    # -- encoder ---------------------------------------------------------------

    def encode(self, tape, feats):
        cfg = self.config
        p = self.params
        v = feats.node.shape[0]
        node_part = np.broadcast_to(feats.node[None, :, :],
                                    (v, v, NODE_FEATS))
        combined = Tensor(np.concatenate([feats.edge, node_part], axis=-1))
        h = ad.add(tape, ad.matmul(tape, combined, p["embed_w"]), p["embed_b"])
        dup = _dup_mask(v)
        dk = cfg.d_h // cfg.heads
        inv_sqrt_dk = 1.0 / np.sqrt(dk)

        for l in range(cfg.layers):
            heads = []
            for hd in range(cfg.heads):
                q = ad.matmul(tape, h, p[f"l{l}h{hd}_q"])
                k = ad.matmul(tape, h, p[f"l{l}h{hd}_k"])
                vv = ad.matmul(tape, h, p[f"l{l}h{hd}_v"])
                # edges leaving i: q(i,j) . k(i,m)
                src = ad.matmul(tape, q, ad.transpose(tape, k, (0, 2, 1)))
                # edges entering j: q(i,j) . k(m,j), organized j-major
                qt = ad.transpose(tape, q, (1, 0, 2))
                kt = ad.transpose(tape, k, (1, 0, 2))
                tgt = ad.matmul(tape, qt, ad.transpose(tape, kt, (0, 2, 1)))
                tgt = ad.transpose(tape, tgt, (1, 0, 2))
                scores = ad.scale(tape, ad.concat(tape, [src, tgt], -1),
                                  inv_sqrt_dk)
                attn = ad.masked_softmax(tape, scores, dup)
                a_src = ad.narrow(tape, attn, 2, 0, v)
                a_tgt = ad.narrow(tape, attn, 2, v, v)
                out_src = ad.matmul(tape, a_src, vv)
                vt = ad.transpose(tape, vv, (1, 0, 2))
                at = ad.transpose(tape, a_tgt, (1, 0, 2))
                out_tgt = ad.transpose(tape, ad.matmul(tape, at, vt), (1, 0, 2))
                heads.append(ad.add(tape, out_src, out_tgt))
            mha = ad.add(tape, ad.matmul(tape, ad.concat(tape, heads, -1),
                                         p[f"l{l}_wo"]), p[f"l{l}_bo"])
            h1 = ad.layer_norm(tape, ad.add(tape, h, mha),
                               p[f"l{l}_ln1_g"], p[f"l{l}_ln1_b"])
            ffn = ad.relu(tape, ad.add(tape, ad.matmul(tape, h1, p[f"l{l}_ffn1_w"]),
                                       p[f"l{l}_ffn1_b"]))
            ffn = ad.add(tape, ad.matmul(tape, ffn, p[f"l{l}_ffn2_w"]),
                         p[f"l{l}_ffn2_b"])
            h = ad.layer_norm(tape, ad.add(tape, h1, ffn),
                              p[f"l{l}_ln2_g"], p[f"l{l}_ln2_b"])

        # node j collects its incoming edges through a learned softmax
        s = ad.add(tape, ad.matmul(tape, h, p["agg_w"]), p["agg_b"])
        s = ad.transpose(tape, ad.reshape(tape, s, (v, v)), (1, 0))
        omega = ad.masked_softmax(tape, s, np.zeros((v, v), dtype=bool))
        ht = ad.transpose(tape, h, (1, 0, 2))
        z = ad.tsum(tape, ad.mul(tape, ht, ad.reshape(tape, omega, (v, v, 1))),
                    axis=1)
        zbar = ad.tmean(tape, z, axis=0)
        keys = ad.matmul(tape, z, p["dec_key"])
        return EncodedGraph(z, zbar, keys, feats.edge[:, :, 2])

    # -- decoder ---------------------------------------------------------------

    def decode_step(self, tape, enc, node, load_frac, soc, time_frac,
                    feasible, visited):
        """Action distribution for one state; exact zeros off-mask.

        feasible is the boolean action mask from the simulator, visited
        the boolean visited-node array; both contribute mean-embedding
        context terms that are zero vectors while their set is empty.
        """
        cfg = self.config
        p = self.params
        d = cfg.d_h
        v = enc.Z.data.shape[0]
        blocked = ~np.asarray(feasible, dtype=bool)

        def project(vec, w):
            return ad.reshape(tape, ad.matmul(tape, ad.reshape(tape, vec, (1, d)), w), (d,))

        def mean_of(select):
            sel = select.astype(float) / select.sum()
            return ad.reshape(tape, ad.matmul(tape, Tensor(sel[None, :]), enc.Z), (d,))

        c = project(ad.take(tape, enc.Z, int(node)), p["ctx_curr"])
        c = ad.add(tape, c, project(ad.take(tape, enc.Z, 0), p["ctx_depot"]))
        c = ad.add(tape, c, project(enc.zbar, p["ctx_graph"]))
        if visited.any():
            c = ad.add(tape, c, project(mean_of(np.asarray(visited, bool)),
                                        p["ctx_visited"]))
        if blocked.any():
            c = ad.add(tape, c, project(mean_of(blocked), p["ctx_mask"]))
        c = ad.add(tape, c, ad.scale(tape, p["ctx_load"], float(load_frac)))
        c = ad.add(tape, c, ad.scale(tape, p["ctx_soc"], float(soc)))
        c = ad.add(tape, c, ad.scale(tape, p["ctx_time"], float(time_frac)))

        u = ad.reshape(tape, ad.matmul(tape, enc.keys, ad.reshape(tape, c, (d, 1))), (v,))
        u = ad.scale(tape, u, 1.0 / np.sqrt(d))
        u = ad.add(tape, u, Tensor(-cfg.lam * enc.eps_norm[int(node)]))
        u = clipped_logits(tape, u, cfg.kappa)
        return ad.masked_softmax(tape, u, blocked)


def clipped_logits(tape, u, kappa):
    """Squash raw scores into (-kappa, kappa), preserving their order."""
    return ad.scale(tape, ad.tanh(tape, ad.scale(tape, u, 1.0 / kappa)), kappa)


def state_scalars(env, state):
    """The three decoder scalars, each squashed into [0, 1]."""
    inst = env.inst
    load = state.load / inst.fleet.capacity
    time_frac = min(state.clock / inst.horizon, 1.0)
    return load, state.soc, time_frac


def visited_array(env, state):
    v = env.num_nodes
    out = np.zeros(v, dtype=bool)
    bits = state.visited
    i = 0
    while bits and i < v:
        if bits & 1:
            out[i] = True
        bits >>= 1
        i += 1
    return out


def rollout_episode(policy, env, tape, rng=None, greedy=False,
                    first_action=None, noise=None, enc=None, feats=None):
    """Run one full episode under the policy.

    Returns (state, log_prob_sum, actions); log_prob_sum is a tape
    tensor covering every sampled step including a forced first action.
    """
    if feats is None:
        feats = normalize_features(env.inst)
    if enc is None:
        enc = policy.encode(tape, feats)
    state = env.reset()
    logps = []
    actions = []
    step = 0
    while not state.terminal:
        m = env.mask(state)
        load, soc, tfrac = state_scalars(env, state)
        probs = policy.decode_step(tape, enc, state.node, load, soc, tfrac, m,
                                   visited_array(env, state))
        if step == 0 and first_action is not None:
            a = int(first_action)
            if not m[a]:
                raise ValueError("forced first action is masked")
        elif greedy:
            a = int(np.argmax(probs.data))
        else:
            cum = np.cumsum(probs.data)
            x = rng.random() * cum[-1]
            a = int(np.searchsorted(cum, x, side="right"))
            a = min(a, len(m) - 1)
            while not m[a]:           # numerical guard; p(masked) is exactly 0
                a = (a + 1) % len(m)
        logps.append(ad.reshape(tape, ad.log(tape, ad.take(tape, probs, a)), (1,)))
        env.step(state, a, noise=noise, mask=m)
        actions.append(a)
        step += 1
    lp = ad.tsum(tape, ad.concat(tape, logps, 0))
    return state, lp, actions


def greedy_rollout(policy, inst):
    """Deterministic argmax decode; returns the finished Solution."""
    env = Env(inst)
    state, _, _ = rollout_episode(policy, env, None, greedy=True)
    return env.solution(state)


def multistart_rollout(policy, inst, k_p=8, noise=None):
    """Best of several greedy decodes, one per distinct first pickup.

    The unforced decode is always one of the candidates, so the result
    is never worse than greedy_rollout; forcing each feasible first
    pickup mirrors the multi-start scheme the policy is trained under.
    """
    env = Env(inst)
    feats = normalize_features(inst)
    enc = policy.encode(None, feats)
    m = env.mask(env.reset())
    starts = [None] + [j for j in range(1, 1 + env.n) if m[j]][:k_p]
    best = None
    for a0 in starts:
        state, _, _ = rollout_episode(policy, env, None, greedy=True,
                                      first_action=a0, noise=noise,
                                      enc=enc, feats=feats)
        sol = env.solution(state)
        if best is None or sol.reward > best.reward:
            best = sol
    return best


# -- checkpoints ---------------------------------------------------------------

def save_policy(policy, opt_state=None):
    cfg = policy.config
    doc = {
        "schema": SCHEMA_POLICY,
        "header": {"dH": cfg.d_h, "heads": cfg.heads, "layers": cfg.layers,
                   "ffnMult": cfg.ffn_mult, "lambda": cfg.lam,
                   "kappa": cfg.kappa, "seed": cfg.seed},
        "params": {k: {"shape": list(t.data.shape),
                       "data": t.data.ravel().tolist()}
                   for k, t in policy.params.items()},
    }
    if opt_state is not None:
        doc["optState"] = opt_state
    return (json.dumps(doc) + "\n").encode()


def load_policy(data):
    doc = json.loads(data.decode() if isinstance(data, (bytes, bytearray)) else data)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA_POLICY:
        raise ValueError(f"unsupported policy schema: {schema!r}")
    h = doc["header"]
    cfg = PolicyConfig(d_h=h["dH"], heads=h["heads"], layers=h["layers"],
                       ffn_mult=h["ffnMult"], lam=h["lambda"],
                       kappa=h["kappa"], seed=h.get("seed", 0))
    pol = Policy(cfg)
    for k, entry in doc["params"].items():
        if k not in pol.params:
            raise ValueError(f"unknown parameter {k!r} in checkpoint")
        arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if arr.shape != pol.params[k].data.shape:
            raise ValueError(f"shape mismatch for {k!r}")
        pol.params[k].data = arr
    missing = sorted(set(pol.params) - set(doc["params"]))
    if missing:
        raise ValueError(f"checkpoint lacks parameters {missing}")
    return pol, doc.get("optState")
