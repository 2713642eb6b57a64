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

import base64
import json
import math
from numbers import Integral, Real

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .environment import Env
from .instance import normalize_features

SCHEMA_POLICY = "edarp-policy/2"

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
    """Per-instance tensors reused across every decode step: node
    embeddings, decoder keys, the depot and graph-mean context terms
    (each (1, d)) and the normalized energy rows."""

    __slots__ = ("Z", "keys", "depot_ctx", "graph_ctx", "eps_norm")

    def __init__(self, Z, keys, depot_ctx, graph_ctx, eps_norm):
        self.Z = Z
        self.keys = keys
        self.depot_ctx = depot_ctx
        self.graph_ctx = graph_ctx
        self.eps_norm = eps_norm


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
        h = ad.linear(tape, combined, p["embed_w"], p["embed_b"])

        for l in range(cfg.layers):
            w_qkv = ad.concat(tape, [p[f"l{l}h{hd}_{part}"] for part in "qkv"
                                     for hd in range(cfg.heads)], -1)
            heads = ad.edge_attention(tape, ad.matmul(tape, h, w_qkv),
                                      cfg.heads)
            mha = ad.linear(tape, heads, p[f"l{l}_wo"], p[f"l{l}_bo"])
            h1 = ad.layer_norm(tape, ad.add(tape, h, mha),
                               p[f"l{l}_ln1_g"], p[f"l{l}_ln1_b"])
            ffn = ad.ffn(tape, h1, p[f"l{l}_ffn1_w"], p[f"l{l}_ffn1_b"],
                         p[f"l{l}_ffn2_w"], p[f"l{l}_ffn2_b"])
            h = ad.layer_norm(tape, ad.add(tape, h1, ffn),
                              p[f"l{l}_ln2_g"], p[f"l{l}_ln2_b"])

        # node j collects its incoming edges through a learned softmax
        s = ad.linear(tape, h, p["agg_w"], p["agg_b"])
        s = ad.transpose(tape, ad.reshape(tape, s, (v, v)), (1, 0))
        omega = ad.masked_softmax(tape, s)
        ht = ad.transpose(tape, h, (1, 0, 2))
        z = ad.tsum(tape, ad.mul(tape, ht, ad.reshape(tape, omega, (v, v, 1))),
                    axis=1)
        zbar = ad.reshape(tape, ad.tmean(tape, z, axis=0), (1, cfg.d_h))
        return EncodedGraph(
            z, ad.matmul(tape, z, p["dec_key"]),
            ad.matmul(tape, ad.take(tape, z, np.s_[:1]), p["ctx_depot"]),
            ad.matmul(tape, zbar, p["ctx_graph"]), feats.edge[:, :, 2])

    # -- decoder ---------------------------------------------------------------

    def decode_step(self, tape, enc, node, load_frac, soc, time_frac,
                    feasible, visited):
        """Action distributions for a batch of k states; exact zeros off-mask.

        node (k,) and the three scalars (k,) hold one entry per state;
        feasible (k, V), the simulator's boolean action masks, and visited
        (k, V), the boolean visited-node arrays, hold one row each. The
        result is a (k, V) tape tensor. The visited and masked sets
        contribute mean-embedding context terms, zero vectors in the rows
        whose set is empty.
        """
        cfg = self.config
        p = self.params
        node = np.asarray(node, dtype=np.intp)
        k = len(node)
        blocked = ~np.asarray(feasible, dtype=bool)
        visited = np.asarray(visited, dtype=bool)

        def mean_term(select, w):
            sel = select / np.maximum(select.sum(axis=1, keepdims=True), 1)
            return ad.matmul(tape, ad.matmul(tape, Tensor(sel), enc.Z), w)

        # the terms are added one at a time in this order: regrouping
        # them changes the context's last bits, and seeded outputs with it
        c = ad.matmul(tape, ad.take(tape, enc.Z, node), p["ctx_curr"])
        c = ad.add(tape, c, enc.depot_ctx)
        c = ad.add(tape, c, enc.graph_ctx)
        if visited.any():
            c = ad.add(tape, c, mean_term(visited, p["ctx_visited"]))
        if blocked.any():
            c = ad.add(tape, c, mean_term(blocked, p["ctx_mask"]))
        for name, x in (("ctx_load", load_frac), ("ctx_soc", soc),
                        ("ctx_time", time_frac)):
            x = Tensor(np.asarray(x, dtype=np.float64).reshape(k, 1))
            c = ad.add(tape, c, ad.mul(tape, x, p[name]))

        u = ad.matmul(tape, enc.keys, ad.transpose(tape, c, (1, 0)))
        u = ad.scale(tape, ad.transpose(tape, u, (1, 0)), 1.0 / np.sqrt(cfg.d_h))
        u = ad.add(tape, u, Tensor(-cfg.lam * enc.eps_norm[node]))
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


def pomo_starts(env, k_p):
    """Distinct forced first actions: feasible pickups in ascending order,
    or whatever the mask allows when no pickup is feasible, so at least
    one rollout always runs."""
    m = env.mask(env.reset())
    starts = [j for j in range(1, 1 + env.n) if m[j]]
    if not starts:
        starts = [j for j in range(len(m)) if m[j]]
    return starts[:k_p]


def rollout_episode(policy, env, tape, rng=None, greedy=False, starts=(None,),
                    noise=None, enc=None):
    """Run one episode per start under the policy, in lock-step.

    Each entry of starts is a forced first action, or None to let the
    policy pick it; the default is one unforced episode. Every start
    keeps its own EpisodeState; the live ones share one batched
    decode_step per step, and a start leaves the batch once its episode
    ends. Steps go in start order, so random draws follow step order and
    start order within a step: sampling draws one uniform per sampled
    row, and noise one standard normal per Env.step, both from their one
    generator. enc is the instance's encoding when the caller already
    has it; without it the call encodes env.inst itself.

    Returns (states, log_prob_sums, actions): a state and an action list
    per start, and a (k,) tape tensor of log-prob sums that cover every
    step including a forced first action.
    """
    if enc is None:
        enc = policy.encode(tape, normalize_features(env.inst))
    states = [env.reset() for _ in starts]
    actions = [[] for _ in starts]
    picked, owners = [], []      # per step: chosen probabilities, their starts
    live = list(range(len(starts)))
    step = 0
    while live:
        masks = [env.mask(states[i]) for i in live]
        load, soc, tfrac = zip(*(state_scalars(env, states[i]) for i in live))
        probs = policy.decode_step(
            tape, enc, [states[i].node for i in live], load, soc, tfrac, masks,
            [visited_array(env, states[i]) for i in live])
        forced = [step == 0 and starts[i] is not None for i in live]
        if not greedy:
            draws = iter(rng.random(forced.count(False)))
        chosen = []
        for row, (i, m) in enumerate(zip(live, masks)):
            if forced[row]:
                a = int(starts[i])
                if not m[a]:
                    raise ValueError("forced first action is masked")
            elif greedy:
                a = int(np.argmax(probs.data[row]))
            else:
                cum = np.cumsum(probs.data[row])
                a = int(np.searchsorted(cum, next(draws) * cum[-1], side="right"))
                a = min(a, len(m) - 1)
                while not m[a]:       # numerical guard; p(masked) is exactly 0
                    a = (a + 1) % len(m)
            env.step(states[i], a, noise=noise, mask=m)
            actions[i].append(a)
            chosen.append(a)
        picked.append(ad.take(tape, probs, (np.arange(len(live)), chosen)))
        owners += live
        live = [i for i in live if not states[i].terminal]
        step += 1
    logp = ad.reshape(tape, ad.log(tape, ad.concat(tape, picked, 0)), (-1, 1))
    owner_of = np.zeros((len(starts), len(owners)))
    owner_of[owners, np.arange(len(owners))] = 1.0
    sums = ad.matmul(tape, Tensor(owner_of), logp)
    return states, ad.reshape(tape, sums, (len(starts),)), actions


def greedy_rollout(policy, inst):
    """Deterministic argmax decode; returns the finished Solution."""
    env = Env(inst)
    states, _, _ = rollout_episode(policy, env, None, greedy=True)
    return env.solution(states[0])


def multistart_rollout(policy, inst, k_p=8, noise=None, enc=None):
    """Best of several greedy decodes, ties going to the earliest: the
    unforced one, then one per start of pomo_starts(k_p), all decoded in
    one lock-step rollout_episode call, whose order the noise draws
    follow. The unforced decode makes the result never worse than
    greedy_rollout; the forced ones mirror the multi-start scheme the
    policy is trained under. enc is inst's untaped encoding when the
    caller already has it; noise never changes the features, so one
    encoding serves every start and every noise draw.
    """
    env = Env(inst)
    states, _, _ = rollout_episode(policy, env, None, greedy=True,
                                   starts=[None] + pomo_starts(env, k_p),
                                   noise=noise, enc=enc)
    return max((env.solution(s) for s in states), key=lambda sol: sol.reward)


# -- checkpoints ---------------------------------------------------------------

def save_policy(policy, opt=None, epoch=0):
    """Checkpoint bytes (schema edarp-policy/2): one JSON document of the
    policy's header and weights and, given its Adam optimizer, an optState
    of the step count, both moment sets and the epochs done. Each array
    is stored as base64 of its little-endian float64 bytes in C order.
    No other module knows this layout."""
    cfg = policy.config
    doc = {
        "schema": SCHEMA_POLICY,
        "header": {"dH": cfg.d_h, "heads": cfg.heads, "layers": cfg.layers,
                   "ffnMult": cfg.ffn_mult, "lambda": cfg.lam,
                   "kappa": cfg.kappa, "seed": cfg.seed},
        "params": {k: {"shape": list(t.data.shape), "data": _pack(t.data)}
                   for k, t in policy.params.items()},
    }
    if opt is not None:
        doc["optState"] = {
            "t": opt.t,
            "m": {k: _pack(a) for k, a in opt.m.items()},
            "v": {k: _pack(a) for k, a in opt.v.items()},
            "epoch": epoch}
    return (json.dumps(doc) + "\n").encode()


def _pack(a):
    """Base64 text of a's little-endian float64 bytes in C order."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode()


def _param_array(label, text, shape, nonneg=False):
    """text, base64 of little-endian float64 bytes, as an owned array of
    `shape`; ValueError naming label unless it holds one finite number
    per entry, none negative if nonneg."""
    if not isinstance(text, str):
        raise ValueError(f"{label} must be a base64 string, "
                         f"got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:
        raise ValueError(f"{label} is not valid base64: {e}") from e
    size = math.prod(shape)
    if len(raw) != 8 * size:
        raise ValueError(f"{label} must hold {size} float64 values "
                         f"({8 * size} bytes), got {len(raw)} bytes")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite {label}")
    if nonneg and (arr < 0).any():
        raise ValueError(f"negative {label}")
    return arr


def load_policy(data):
    """(policy, optimizer state) of checkpoint bytes or text in the
    save_policy layout, after checking every array in it. Any other
    schema, edarp-policy/1's float lists included, is refused. The state
    is None or a dict of t, epoch and the moments m and v as arrays
    shaped like the parameters."""
    doc = json.loads(data.decode() if isinstance(data, (bytes, bytearray)) else data)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA_POLICY:
        raise ValueError(f"unsupported policy schema: {schema!r}")
    h = doc["header"]
    cfg = PolicyConfig(d_h=h["dH"], heads=h["heads"], layers=h["layers"],
                       ffn_mult=h["ffnMult"], lam=h["lambda"],
                       kappa=h["kappa"], seed=h["seed"])
    pol = Policy(cfg)
    params = doc["params"]
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {type(params).__name__}")
    for k, entry in params.items():
        if k not in pol.params:
            raise ValueError(f"unknown parameter {k!r} in checkpoint")
        shape = pol.params[k].data.shape
        if entry["shape"] != list(shape):
            raise ValueError(f"shape mismatch for {k!r}")
        pol.params[k].data = _param_array(f"weights in {k!r}", entry["data"], shape)
    missing = sorted(set(pol.params) - set(params))
    if missing:
        raise ValueError(f"checkpoint lacks parameters {missing}")

    st = doc.get("optState")
    if st is None:
        return pol, None
    if not isinstance(st, dict):
        raise ValueError(f"optState must be an object, got {type(st).__name__}")
    opt_state = {"t": st.get("t"), "epoch": st.get("epoch")}
    require("optState t", opt_state["t"], 0, integer=True)
    require("optState epoch", opt_state["epoch"], 0, integer=True)
    for name in ("m", "v"):
        moments = st.get(name)
        if not isinstance(moments, dict) or set(moments) != set(pol.params):
            raise ValueError(f"optState {name} must map every parameter name "
                             "to its moments")
        opt_state[name] = {
            k: _param_array(f"optState {name}[{k!r}]", moments[k],
                            p.data.shape, nonneg=name == "v")
            for k, p in pol.params.items()}
    return pol, opt_state
