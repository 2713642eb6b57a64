"""Reverse-mode automatic differentiation over numpy arrays.

Deliberately small: exactly the float64 operations the attention policy
needs, recorded on an explicit tape. Each op computes its forward and
records its output with a gradient rule, a function of the output's
gradient g that accumulates into the inputs' grads
(Tape.record(out, rule)). Tape.backward runs the rules in reverse order,
skipping any output no gradient reached. Passing tape=None runs any op in
inference mode with no recording. Gradients accumulate into Tensor.grad
slots, so one tape can back-propagate a whole batch at once.

linear(x, w, b) is a dense layer, x @ w + b, as one op, and ffn(x, w1,
b1, w2, b2) the feed-forward block relu(x @ w1 + b1) @ w2 + b2. Their
forwards keep numpy's stacked matmul, one GEMM per leading entry of a
(V, V, k) input: one GEMM over the flattened rows can sum in another
order and change the forward's last bits. Biases, the ReLU and
layer_norm's normalisation are applied in place in arrays the op has
just made. Their backwards, like matmul's for a stack of rows against
one matrix, take both products as one GEMM each over the flattened
rows.

The first gradient to reach a tensor becomes its grad, and later ones
are added into it in place. An array a rule has just made (the
products of matmul, linear and ffn, the input gradients of layer_norm,
edge_attention, tanh and masked_softmax) is stored without a copy
(_accum_owned). The pass-through rules (add, reshape, transpose,
concat, tsum, tmean) hand on their output's gradient or a view of it,
which _accum copies, and take scatters into a zero array of its own,
so no two grads ever share memory.
"""

import numpy as np

LN_EPS = 1e-6               # variance floor of layer_norm
BLOCK_BYTES = 16 * 2 ** 20  # edge_attention's (rows, V, 2V) score block


class Tensor:
    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None


class Tape:
    """Ordered record of (output, gradient rule) pairs.

    backward sweeps the record in reverse and calls each rule with the
    gradient that has reached its output. An output no gradient reached
    is skipped: its rule never runs and its inputs' grads stay as they
    were, None if nothing else feeds them.
    """

    def __init__(self):
        self._ops = []

    def record(self, out, rule):
        self._ops.append((out, rule))

    def backward(self, loss):
        if loss.data.size != 1:
            raise ValueError("backward needs a scalar loss")
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite loss")
        loss.grad = np.ones_like(loss.data)
        for out, rule in reversed(self._ops):
            if out.grad is not None:
                rule(out.grad)


def _op(tape, data, rule):
    """Tensor(data), with rule(g) recorded as its gradient rule on tape."""
    out = Tensor(data)
    if tape is not None:
        tape.record(out, rule)
    return out


def _accum(t, g):
    if t.grad is None:
        t.grad = g + 0.0        # a fresh array, bit-equal to zeros + g
    else:
        t.grad += g


def _accum_owned(t, g):
    """_accum for an array the rule has just made and holds nowhere else:
    a first gradient is stored as it is, without a copy."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(tape, a, b):
    def rule(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    return _op(tape, a.data + b.data, rule)


def mul(tape, a, b):
    def rule(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return _op(tape, a.data * b.data, rule)


def scale(tape, a, s):
    return _op(tape, a.data * s, lambda g: _accum(a, g * s))


def _row_stack_grads(x, w, g):
    """(gx, gw) of x @ w for a stack of rows x against one matrix w: a
    single GEMM each over the flattened rows, not one per stack entry."""
    k, m = w.shape
    g2 = g.reshape(-1, m)
    return (g2 @ w.T).reshape(x.shape), x.reshape(-1, k).T @ g2


def matmul(tape, a, b):
    def rule(g):
        if b.data.ndim == 2:
            ga, gb = _row_stack_grads(a.data, b.data, g)
        else:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                              a.data.shape)
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                              b.data.shape)
        _accum_owned(a, ga)
        _accum_owned(b, gb)
    return _op(tape, np.matmul(a.data, b.data), rule)


def _dense_grads(x, w, b, g):
    """Accumulate the gradients of x @ w + b for its output's gradient g
    into the tensors w and b, and return x's."""
    _accum(b, _unbroadcast(g, b.data.shape))
    gx, gw = _row_stack_grads(x, w.data, g)
    _accum_owned(w, gw)
    return gx


def linear(tape, x, w, b):
    """x @ w + b for a 2-D weight w and a bias b broadcast over its rows,
    its forward bit-equal to add(matmul(x, w), b)."""
    def rule(g):
        _accum_owned(x, _dense_grads(x.data, w, b, g))
    out = np.matmul(x.data, w.data)
    out += b.data
    return _op(tape, out, rule)


def ffn(tape, x, w1, b1, w2, b2):
    """relu(x @ w1 + b1) @ w2 + b2, its forward bit-equal to linear, a
    ReLU and linear again. The hidden array is made once and kept for
    the backward, which masks its gradient where the hidden is 0."""
    hid = np.matmul(x.data, w1.data)
    hid += b1.data
    np.maximum(hid, 0.0, out=hid)

    def rule(g):
        gh = _dense_grads(hid, w2, b2, g)
        gh *= hid > 0.0
        _accum_owned(x, _dense_grads(x.data, w1, b1, gh))
    out = np.matmul(hid, w2.data)
    out += b2.data
    return _op(tape, out, rule)


def tanh(tape, a):
    y = np.tanh(a.data)
    return _op(tape, y, lambda g: _accum_owned(a, g * (1.0 - y * y)))


def log(tape, a):
    return _op(tape, np.log(a.data), lambda g: _accum(a, g / a.data))


def tsum(tape, a, axis=None):
    def rule(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))
    return _op(tape, a.data.sum(axis=axis), rule)


def tmean(tape, a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]

    def rule(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g / n, a.data.shape))
    return _op(tape, a.data.mean(axis=axis), rule)


def transpose(tape, a, axes):
    return _op(tape, a.data.transpose(axes),
               lambda g: _accum(a, g.transpose(np.argsort(axes))))


def reshape(tape, a, shape):
    return _op(tape, a.data.reshape(shape),
               lambda g: _accum(a, g.reshape(a.data.shape)))


def concat(tape, parts, axis):
    def rule(g):
        splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        for p, gp in zip(parts, np.split(g, splits, axis=axis)):
            _accum(p, gp)
    return _op(tape, np.concatenate([p.data for p in parts], axis=axis), rule)


def take(tape, a, idx):
    """Gather a[idx] for an integer, integer-array or slice index (a
    tuple indexes several axes). Repeated indices accumulate their
    gradients; a plain `grad[idx] += g` would keep only one of them."""
    def rule(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)
    return _op(tape, a.data[idx], rule)


def layer_norm(tape, x, gain, bias):
    """Normalize the last axis, then apply a learned affine map."""
    n = x.data.shape[-1]
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)   # centred, then scaled
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv

    def rule(g):
        red = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=red))
        _accum(bias, g.sum(axis=red))
        dxh = g * gain.data
        gx = (inv / n) * (n * dxh
                          - dxh.sum(axis=-1, keepdims=True)
                          - xhat * (dxh * xhat).sum(axis=-1, keepdims=True))
        _accum_owned(x, gx)
    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    return _op(tape, out, rule)


def masked_softmax(tape, x, mask=None):
    """Softmax over the last axis with blocked entries pinned to exact zero.

    mask is a boolean array broadcastable to x, True meaning blocked, or
    None to block nothing. Rows with every entry blocked come out all-zero.
    """
    p = x.data.copy()
    _masked_softmax_in_place(p, mask)
    return _op(tape, p, lambda g: _accum_owned(
        x, p * (g - (g * p).sum(axis=-1, keepdims=True))))


def _masked_softmax_in_place(p, mask=None):
    """masked_softmax's forward, overwriting the scores p with the weights.
    Entries of p that are already -inf count as blocked too."""
    if mask is not None:
        np.copyto(p, -np.inf, where=mask)   # blocked entries exp to exactly 0
    mx = p.max(axis=-1, keepdims=True)
    p -= np.where(np.isfinite(mx), mx, 0.0)
    np.exp(p, out=p)
    tot = p.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p /= tot
    p[~(tot[..., 0] > 0.0)] = 0.0    # an all-blocked or non-finite row


def edge_attention(tape, qkv, heads):
    """Multi-head attention of each directed edge over the edges leaving
    its source and the edges entering its target.

    qkv is (V, V, 3 * heads * dk): every edge's queries, then its keys,
    then its values, head h taking columns h*dk:(h+1)*dk of each third.
    Edge (i, j) scores q(i,j).k(i,m) / sqrt(dk) against the edges (i, m)
    and q(i,j).k(m,j) / sqrt(dk) against the edges (m, j): one joint row
    of 2V scores whose entry V+i, the edge's own second appearance, is
    blocked, and that masked_softmax's rule turns into weights. Head h's
    output, columns h*dk:(h+1)*dk of the (V, V, heads * dk) result, is
    the weighted sum of the matching values.

    The heads run one at a time on contiguous copies of their q, k and
    v. Scores, softmax and value sums run over blocks of
    max(1, BLOCK_BYTES // (16 V^2)) source rows i, so a score block
    outgrows BLOCK_BYTES only when one row does. One block covers every
    V up to 101 and runs the same products as the whole graph; more
    blocks sum the same terms in GEMMs of other shapes, which may move
    the last bits.
    Untaped, one block buffer serves every head and block; taped, each
    block is written into the head's (V, V, 2V) weights that the
    backward keeps.
    """
    data = qkv.data
    v = data.shape[0]
    dk = data.shape[-1] // (3 * heads)
    if dk < 1 or data.shape != (v, v, 3 * heads * dk):
        raise ValueError(f"qkv of shape {data.shape} is not (V, V, 3*{heads}*dk)")
    scale = 1.0 / np.sqrt(dk)
    rows = min(v, max(1, BLOCK_BYTES // (16 * v * v)))

    def cols(a, h):
        """Head h's query, key and value columns of a qkv-shaped array."""
        return [a[..., c + h * dk:c + (h + 1) * dk]
                for c in range(0, 3 * heads * dk, heads * dk)]

    out = np.empty((v, v, heads * dk))
    probs = []
    block = None if tape is not None else np.empty((rows, v, 2 * v))
    for h in range(heads):
        q, k, val = map(np.ascontiguousarray, cols(data, h))
        if tape is not None:
            probs.append(np.empty((v, v, 2 * v)))
        for lo in range(0, v, rows):
            hi = min(lo + rows, v)
            p = probs[-1][lo:hi] if tape is not None else block[:hi - lo]
            _edge_scores(q, k, p, lo)
            p *= scale
            r = np.arange(hi - lo)
            p[r, :, v + lo + r] = -np.inf     # edge (i, j)'s second appearance
            _masked_softmax_in_place(p)
            out[lo:hi, :, h * dk:(h + 1) * dk] = _edge_sums(p, val, lo)

    def rule(g):
        gqkv = np.empty_like(data)
        for h, p in enumerate(probs):
            q, k, val = map(np.ascontiguousarray, cols(data, h))
            go = np.ascontiguousarray(g[..., h * dk:(h + 1) * dk])
            gq, gk, gv = cols(gqkv, h)
            gv[...] = _edge_sums(p, go, adjoint=True)
            gs = _edge_scores(go, val, np.empty_like(p))
            gs -= (gs * p).sum(axis=-1, keepdims=True)   # softmax backward
            gs *= p
            gs *= scale
            gq[...] = _edge_sums(gs, k)
            gk[...] = _edge_sums(gs, q, adjoint=True)
        _accum_owned(qkv, gqkv)
    return _op(tape, out, rule)


def _edge_scores(q, k, out, lo=0):
    """Fill out (r, V, 2V) with the joint products of the rows of q for
    the source rows i = lo..lo+r-1: out(i-lo,j,m) = q(i,j).k(i,m) and
    out(i-lo,j,V+m) = q(i,j).k(m,j)."""
    r, v = out.shape[:2]
    qb = q[lo:lo + r]
    np.matmul(qb, k[lo:lo + r].transpose(0, 2, 1), out=out[:, :, :v])
    # the edges entering j, computed j-major
    np.matmul(qb.transpose(1, 0, 2), k.transpose(1, 2, 0),
              out=out[:, :, v:].transpose(1, 0, 2))
    return out


def _edge_sums(w, x, lo=0, adjoint=False):
    """Sum the per-edge rows x (V, V, d) under the joint weights w of the
    source rows i = lo..lo+r-1, (r, V, 2V):
    out(i-lo,j) = sum_m w(i-lo,j,m) x(i,m) + w(i-lo,j,V+m) x(m,j).
    adjoint, for the whole graph only (lo = 0, r = V), gives the
    transposed map, whose (i,m) entry is
    sum_j w(i,j,m) x(i,j) + sum_j w(j,m,V+i) x(j,m)."""
    r, v = w.shape[:2]
    src, tgt = w[:, :, :v], w[:, :, v:]
    if adjoint:
        return (np.matmul(src.transpose(0, 2, 1), x)
                + np.matmul(tgt.transpose(1, 2, 0),
                            x.transpose(1, 0, 2)).transpose(1, 0, 2))
    return (np.matmul(src, x[lo:lo + r])
            + np.matmul(tgt.transpose(1, 0, 2),
                        x.transpose(1, 0, 2)).transpose(1, 0, 2))


def params_init(rng, shape, fan):
    """Uniform(-1/sqrt(fan), 1/sqrt(fan)) initialization."""
    bound = 1.0 / np.sqrt(fan)
    return Tensor(rng.uniform(-bound, bound, size=shape))
