"""Reverse-mode automatic differentiation over numpy arrays.

Deliberately small: exactly the float64 operations the attention policy
needs, recorded on an explicit tape. Passing tape=None runs any op in
inference mode with no recording. Gradients accumulate into Tensor.grad
slots, so one tape can back-propagate a whole batch at once.
"""

import numpy as np

LN_EPS = 1e-6               # variance floor of layer_norm


class Tensor:
    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape


class Tape:
    """Ordered record of backward closures."""

    def __init__(self):
        self._ops = []

    def record(self, fn):
        self._ops.append(fn)

    def backward(self, loss):
        if loss.data.size != 1:
            raise ValueError("backward needs a scalar loss")
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite loss")
        loss.grad = np.ones_like(loss.data)
        for fn in reversed(self._ops):
            fn()


def _accum(t, g):
    if t.grad is None:
        t.grad = g + 0.0        # a fresh array, bit-equal to zeros + g
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
    out = Tensor(a.data + b.data)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _accum(a, _unbroadcast(out.grad, a.data.shape))
            _accum(b, _unbroadcast(out.grad, b.data.shape))
        tape.record(back)
    return out


def mul(tape, a, b):
    out = Tensor(a.data * b.data)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))
        tape.record(back)
    return out


def scale(tape, a, s):
    out = Tensor(a.data * s)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _accum(a, out.grad * s)
        tape.record(back)
    return out


def matmul(tape, a, b):
    out = Tensor(np.matmul(a.data, b.data))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            ga = np.matmul(out.grad, np.swapaxes(b.data, -1, -2))
            if b.data.ndim == 2 < a.data.ndim:
                # a stack of rows against one matrix: a single GEMM over
                # the flattened rows, not one per stack entry and a sum
                k, m = b.data.shape
                gb = a.data.reshape(-1, k).T @ out.grad.reshape(-1, m)
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2),
                                            out.grad), b.data.shape)
            _accum(a, _unbroadcast(ga, a.data.shape))
            _accum(b, gb)
        tape.record(back)
    return out


def relu(tape, a):
    out = Tensor(np.maximum(a.data, 0.0))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _accum(a, out.grad * (a.data > 0.0))
        tape.record(back)
    return out


def tanh(tape, a):
    out = Tensor(np.tanh(a.data))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _accum(a, out.grad * (1.0 - out.data * out.data))
        tape.record(back)
    return out


def log(tape, a):
    out = Tensor(np.log(a.data))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _accum(a, out.grad / a.data)
        tape.record(back)
    return out


def tsum(tape, a, axis=None):
    out = Tensor(a.data.sum(axis=axis))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        tape.record(back)
    return out


def tmean(tape, a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    out = Tensor(a.data.mean(axis=axis))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g / n, a.data.shape).copy())
        tape.record(back)
    return out


def transpose(tape, a, axes):
    out = Tensor(a.data.transpose(axes))
    if tape is not None:
        inv = np.argsort(axes)
        def back():
            if out.grad is None:
                return
            _accum(a, out.grad.transpose(inv))
        tape.record(back)
    return out


def reshape(tape, a, shape):
    out = Tensor(a.data.reshape(shape))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _accum(a, out.grad.reshape(a.data.shape))
        tape.record(back)
    return out


def concat(tape, parts, axis):
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if tape is not None:
        sizes = [p.data.shape[axis] for p in parts]
        splits = np.cumsum(sizes)[:-1]
        def back():
            if out.grad is None:
                return
            for p, g in zip(parts, np.split(out.grad, splits, axis=axis)):
                _accum(p, g)
        tape.record(back)
    return out


def take(tape, a, idx):
    """Gather a[idx] for an integer or integer-array index (a tuple of
    arrays indexes several axes). Repeated indices accumulate their
    gradients; a plain `grad[idx] += g` would keep only one of them."""
    out = Tensor(a.data[idx])
    if tape is not None:
        def back():
            if out.grad is None:
                return
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, out.grad)
        tape.record(back)
    return out


def narrow(tape, a, axis, start, length):
    """Contiguous slice along one axis."""
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(a.data[sl])
    if tape is not None:
        def back():
            if out.grad is None:
                return
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[sl] += out.grad
        tape.record(back)
    return out


def layer_norm(tape, x, gain, bias):
    """Normalize the last axis, then apply a learned affine map."""
    n = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            red = tuple(range(out.grad.ndim - 1))
            _accum(gain, (out.grad * xhat).sum(axis=red))
            _accum(bias, out.grad.sum(axis=red))
            dxh = out.grad * gain.data
            gx = (inv / n) * (n * dxh
                              - dxh.sum(axis=-1, keepdims=True)
                              - xhat * (dxh * xhat).sum(axis=-1, keepdims=True))
            _accum(x, gx)
        tape.record(back)
    return out


def masked_softmax(tape, x, mask):
    """Softmax over the last axis with blocked entries pinned to exact zero.

    mask is a boolean array broadcastable to x, True meaning blocked.
    Rows with every entry blocked come out all-zero.
    """
    p = x.data.copy()
    _masked_softmax_in_place(p, mask)
    out = Tensor(p)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            g = out.grad
            dot = (g * p).sum(axis=-1, keepdims=True)
            _accum(x, p * (g - dot))
        tape.record(back)
    return out


def _masked_softmax_in_place(p, mask):
    """masked_softmax's forward, overwriting the scores p with the weights."""
    np.copyto(p, -np.inf, where=mask)   # blocked entries exp to exactly 0
    mx = p.max(axis=-1, keepdims=True)
    p -= np.where(np.isfinite(mx), mx, 0.0)
    np.exp(p, out=p)
    tot = p.sum(axis=-1, keepdims=True)
    ok = tot > 0.0
    np.divide(p, tot, out=p, where=ok)
    p[~ok[..., 0]] = 0.0             # an all-blocked or non-finite row


def edge_attention(tape, qkv, heads, mask):
    """Multi-head attention of each directed edge over the edges leaving
    its source and the edges entering its target.

    qkv is (V, V, 3 * heads * dk): every edge's queries, then its keys,
    then its values, head h taking columns h*dk:(h+1)*dk of each third.
    Edge (i, j) scores q(i,j).k(i,m) / sqrt(dk) against the edges (i, m)
    and q(i,j).k(m,j) / sqrt(dk) against the edges (m, j): one joint row
    of 2V scores that masked_softmax's rule turns into weights, mask
    being broadcastable to (V, V, 2V) and True meaning blocked. Head h's
    output, columns h*dk:(h+1)*dk of the (V, V, heads * dk) result, is
    the weighted sum of the matching values.

    The heads run one at a time on contiguous copies of their q, k and
    v, so the largest temporary is one head's (V, V, 2V) scores; the
    backward keeps only each head's weights.
    """
    data = qkv.data
    v = data.shape[0]
    dk = data.shape[-1] // (3 * heads)
    if dk < 1 or data.shape != (v, v, 3 * heads * dk):
        raise ValueError(f"qkv of shape {data.shape} is not (V, V, 3*{heads}*dk)")
    scale = 1.0 / np.sqrt(dk)

    def cols(a, h):
        """Head h's query, key and value columns of a qkv-shaped array."""
        return [a[..., c + h * dk:c + (h + 1) * dk]
                for c in range(0, 3 * heads * dk, heads * dk)]

    out = np.empty((v, v, heads * dk))
    probs = []
    p = None
    for h in range(heads):
        q, k, val = map(np.ascontiguousarray, cols(data, h))
        if p is None or tape is not None:
            p = np.empty((v, v, 2 * v))
        _edge_scores(q, k, p)
        p *= scale
        _masked_softmax_in_place(p, mask)
        out[..., h * dk:(h + 1) * dk] = _edge_sums(p, val)
        if tape is not None:
            probs.append(p)
    result = Tensor(out)
    if tape is not None:
        def back():
            if result.grad is None:
                return
            g = np.empty_like(data)
            for h, p in enumerate(probs):
                q, k, val = map(np.ascontiguousarray, cols(data, h))
                go = np.ascontiguousarray(result.grad[..., h * dk:(h + 1) * dk])
                gq, gk, gv = cols(g, h)
                gv[...] = _edge_sums(p, go, adjoint=True)
                gs = _edge_scores(go, val, np.empty_like(p))
                gs -= (gs * p).sum(axis=-1, keepdims=True)   # softmax backward
                gs *= p
                gs *= scale
                gq[...] = _edge_sums(gs, k)
                gk[...] = _edge_sums(gs, q, adjoint=True)
            _accum(qkv, g)
        tape.record(back)
    return result


def _edge_scores(q, k, out):
    """Fill out (V, V, 2V) with the joint products of edge (i, j)'s row
    of q: out(i,j,m) = q(i,j).k(i,m) and out(i,j,V+m) = q(i,j).k(m,j)."""
    v = q.shape[0]
    np.matmul(q, k.transpose(0, 2, 1), out=out[:, :, :v])
    # the edges entering j, computed j-major
    np.matmul(q.transpose(1, 0, 2), k.transpose(1, 2, 0),
              out=out[:, :, v:].transpose(1, 0, 2))
    return out


def _edge_sums(w, x, adjoint=False):
    """Sum the per-edge rows x (V, V, d) under the joint weights w
    (V, V, 2V): out(i,j) = sum_m w(i,j,m) x(i,m) + w(i,j,V+m) x(m,j).
    adjoint gives the transposed map, whose (i,m) entry is
    sum_j w(i,j,m) x(i,j) + sum_j w(j,m,V+i) x(j,m)."""
    v = w.shape[0]
    src, tgt = w[:, :, :v], w[:, :, v:]
    if adjoint:
        return (np.matmul(src.transpose(0, 2, 1), x)
                + np.matmul(tgt.transpose(1, 2, 0),
                            x.transpose(1, 0, 2)).transpose(1, 0, 2))
    return (np.matmul(src, x)
            + np.matmul(tgt.transpose(1, 0, 2),
                        x.transpose(1, 0, 2)).transpose(1, 0, 2))


def params_init(rng, shape, fan):
    """Uniform(-1/sqrt(fan), 1/sqrt(fan)) initialization."""
    bound = 1.0 / np.sqrt(fan)
    return Tensor(rng.uniform(-bound, bound, size=shape))
