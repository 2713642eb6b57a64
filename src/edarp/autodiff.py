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

    def zero_grad(self):
        self.grad = None


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
        t.grad = np.zeros_like(t.data)
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
            gb = np.matmul(np.swapaxes(a.data, -1, -2), out.grad)
            _accum(a, _unbroadcast(ga, a.data.shape))
            _accum(b, _unbroadcast(gb, b.data.shape))
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
    """Pick one slice along the first axis."""
    out = Tensor(a.data[idx])
    if tape is not None:
        def back():
            if out.grad is None:
                return
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += out.grad
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
    mask = np.broadcast_to(mask, x.data.shape)
    neg = np.where(mask, -np.inf, x.data)
    mx = neg.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    p = np.exp(neg - mx)
    p[mask] = 0.0
    tot = p.sum(axis=-1, keepdims=True)
    p = np.divide(p, tot, out=np.zeros_like(p), where=tot > 0.0)
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


def params_init(rng, shape, fan):
    """Uniform(-1/sqrt(fan), 1/sqrt(fan)) initialization."""
    bound = 1.0 / np.sqrt(fan)
    return Tensor(rng.uniform(-bound, bound, size=shape))
