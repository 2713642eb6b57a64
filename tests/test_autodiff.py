import warnings

import numpy as np
import pytest

from edarp import Tape, Tensor
from edarp import autodiff as ad

ATOL, RTOL = 1e-7, 1e-4


def numeric_grad(build, tensors, i, h=1e-6):
    t = tensors[i]
    g = np.zeros_like(t.data)
    flat = t.data.ravel()
    gflat = g.ravel()
    for k in range(flat.size):
        old = flat[k]
        flat[k] = old + h
        lp = float(build(None, *tensors).data)
        flat[k] = old - h
        lm = float(build(None, *tensors).data)
        flat[k] = old
        gflat[k] = (lp - lm) / (2.0 * h)
    return g


def check_grads(build, tensors):
    for t in tensors:
        t.grad = None
    tape = Tape()
    loss = build(tape, *tensors)
    tape.backward(loss)
    for i, t in enumerate(tensors):
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        num = numeric_grad(build, tensors, i)
        tol = ATOL + RTOL * np.maximum(np.abs(num), np.abs(ana))
        assert np.all(np.abs(num - ana) <= tol), \
            f"input {i}: max err {np.abs(num - ana).max()}"


def test_gradcheck_add_broadcast(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((1, 4)))
    check_grads(lambda tp, a, b: ad.tsum(tp, ad.mul(tp, ad.add(tp, a, b),
                                                    ad.add(tp, a, b))),
                [a, b])


def test_gradcheck_mul_broadcast(rng):
    a = Tensor(rng.standard_normal((2, 3)))
    b = Tensor(rng.standard_normal((3,)))
    check_grads(lambda tp, a, b: ad.tsum(tp, ad.mul(tp, a, b)), [a, b])


def test_gradcheck_scale(rng):
    a = Tensor(rng.standard_normal((4,)))
    check_grads(lambda tp, a: ad.tsum(tp, ad.scale(tp, a, -2.5)), [a])


def test_gradcheck_matmul(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((4, 2)))
    check_grads(lambda tp, a, b: ad.tsum(tp, ad.tanh(tp, ad.matmul(tp, a, b))),
                [a, b])


def test_gradcheck_matmul_batched(rng):
    a = Tensor(rng.standard_normal((2, 3, 4)))
    b = Tensor(rng.standard_normal((4, 5)))
    check_grads(lambda tp, a, b: ad.tsum(tp, ad.matmul(tp, a, b)), [a, b])


@pytest.mark.parametrize("x_shape", [(3, 3, 4), (5, 4)])
def test_gradcheck_linear(rng, x_shape):
    x = Tensor(rng.standard_normal(x_shape))
    w = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal((3,)))
    check_grads(lambda tp, x, w, b: ad.tsum(tp, ad.tanh(tp, ad.linear(tp, x, w, b))),
                [x, w, b])


@pytest.mark.parametrize("x_shape, w_shape", [
    ((13, 13, 13), (13, 64)), ((6, 6, 64), (64, 1)), ((21, 21, 64), (64, 256)),
    ((21, 21, 256), (256, 64)), ((7, 64), (64, 64)),
])
def test_linear_forward_matches_matmul_then_add(rng, x_shape, w_shape):
    x = Tensor(rng.standard_normal(x_shape))
    w = Tensor(rng.standard_normal(w_shape))
    b = Tensor(rng.standard_normal(w_shape[-1:]))
    want = ad.add(None, ad.matmul(None, x, w), b).data
    assert ad.linear(None, x, w, b).data.tobytes() == want.tobytes()


def relu(tape, a):
    """The ReLU op between ffn's two dense layers, taped on its own."""
    return ad._op(tape, np.maximum(a.data, 0.0),
                  lambda g: ad._accum_owned(a, g * (a.data > 0.0)))


def ffn_params(rng, d, hid):
    return [Tensor(rng.standard_normal(s)) for s in ((d, hid), (hid,), (hid, d), (d,))]


def test_gradcheck_ffn(rng):
    x = Tensor(rng.standard_normal((2, 3, 4)))
    w1, b1, w2, b2 = ffn_params(rng, 4, 6)
    hid = x.data @ w1.data + b1.data
    assert (hid > 0).any() and (hid < 0).any()
    assert np.abs(hid).min() > 1e-4           # clear of the kink
    check_grads(lambda tp, *t: ad.tsum(tp, ad.tanh(tp, ad.ffn(tp, *t))),
                [x, w1, b1, w2, b2])


@pytest.mark.parametrize("x_shape", [(7, 7, 16), (5, 16)])
def test_ffn_matches_linear_relu_linear(rng, x_shape):
    # forward bit for bit; every gradient equal or within 1e-12
    x = rng.standard_normal(x_shape)
    params = ffn_params(rng, 16, 64)
    w = rng.standard_normal(x_shape)

    def composed(tp, x, w1, b1, w2, b2):
        return ad.linear(tp, relu(tp, ad.linear(tp, x, w1, b1)), w2, b2)

    runs = []
    for op in (ad.ffn, composed):
        leaves = [Tensor(x)] + [Tensor(t.data) for t in params]
        tape = Tape()
        out = op(tape, *leaves)
        assert op(None, *leaves).data.tobytes() == out.data.tobytes()
        tape.backward(ad.tsum(tape, ad.mul(tape, out, Tensor(w))))
        runs.append((out.data.tobytes(), [t.grad for t in leaves]))
    (fused, g_fused), (ref, g_ref) = runs
    assert fused == ref
    for gf, gr in zip(g_fused, g_ref):
        assert np.abs(gf - gr).max() <= 1e-12 * np.abs(gr).max()


def test_gradcheck_tanh_log(rng):
    a = Tensor(0.5 + rng.random((4, 2)))
    check_grads(lambda tp, a: ad.tsum(tp, ad.log(tp, a)), [a])
    b = Tensor(rng.standard_normal((6,)))
    check_grads(lambda tp, b: ad.tsum(tp, ad.tanh(tp, b)), [b])


def test_gradcheck_sum_mean_axes(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    check_grads(lambda tp, a: ad.tsum(tp, ad.mul(
        tp, ad.reshape(tp, ad.tsum(tp, a, axis=1), (3, 1)), a)), [a])
    b = Tensor(rng.standard_normal((2, 5)))
    check_grads(lambda tp, b: ad.tsum(tp, ad.mul(
        tp, ad.tmean(tp, b, axis=0), ad.tmean(tp, b, axis=0))), [b])


def test_gradcheck_reshape_transpose_concat_narrow_take(rng):
    a = Tensor(rng.standard_normal((2, 6)))
    check_grads(lambda tp, a: ad.tsum(tp, ad.mul(
        tp, ad.reshape(tp, a, (3, 4)), ad.reshape(tp, a, (3, 4)))), [a])
    b = Tensor(rng.standard_normal((2, 3, 4)))
    check_grads(lambda tp, b: ad.tsum(tp, ad.mul(
        tp, ad.transpose(tp, b, (1, 0, 2)), ad.transpose(tp, b, (1, 0, 2)))),
        [b])
    c = Tensor(rng.standard_normal((2, 3)))
    d = Tensor(rng.standard_normal((2, 2)))
    check_grads(lambda tp, c, d: ad.tsum(tp, ad.mul(
        tp, ad.concat(tp, [c, d], axis=1), ad.concat(tp, [c, d], axis=1))),
        [c, d])
    e = Tensor(rng.standard_normal((4, 3)))
    check_grads(lambda tp, e: ad.tsum(tp, ad.mul(
        tp, ad.take(tp, e, np.s_[1:3]), ad.take(tp, e, np.s_[1:3]))), [e])
    f = Tensor(rng.standard_normal((4, 3)))
    check_grads(lambda tp, f: ad.tsum(tp, ad.mul(
        tp, ad.take(tp, f, 2), ad.take(tp, f, 2))), [f])


def test_gradcheck_layer_norm(rng):
    x = Tensor(rng.standard_normal((3, 5)))
    gain = Tensor(0.5 + rng.random((5,)))
    bias = Tensor(rng.standard_normal((5,)))
    w = rng.standard_normal((3, 5))

    def build(tp, x, gain, bias):
        y = ad.layer_norm(tp, x, gain, bias)
        return ad.tsum(tp, ad.mul(tp, y, Tensor(w)))

    check_grads(build, [x, gain, bias])


def test_gradcheck_masked_softmax(rng):
    x = Tensor(rng.standard_normal((4, 6)))
    mask = rng.random((4, 6)) < 0.3
    mask[:, 0] = False              # keep a live entry per row
    w = rng.standard_normal((4, 6))

    def build(tp, x):
        p = ad.masked_softmax(tp, x, mask)
        return ad.tsum(tp, ad.mul(tp, p, Tensor(w)))

    check_grads(build, [x])


def dup_mask(v):
    """The encoder's joint mask: edge (i, j)'s second appearance blocked."""
    m = np.zeros((v, v, 2 * v), dtype=bool)
    for i in range(v):
        m[i, :, v + i] = True
    return m


def test_gradcheck_edge_attention(rng):
    v, heads, dk = 3, 2, 2
    qkv = Tensor(rng.standard_normal((v, v, 3 * heads * dk)))
    w = rng.standard_normal((v, v, heads * dk))

    def build(tp, qkv):
        out = ad.edge_attention(tp, qkv, heads)
        return ad.tsum(tp, ad.mul(tp, out, Tensor(w)))

    check_grads(build, [qkv])


def reference_edge_attention(tp, qkv, heads):
    """edge_attention as the per-head composition of taped ops it fused."""
    v = qkv.shape[0]
    mask = dup_mask(v)
    dk = qkv.shape[-1] // (3 * heads)
    outs = []
    for h in range(heads):
        q, k, vv = (ad.take(tp, qkv, np.s_[..., c + h * dk:c + (h + 1) * dk])
                    for c in range(0, 3 * heads * dk, heads * dk))
        src = ad.matmul(tp, q, ad.transpose(tp, k, (0, 2, 1)))
        qt = ad.transpose(tp, q, (1, 0, 2))
        kt = ad.transpose(tp, k, (1, 0, 2))
        tgt = ad.matmul(tp, qt, ad.transpose(tp, kt, (0, 2, 1)))
        tgt = ad.transpose(tp, tgt, (1, 0, 2))
        scores = ad.scale(tp, ad.concat(tp, [src, tgt], -1), 1.0 / np.sqrt(dk))
        attn = ad.masked_softmax(tp, scores, mask)
        out_src = ad.matmul(tp, ad.take(tp, attn, np.s_[..., :v]), vv)
        at = ad.transpose(tp, ad.take(tp, attn, np.s_[..., v:]), (1, 0, 2))
        vt = ad.transpose(tp, vv, (1, 0, 2))
        out_tgt = ad.transpose(tp, ad.matmul(tp, at, vt), (1, 0, 2))
        outs.append(ad.add(tp, out_src, out_tgt))
    return ad.concat(tp, outs, -1)


@pytest.mark.parametrize("v, heads, dk", [(5, 2, 3), (12, 4, 16)])
def test_edge_attention_matches_per_head_reference(rng, v, heads, dk):
    x = rng.standard_normal((v, v, 3 * heads * dk)) * 2.0
    w = Tensor(rng.standard_normal((v, v, heads * dk)))
    results = []
    for op in (ad.edge_attention, reference_edge_attention):
        qkv = Tensor(x)
        tape = Tape()
        out = op(tape, qkv, heads)
        tape.backward(ad.tsum(tape, ad.mul(tape, out, w)))
        assert op(None, Tensor(x), heads).data.tobytes() == out.data.tobytes()
        results.append((out.data.tobytes(), qkv.grad))
    (fused, g_fused), (ref, g_ref) = results
    assert fused == ref
    assert np.abs(g_fused - g_ref).max() <= 1e-12 * np.abs(g_ref).max()


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_edge_attention_blocks_match_one_block(rng, monkeypatch, rows):
    # BLOCK_BYTES sized for `rows` source rows per block splits a 7-node
    # graph into several blocks; outputs, taped and untaped, and input
    # gradients agree with one block to 1e-12
    v, heads, dk = 7, 2, 3
    x = rng.standard_normal((v, v, 3 * heads * dk)) * 2.0
    w = Tensor(rng.standard_normal((v, v, heads * dk)))
    results = []
    for block_bytes in (16 * v * v * rows, 16 * v * v * v):
        monkeypatch.setattr(ad, "BLOCK_BYTES", block_bytes)
        qkv = Tensor(x)
        tape = Tape()
        out = ad.edge_attention(tape, qkv, heads)
        tape.backward(ad.tsum(tape, ad.mul(tape, out, w)))
        results.append((out.data, ad.edge_attention(None, Tensor(x), heads).data,
                        qkv.grad))
    for got, want in zip(*results):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_edge_attention_single_node_graph(rng):
    # V = 1: the one live entry of each row is the edge itself, so each
    # head returns its value and no gradient reaches q or k
    heads, dk = 2, 3
    qkv = Tensor(rng.standard_normal((1, 1, 3 * heads * dk)))
    w = rng.standard_normal((1, 1, heads * dk))
    tape = Tape()
    out = ad.edge_attention(tape, qkv, heads)
    assert out.data.tobytes() == qkv.data[..., 2 * heads * dk:].tobytes()
    tape.backward(ad.tsum(tape, ad.mul(tape, out, Tensor(w))))
    assert np.all(qkv.grad[..., :2 * heads * dk] == 0.0)
    assert np.array_equal(qkv.grad[..., 2 * heads * dk:], w)


def test_edge_attention_rejects_bad_width(rng):
    with pytest.raises(ValueError):
        ad.edge_attention(None, Tensor(rng.standard_normal((2, 2, 10))), 2)


def test_gradcheck_composed_network(rng):
    # tiny version of the policy compute pattern: affine, norm,
    # nonlinearity, attention-style softmax, log-likelihood
    x = Tensor(rng.standard_normal((5, 8)))
    w1, b1, w2, b2 = (Tensor(t.data * 0.3) for t in ffn_params(rng, 8, 12))
    gain = Tensor(np.ones(8))
    bias = Tensor(np.zeros(8))
    w3 = Tensor(rng.standard_normal((8, 5)) * 0.3)
    mask = np.zeros((5, 5), dtype=bool)
    mask[:, 4] = True

    def build(tp, x, w1, b1, w2, b2, gain, bias, w3):
        h = ad.layer_norm(tp, ad.ffn(tp, x, w1, b1, w2, b2), gain, bias)
        u = ad.matmul(tp, h, w3)
        p = ad.masked_softmax(tp, u, mask)
        safe = ad.add(tp, p, Tensor(np.full(p.shape, 1e-9)))
        return ad.tsum(tp, ad.log(tp, ad.take(tp, safe, 2)))

    check_grads(build, [x, w1, b1, w2, b2, gain, bias, w3])


def test_masked_softmax_forward_contract(rng):
    x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    mask = np.array([[False, True, False, True]])
    p = ad.masked_softmax(None, x, mask).data
    assert p[0, 1] == 0.0 and p[0, 3] == 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)

    all_blocked = ad.masked_softmax(None, x, np.ones((1, 4), dtype=bool)).data
    assert np.all(all_blocked == 0.0)

    one_live = np.array([[True, True, False, True]])
    p1 = ad.masked_softmax(None, x, one_live).data
    assert p1[0, 2] == 1.0

    flat = ad.masked_softmax(None, Tensor(np.zeros((1, 5))),
                             np.zeros((1, 5), dtype=bool)).data
    assert np.allclose(flat, 0.2, atol=1e-15)


def test_masked_softmax_blocked_rows_are_zero_without_warnings(rng):
    # an all-blocked row and a non-finite row come out zero, the live
    # rows sum to one, and the division leaves no RuntimeWarning behind
    x = rng.standard_normal((4, 5))
    x[2, 3] = np.nan
    mask = np.zeros((4, 5), dtype=bool)
    mask[1] = True
    mask[3, :4] = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ad.masked_softmax(None, Tensor(x), mask).data
    assert np.all(p[[1, 2]] == 0.0)
    assert p[3].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert p[0].sum() == pytest.approx(1.0, abs=1e-15)


def reference_masked_softmax(x, mask):
    """The out-of-place formula masked_softmax replaced."""
    mask = np.broadcast_to(mask, x.shape)
    neg = np.where(mask, -np.inf, x)
    mx = neg.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    p = np.exp(neg - mx)
    p[mask] = 0.0
    tot = p.sum(axis=-1, keepdims=True)
    return np.divide(p, tot, out=np.zeros_like(p), where=tot > 0.0)


def test_masked_softmax_in_place_matches_reference(rng):
    v = 6
    dup = dup_mask(v)
    blocked_rows = rng.random((v, 2 * v)) < 0.5
    blocked_rows[[0, 3]] = True                   # every entry blocked
    cases = [(rng.standard_normal((v, v, 2 * v)) * 4.0, dup),
             (rng.standard_normal((v, 2 * v)) * 4.0, blocked_rows),
             (rng.standard_normal(2 * v), np.zeros(2 * v, dtype=bool))]
    for x, mask in cases:
        before = x.copy()
        got = ad.masked_softmax(None, Tensor(x), mask).data
        assert got.tobytes() == reference_masked_softmax(x, mask).tobytes()
        assert x.tobytes() == before.tobytes()    # input left untouched


def test_masked_softmax_shift_invariance(rng):
    x = rng.standard_normal((2, 5))
    mask = np.zeros((2, 5), dtype=bool)
    a = ad.masked_softmax(None, Tensor(x), mask).data
    b = ad.masked_softmax(None, Tensor(x + 1000.0), mask).data
    assert np.allclose(a, b, atol=1e-12)


def test_layer_norm_shift_invariance():
    # adding a constant to a row changes neither the output nor, in
    # aggregate, the input gradient: the row-sum of dL/dx is zero
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 6))
    gain = Tensor(0.5 + rng.random(6))
    bias = Tensor(rng.standard_normal(6))
    y1 = ad.layer_norm(None, Tensor(x), gain, bias).data
    y2 = ad.layer_norm(None, Tensor(x + 42.0), gain, bias).data
    assert np.allclose(y1, y2, atol=1e-9)

    xt = Tensor(x)
    tape = Tape()
    y = ad.layer_norm(tape, xt, gain, bias)
    w = Tensor(rng.standard_normal((2, 6)))
    tape.backward(ad.tsum(tape, ad.mul(tape, y, w)))
    assert np.allclose(xt.grad.sum(axis=-1), 0.0, atol=1e-9)

    # a constant row normalizes to exactly the bias
    const = ad.layer_norm(None, Tensor(np.full((1, 6), 3.7)), gain, bias).data
    assert np.allclose(const, bias.data, atol=1e-12)


def test_backward_rejects_non_scalar_and_non_finite():
    tape = Tape()
    v = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        tape.backward(v)
    bad = Tensor(np.array(np.inf))
    with pytest.raises(FloatingPointError):
        tape.backward(bad)
    nan = Tensor(np.array(np.nan))
    with pytest.raises(FloatingPointError):
        tape.backward(nan)


def test_gradcheck_take_repeated_rows_and_pairs(rng):
    # repeated indices must each add their gradient; a plain
    # `grad[idx] += g` keeps only the last write per row
    w = Tensor(rng.standard_normal((4, 3)))
    rows = np.array([2, 0, 2, 2, 3])
    check_grads(lambda tp, w: ad.tsum(tp, ad.tanh(
        tp, ad.take(tp, w, rows))), [w])
    pairs = (np.array([0, 1, 1, 3]), [2, 0, 0, 2])
    check_grads(lambda tp, w: ad.tsum(tp, ad.tanh(
        tp, ad.take(tp, w, pairs))), [w])
    w.grad = None
    tape = Tape()
    tape.backward(ad.tsum(tape, ad.take(tape, w, rows)))
    assert w.grad[:, 0].tolist() == [1.0, 0.0, 3.0, 1.0]


def test_first_gradient_is_a_fresh_array(rng):
    # the first _accum stores g + 0.0: a copy, with -0.0 read as 0.0
    # just as zeros + g would give
    a = Tensor(rng.standard_normal((3,)))
    tape = Tape()
    out = ad.reshape(tape, a, (3,))
    tape.backward(ad.tsum(tape, ad.scale(tape, out, -0.0)))
    assert not np.shares_memory(a.grad, out.grad)
    assert np.signbit(a.grad).tolist() == [False] * 3


def _add_twice(tp, a, w, b):
    return ad.tsum(tp, ad.tanh(tp, ad.add(tp, a, a)))


def _linear_beside_residual(tp, a, w, b):
    return ad.tsum(tp, ad.tanh(tp, ad.add(tp, a, ad.linear(tp, a, w, b))))


def _ffn_used_twice(tp, a, w, b):
    r = ad.ffn(tp, a, w, b, w, b)
    return ad.tsum(tp, ad.mul(tp, r, ad.tanh(tp, ad.matmul(tp, r, w))))


@pytest.mark.parametrize("build", [_add_twice, _linear_beside_residual,
                                   _ffn_used_twice])
def test_owned_first_gradients_share_no_memory(rng, monkeypatch, build):
    # rules hand over the arrays they have just made without a copy; no
    # grad may then alias another, and every gradient must equal, bit for
    # bit, the one from a tape that copies every first gradient
    data = [rng.standard_normal((2, 3, 3)), rng.standard_normal((3, 3)),
            rng.standard_normal((3,))]

    def run():
        leaves = [Tensor(d) for d in data]
        tape = Tape()
        tape.backward(build(tape, *leaves))
        return leaves + [out for out, _ in tape._ops]

    tensors = run()
    grads = [t.grad for t in tensors if t.grad is not None]
    assert len(grads) >= 4
    for i, g in enumerate(grads):
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)
    monkeypatch.setattr(ad, "_accum_owned", ad._accum)
    ref = [t.grad for t in run() if t.grad is not None]
    assert len(ref) == len(grads)
    for g, r in zip(grads, ref):
        assert np.array_equal(g, r)


def test_grad_accumulates_across_uses(rng):
    a = Tensor(rng.standard_normal((4,)))
    tape = Tape()
    loss = ad.add(tape, ad.tsum(tape, ad.mul(tape, a, a)), ad.tsum(tape, a))
    tape.backward(loss)
    assert np.allclose(a.grad, 2.0 * a.data + 1.0, atol=1e-12)


def test_backward_skips_ops_no_gradient_reaches(rng):
    # Tape.backward runs a rule only once a gradient has reached its
    # output: dead ops leave their inputs' grads at None, a dead op that
    # feeds another dead op included, and the live branch's gradients are
    # those of a tape that never held the dead ops
    x, w = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    cd = rng.standard_normal((3, 2))

    def never(g):
        raise AssertionError("the rule of an output no gradient reached ran")

    grads = []
    for with_dead in (False, True):
        a, b, c = Tensor(x), Tensor(w), Tensor(cd)
        tape = Tape()
        h = ad.matmul(tape, a, b)
        if with_dead:
            tape.record(Tensor(np.zeros(2)), never)
            feeder = ad.mul(tape, c, Tensor(cd))
            dead = ad.tanh(tape, ad.add(tape, feeder, h))
        tape.backward(ad.tsum(tape, ad.mul(tape, h, h)))
        grads.append((a.grad.tobytes(), b.grad.tobytes()))
    assert grads[0] == grads[1]
    assert c.grad is None and feeder.grad is None and dead.grad is None


def test_inference_mode_records_nothing(rng):
    a = Tensor(rng.standard_normal((3, 3)))
    out = ad.tanh(None, ad.matmul(None, a, a))
    assert out.grad is None and a.grad is None


def test_params_init_bounds_and_determinism():
    r1 = np.random.default_rng(42)
    r2 = np.random.default_rng(42)
    p1 = ad.params_init(r1, (50, 20), 20)
    p2 = ad.params_init(r2, (50, 20), 20)
    bound = 1.0 / np.sqrt(20)
    assert p1.shape == (50, 20)
    assert np.all(np.abs(p1.data) <= bound)
    assert np.array_equal(p1.data, p2.data)
    assert p1.data.std() > 0.1 * bound
