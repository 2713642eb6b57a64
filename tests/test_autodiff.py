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
        t.zero_grad()
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


def test_gradcheck_relu(rng):
    x = rng.standard_normal((5, 3))
    x[np.abs(x) < 0.1] += 0.2      # keep clear of the kink
    a = Tensor(x)
    check_grads(lambda tp, a: ad.tsum(tp, ad.mul(tp, ad.relu(tp, a),
                                                 ad.relu(tp, a))), [a])


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
        tp, ad.narrow(tp, e, 0, 1, 2), ad.narrow(tp, e, 0, 1, 2))), [e])
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


def test_gradcheck_composed_network(rng):
    # tiny version of the policy compute pattern: affine, norm,
    # nonlinearity, attention-style softmax, log-likelihood
    x = Tensor(rng.standard_normal((5, 8)))
    w1 = Tensor(rng.standard_normal((8, 8)) * 0.3)
    gain = Tensor(np.ones(8))
    bias = Tensor(np.zeros(8))
    w2 = Tensor(rng.standard_normal((8, 5)) * 0.3)
    mask = np.zeros((5, 5), dtype=bool)
    mask[:, 4] = True

    def build(tp, x, w1, gain, bias, w2):
        h = ad.layer_norm(tp, ad.relu(tp, ad.matmul(tp, x, w1)), gain, bias)
        u = ad.matmul(tp, h, w2)
        p = ad.masked_softmax(tp, u, mask)
        safe = ad.add(tp, p, Tensor(np.full(p.shape, 1e-9)))
        return ad.tsum(tp, ad.log(tp, ad.take(tp, safe, 2)))

    check_grads(build, [x, w1, gain, bias, w2])


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


def test_grad_accumulates_across_uses(rng):
    a = Tensor(rng.standard_normal((4,)))
    tape = Tape()
    loss = ad.add(tape, ad.tsum(tape, ad.mul(tape, a, a)), ad.tsum(tape, a))
    tape.backward(loss)
    assert np.allclose(a.grad, 2.0 * a.data + 1.0, atol=1e-12)


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
