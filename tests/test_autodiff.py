"""Operator-level tests: value oracles and finite-difference gradients."""

import numpy as np
import pytest

from maskac import autodiff as ad
from maskac.autodiff import Tensor

from oracles import conv2d_oracle, matvec_oracle, pick


def t64(a, rg=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# conv2d

def test_conv2d_identity_kernel():
    x = t64(np.arange(9.0).reshape(1, 3, 3))
    k = t64(np.ones((1, 1, 1, 1)))
    b = t64(np.zeros(1))
    y = ad.conv2d(x, k, b, stride=1, padding=0)
    np.testing.assert_array_equal(y.data, x.data)


def test_conv2d_zero_input_gives_bias():
    rng = np.random.default_rng(1)
    x = t64(np.zeros((2, 5, 5)))
    k = t64(rng.normal(size=(3, 2, 3, 3)))
    b = t64([0.5, -1.25, 2.0])
    y = ad.conv2d(x, k, b, stride=1, padding=0)
    for c, bias in enumerate([0.5, -1.25, 2.0]):
        np.testing.assert_array_equal(y.data[c], np.full((3, 3), bias))


def test_conv2d_strided_padded_matches_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    y = ad.conv2d(t64(x), t64(k), t64(b), stride=2, padding=1)
    expected = conv2d_oracle(x, k, b, stride=2, padding=1)
    assert y.data.shape == (3, 3, 3)
    np.testing.assert_allclose(y.data, expected, atol=1e-10, rtol=0)


def test_conv2d_exhaustive_small_shapes():
    rng = np.random.default_rng(3)
    for kh in (1, 2, 3):
        for h in range(kh, 9):
            for w_ in range(kh, 9):
                for stride in (1, 2):
                    for padding in (0, 1):
                        x = rng.normal(size=(2, h, w_))
                        k = rng.normal(size=(3, 2, kh, kh))
                        b = rng.normal(size=3)
                        y = ad.conv2d(t64(x), t64(k), t64(b), stride=stride, padding=padding)
                        expected = conv2d_oracle(x, k, b, stride, padding)
                        np.testing.assert_allclose(y.data, expected, atol=1e-10, rtol=0)


def test_conv2d_errors():
    x = t64(np.zeros((2, 4, 4)))
    k = t64(np.zeros((3, 1, 3, 3)))  # wrong C_in
    b = t64(np.zeros(3))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, k, b)
    k_ok = t64(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ValueError):
        ad.conv2d(x, k_ok, b, stride=0)
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, t64(np.zeros((3, 2, 9, 9))), b)  # kernel larger than padded input


def test_conv2d_batch_equals_per_sample_loop():
    rng = np.random.default_rng(30)
    for c_in, hw, stride, padding in ((1, 7, 2, 1), (3, 5, 1, 1), (2, 6, 2, 0), (4, 3, 1, 0)):
        x = rng.normal(size=(3, c_in, hw, hw))
        k = rng.normal(size=(5, c_in, 3, 3))
        b = rng.normal(size=5)
        xb, kb, bb = t64(x, rg=True), t64(k, rg=True), t64(b, rg=True)
        yb = ad.conv2d(xb, kb, bb, stride=stride, padding=padding)
        r = rng.normal(size=yb.shape)
        ad.backward(ad.sum_all(ad.mul(yb, t64(r))))
        xs, ks, bs = [t64(xi, rg=True) for xi in x], t64(k, rg=True), t64(b, rg=True)
        for n in range(3):
            y = ad.conv2d(xs[n], ks, bs, stride=stride, padding=padding)
            np.testing.assert_allclose(yb.data[n], y.data, rtol=0, atol=1e-12)
            ad.backward(ad.sum_all(ad.mul(y, t64(r[n]))))
            np.testing.assert_allclose(xb.grad[n], xs[n].grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kb.grad, ks.grad, rtol=0, atol=1e-11)
        np.testing.assert_allclose(bb.grad, bs.grad, rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# dense

def test_dense_identity_and_zero():
    x = t64([1.0, -2.0, 3.0])
    w = t64(np.eye(3))
    b = t64(np.zeros(3))
    np.testing.assert_array_equal(ad.dense(x, w, b).data, x.data)
    np.testing.assert_array_equal(
        ad.dense(t64(np.zeros(3)), t64(np.eye(3)), t64([1.0, 2.0, 3.0])).data,
        [1.0, 2.0, 3.0])


def test_dense_matches_matvec_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=7)
    w = rng.normal(size=(4, 7))
    b = rng.normal(size=4)
    y = ad.dense(t64(x), t64(w), t64(b))
    np.testing.assert_allclose(y.data, matvec_oracle(x, w, b), atol=1e-12, rtol=0)


def test_dense_shape_error():
    with pytest.raises(ad.ShapeError):
        ad.dense(t64(np.zeros(3)), t64(np.zeros((4, 5))), t64(np.zeros(4)))


# ---------------------------------------------------------------------------
# elementwise

def test_sigmoid_at_zero():
    assert ad.sigmoid(t64([0.0])).data[0] == 0.5


def test_sigmoid_strictly_inside_unit_interval():
    rng = np.random.default_rng(5)
    x = rng.uniform(-30, 30, size=1000)
    y = ad.sigmoid(t64(x)).data
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_relu_zeroes_negatives():
    y = ad.relu(t64([-2.0, -0.5, 0.0, 0.5, 2.0])).data
    np.testing.assert_array_equal(y, [0.0, 0.0, 0.0, 0.5, 2.0])


def test_broadcast_mul_channelwise():
    f = t64(np.ones((3, 2, 2)))
    m = t64(np.full((1, 2, 2), 0.25))
    np.testing.assert_array_equal(ad.broadcast_mul_channelwise(f, m).data,
                                  np.full((3, 2, 2), 0.25))
    with pytest.raises(ad.ShapeError):
        ad.broadcast_mul_channelwise(f, t64(np.ones((1, 3, 3))))


def test_add_mul_shape_errors():
    with pytest.raises(ad.ShapeError):
        ad.add(t64(np.zeros(3)), t64(np.zeros(4)))
    with pytest.raises(ad.ShapeError):
        ad.mul(t64(np.zeros((2, 2))), t64(np.zeros(4)))


def test_one_minus_is_an_exact_involution():
    rng = np.random.default_rng(6)
    m = t64(rng.uniform(0.0, 1.0, size=(1, 5, 5)))
    twice = ad.one_minus(ad.one_minus(m))
    assert np.array_equal(twice.data, m.data)
    # simple values behave as plain subtraction
    np.testing.assert_array_equal(ad.one_minus(t64([0.0, 1.0, 0.3])).data, [1.0, 0.0, 0.7])


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform_and_stability():
    np.testing.assert_allclose(ad.softmax(t64([0.0, 0.0, 0.0])).data, np.full(3, 1 / 3),
                               atol=1e-15, rtol=0)
    y = ad.softmax(t64([1000.0, 0.0])).data
    assert np.all(np.isfinite(y))
    assert y[0] > 1 - 1e-12 and y[1] < 1e-12


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(7)
    x = rng.normal(size=6)
    expected = np.exp(x) / np.exp(x).sum()
    np.testing.assert_allclose(ad.softmax(t64(x)).data, expected, atol=1e-12, rtol=0)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.normal(scale=5.0, size=rng.integers(1, 9))
        y = ad.softmax(t64(x)).data
        assert np.all(y > 0)
        assert abs(y.sum() - 1.0) <= 1e-12
        y_shift = ad.softmax(t64(x + 7.5)).data
        np.testing.assert_allclose(y, y_shift, atol=1e-12, rtol=0)


def test_softmax_empty_rejected():
    with pytest.raises(ad.ShapeError):
        ad.softmax(t64(np.zeros(0)))


def test_log_softmax_consistent_with_softmax():
    rng = np.random.default_rng(9)
    x = rng.normal(size=5)
    np.testing.assert_allclose(np.exp(ad.log_softmax(t64(x)).data),
                               ad.softmax(t64(x)).data, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# backward mechanics

def test_backward_sum_gives_ones():
    x = t64(np.arange(6.0).reshape(2, 3), rg=True)
    ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares_gives_2x():
    x = t64([1.0, -2.0, 3.0], rg=True)
    ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)


def test_grads_accumulate_until_zeroed():
    x = t64([1.0, 2.0], rg=True)
    ad.backward(ad.sum_all(x))
    ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 1.0 + 2 * x.data, atol=1e-12)
    ad.zero_grads([x])
    assert x.grad is None


def test_backward_rejects_non_scalar_and_reuse():
    x = t64([1.0, 2.0], rg=True)
    y = ad.mul(x, x)
    with pytest.raises(ad.GraphError):
        ad.backward(y)
    loss = ad.sum_all(y)
    ad.backward(loss)
    with pytest.raises(ad.GraphError):
        ad.backward(loss)


def test_backward_rejects_graph_sharing_a_consumed_node():
    # interior nodes release their closures once traversed, so a second
    # loss built on them must fail loudly instead of dropping gradient
    x = t64([1.0, 2.0], rg=True)
    y = ad.mul(x, x)
    ad.backward(ad.sum_all(y))
    with pytest.raises(ad.GraphError):
        ad.backward(ad.sum_all(y))
    ad.backward(ad.sum_all(ad.mul(x, x)))      # a fresh graph on the same leaf is fine
    np.testing.assert_allclose(x.grad, 4 * x.data, atol=1e-12)


# ---------------------------------------------------------------------------
# gradient checks: every operator against central finite differences

def _check(f, params, tol=1e-4, n=120, eps=1e-5):
    err = ad.grad_check(f, params, eps=eps, n_samples=n, rng=np.random.default_rng(0))
    assert err < tol, f"finite-difference mismatch: {err}"


def test_grad_check_quadratic_is_exact():
    rng = np.random.default_rng(10)
    params = {"x": t64(rng.normal(size=12))}
    _check(lambda p: ad.sum_all(ad.mul(p["x"], p["x"])), params, tol=1e-8)


def test_grad_check_dense_sigmoid_composite():
    rng = np.random.default_rng(11)
    params = {
        "x": t64(rng.normal(size=7)),
        "w": t64(rng.normal(size=(4, 7))),
        "b": t64(rng.normal(size=4)),
    }
    _check(lambda p: ad.sum_all(ad.sigmoid(ad.dense(p["x"], p["w"], p["b"]))), params, tol=1e-5)


def test_grad_conv2d():
    rng = np.random.default_rng(12)
    params = {
        "x": t64(rng.normal(size=(2, 6, 6))),
        "k": t64(rng.normal(size=(3, 2, 3, 3))),
        "b": t64(rng.normal(size=3)),
    }
    c = t64(np.asarray(np.random.default_rng(0).normal(size=(3, 3, 3))))
    _check(lambda p: ad.sum_all(ad.mul(ad.conv2d(p["x"], p["k"], p["b"], stride=2, padding=1), c)),
           params)


def test_grad_convlstm_sequence_extended_precision():
    # the hand-written BPTT against central differences; grads must stay
    # in the working dtype (col2im accumulates without a float64 downcast)
    rng = np.random.default_rng(31)
    n_steps, c_in, hidden, hw = 4, 2, 2, 3
    ld = np.longdouble
    params = {
        "x": Tensor(rng.normal(size=(n_steps, c_in, hw, hw)).astype(ld)),
        "k": Tensor(rng.normal(scale=0.5, size=(4 * hidden, c_in + hidden, 3, 3)).astype(ld)),
        "b": Tensor(rng.normal(scale=0.5, size=4 * hidden).astype(ld)),
    }
    h0 = rng.normal(size=(hidden, hw, hw)).astype(ld)
    c0 = rng.normal(size=(hidden, hw, hw)).astype(ld)
    r = Tensor(rng.normal(size=(n_steps, hidden, hw, hw)).astype(ld))
    f = lambda p: ad.sum_all(ad.mul(ad.convlstm(p["x"], p["k"], p["b"], h0, c0), r))
    err = ad.grad_check(f, params, eps=1e-6, n_samples=150, rng=np.random.default_rng(0))
    assert err < 1e-4, err
    assert all(t.grad.dtype == ld for t in params.values())


def test_grad_conv2d_batch_keeps_extended_precision():
    rng = np.random.default_rng(32)
    ld = np.longdouble
    params = {
        "x": Tensor(rng.normal(size=(2, 2, 5, 5)).astype(ld)),
        "k": Tensor(rng.normal(size=(3, 2, 3, 3)).astype(ld)),
        "b": Tensor(rng.normal(size=3).astype(ld)),
    }
    c = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(ld))
    err = ad.grad_check(
        lambda p: ad.sum_all(ad.mul(ad.conv2d(p["x"], p["k"], p["b"], stride=2, padding=1), c)),
        params, eps=1e-6, n_samples=120, rng=np.random.default_rng(0))
    assert err < 1e-4, err
    assert all(t.grad.dtype == ld for t in params.values())


def test_grad_batched_dense_softmax_and_mask():
    rng = np.random.default_rng(33)
    params = {"x": t64(rng.normal(size=(4, 7))), "w": t64(rng.normal(size=(3, 7))),
              "b": t64(rng.normal(size=3))}
    c = t64(rng.normal(size=(4, 3)))
    for op in (ad.softmax, ad.log_softmax):
        _check(lambda p: ad.sum_all(ad.mul(op(ad.dense(p["x"], p["w"], p["b"])), c)), params)
    mask_params = {"f": t64(rng.normal(size=(2, 4, 3, 3))),
                   "m": t64(rng.uniform(0.1, 0.9, size=(2, 1, 3, 3)))}
    c4 = t64(rng.normal(size=(2, 4, 3, 3)))
    _check(lambda p: ad.sum_all(ad.mul(ad.broadcast_mul_channelwise(p["f"], p["m"]), c4)),
           mask_params)


def test_grad_elementwise_family():
    rng = np.random.default_rng(13)
    c = t64(rng.normal(size=10))

    params = {"x": t64(rng.normal(size=10))}
    _check(lambda p: ad.sum_all(ad.mul(ad.sigmoid(p["x"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(ad.tanh(p["x"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(ad.relu(p["x"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(ad.neg(p["x"]), c)), params)

    two = {"a": t64(rng.normal(size=10)), "b": t64(rng.normal(size=10))}
    _check(lambda p: ad.sum_all(ad.mul(ad.add(p["a"], p["b"]), c)), two)
    _check(lambda p: ad.sum_all(ad.mul(ad.mul(p["a"], p["b"]), c)), two)


def test_grad_broadcast_mul_and_invert():
    rng = np.random.default_rng(14)
    c = t64(rng.normal(size=(4, 3, 3)))
    params = {
        "f": t64(rng.normal(size=(4, 3, 3))),
        "m": t64(rng.uniform(0.1, 0.9, size=(1, 3, 3))),
    }
    _check(lambda p: ad.sum_all(ad.mul(ad.broadcast_mul_channelwise(p["f"], p["m"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(
        ad.broadcast_mul_channelwise(p["f"], ad.one_minus(p["m"])), c)), params)


def test_grad_softmax_family():
    rng = np.random.default_rng(15)
    c = t64(rng.normal(size=6))
    params = {"x": t64(rng.normal(size=6))}
    _check(lambda p: ad.sum_all(ad.mul(ad.softmax(p["x"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(ad.log_softmax(p["x"]), c)), params)
    _check(lambda p: pick(ad.log_softmax(p["x"]), 2), params)


def test_grad_structural_ops():
    rng = np.random.default_rng(16)
    for batch in ((), (3,)):
        c = t64(rng.normal(size=batch + (5, 2, 2)))
        params = {"a": t64(rng.normal(size=batch + (3, 2, 2))),
                  "b": t64(rng.normal(size=batch + (2, 2, 2)))}
        _check(lambda p: ad.sum_all(ad.mul(ad.concat_channels(p["a"], p["b"]), c)), params)
        c2 = t64(rng.normal(size=batch + (2, 2, 2)))
        _check(lambda p: ad.sum_all(ad.mul(ad.slice_channels(p["a"], 1, 3), c2)), params)
        n = params["a"].data.size
        c3 = t64(rng.normal(size=n))
        _check(lambda p: ad.sum_all(ad.mul(ad.reshape(p["a"], (n,)), c3)), params)


def test_batched_structural_ops_match_per_sample():
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(3, 4, 2, 2)), rng.normal(size=(3, 1, 2, 2))
    cat = ad.concat_channels(t64(a), t64(b)).data
    sl = ad.slice_channels(t64(a), 1, 3).data
    for i in range(3):
        np.testing.assert_array_equal(cat[i], ad.concat_channels(t64(a[i]), t64(b[i])).data)
        np.testing.assert_array_equal(sl[i], ad.slice_channels(t64(a[i]), 1, 3).data)
    with pytest.raises(ad.ShapeError):
        ad.concat_channels(t64(a), t64(b[:2]))          # batch sizes differ
    with pytest.raises(ad.ShapeError):
        ad.concat_channels(t64(a), t64(b[0]))           # batched with unbatched
    with pytest.raises(ad.ShapeError):
        ad.slice_channels(t64(a), 2, 5)
