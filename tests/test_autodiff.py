"""Operator-level tests: value oracles and finite-difference gradients."""

import numpy as np
import pytest

from maskac import autodiff as ad
from maskac.autodiff import Tensor

import oracles
from oracles import (batch_sizes, conv2d_oracle, convlstm_oracle, grad_check, hwio,
                     matvec_oracle, nchw, nhwc, oihw, packed_rows, pick, zero_grads)


def t64(a, rg=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# conv2d: channel-last maps [N, H, W, C] and HWIO kernels; the oracles are
# channel-first, so the tests draw channel-first data and convert

def test_conv2d_identity_kernel():
    x = t64(np.arange(9.0).reshape(1, 3, 3, 1))
    k = t64(np.ones((1, 1, 1, 1)))
    b = t64(np.zeros(1))
    y = ad.conv2d(x, k, b, stride=1, padding=0)
    np.testing.assert_array_equal(y.data, x.data)


def test_conv2d_zero_input_gives_bias():
    rng = np.random.default_rng(1)
    x = t64(np.zeros((1, 5, 5, 2)))
    k = t64(hwio(rng.normal(size=(3, 2, 3, 3))))
    b = t64([0.5, -1.25, 2.0])
    y = ad.conv2d(x, k, b, stride=1, padding=0)
    for c, bias in enumerate([0.5, -1.25, 2.0]):
        np.testing.assert_array_equal(y.data[..., c], np.full((1, 3, 3), bias))


def test_conv2d_strided_padded_matches_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    y = ad.conv2d(t64(nhwc(x)[None]), t64(hwio(k)), t64(b), stride=2, padding=1)
    expected = conv2d_oracle(x, k, b, stride=2, padding=1)
    assert y.data.shape == (1, 3, 3, 3)
    np.testing.assert_allclose(nchw(y.data[0]), expected, atol=1e-10, rtol=0)


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
                        y = ad.conv2d(t64(nhwc(x)[None]), t64(hwio(k)), t64(b), stride=stride,
                                      padding=padding)
                        expected = conv2d_oracle(x, k, b, stride, padding)
                        np.testing.assert_allclose(nchw(y.data[0]), expected, atol=1e-10, rtol=0)


# every batch on each small map; on a 1x1 or 2x3 map whole taps read only
# padding, and the input gradient skips them.  11 frames of a 20x20 map make
# 396 to 6,336 patch rows: full blocks of the kernel gradient's sum and a
# ragged tail
BATCH_IDS = {None: "unbatched", 1: "N=1", 3: "N=3"}
CONV_MAPS = [pytest.param(hw, batch, id=f"{hw[0]}x{hw[1]}-{BATCH_IDS[batch]}")
             for batch in BATCH_IDS for hw in ((5, 5), (4, 7), (1, 1), (2, 3))]
CONV_MAPS.append(pytest.param((20, 20), 11, id="20x20-N=11"))


@pytest.mark.parametrize("hw, batch", CONV_MAPS)
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv2d_matches_the_channel_first_gather_reference(stride, padding, kernel, hw, batch):
    # the output and the x, k and b gradients against the channel-first
    # gather convolution the engine ran before, through explicit layout
    # conversions of the inputs, the loss weights and the results; in the
    # unbatched cases the reference runs on one [C,H,W] map and the engine
    # on the same map as a batch of one row
    if kernel > min(hw) + 2 * padding:
        pytest.skip("kernel larger than the padded map")
    rng = np.random.default_rng([stride, padding, kernel, hw[1], batch or 0])
    x = rng.normal(size=(batch or 1, 3) + hw)
    k = rng.normal(size=(4, 3, kernel, kernel))
    b = rng.normal(size=4)
    r = rng.normal(size=(batch or 1, 4) + tuple((n + 2 * padding - kernel) // stride + 1
                                                for n in hw))
    as_ref = (lambda a: a[0]) if batch is None else (lambda a: a)

    def run(conv, x_, k_, r_):
        p = [t64(x_, rg=True), t64(k_, rg=True), t64(b, rg=True)]
        y = conv(*p, stride=stride, padding=padding)
        ad.backward(ad.sum_all(ad.mul(y, t64(r_))))
        return y.data, [t.grad for t in p]

    y, (gx, gk, gb) = run(ad.conv2d, nhwc(x), hwio(k), nhwc(r))
    y_ref, (gx_ref, gk_ref, gb_ref) = run(oracles.conv2d_nchw, as_ref(x), k, as_ref(r))
    for got, want in ((as_ref(nchw(y)), y_ref), (as_ref(nchw(gx)), gx_ref), (oihw(gk), gk_ref),
                      (gb, gb_ref)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_conv2d_errors():
    x = t64(np.zeros((1, 4, 4, 2)))
    k = t64(np.zeros((3, 3, 1, 3)))  # wrong C_in
    b = t64(np.zeros(3))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, k, b)
    k_ok = t64(np.zeros((3, 3, 2, 3)))
    with pytest.raises(ValueError):
        ad.conv2d(x, k_ok, b, stride=0)
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, t64(np.zeros((9, 9, 2, 3))), b)  # kernel larger than padded input
    with pytest.raises(ValueError):
        ad.conv2d(x, k_ok, b, padding=-1)
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, k_ok, t64(np.zeros(2)))


def test_conv2d_batch_equals_per_sample_loop():
    rng = np.random.default_rng(30)
    for c_in, hw, stride, padding in ((1, 7, 2, 1), (3, 5, 1, 1), (2, 6, 2, 0), (4, 3, 1, 0)):
        x = nhwc(rng.normal(size=(3, c_in, hw, hw)))
        k = hwio(rng.normal(size=(5, c_in, 3, 3)))
        b = rng.normal(size=5)
        xb, kb, bb = t64(x, rg=True), t64(k, rg=True), t64(b, rg=True)
        yb = ad.conv2d(xb, kb, bb, stride=stride, padding=padding)
        r = rng.normal(size=yb.shape)
        ad.backward(ad.sum_all(ad.mul(yb, t64(r))))
        xs, ks, bs = [t64(xi[None], rg=True) for xi in x], t64(k, rg=True), t64(b, rg=True)
        for n in range(3):
            y = ad.conv2d(xs[n], ks, bs, stride=stride, padding=padding)
            np.testing.assert_allclose(yb.data[n:n + 1], y.data, rtol=0, atol=1e-12)
            ad.backward(ad.sum_all(ad.mul(y, t64(r[n:n + 1]))))
            np.testing.assert_allclose(xb.grad[n:n + 1], xs[n].grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kb.grad, ks.grad, rtol=0, atol=1e-11)
        np.testing.assert_allclose(bb.grad, bs.grad, rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# dense

def test_dense_identity_and_zero():
    x = t64([[1.0, -2.0, 3.0]])
    w = t64(np.eye(3))
    b = t64(np.zeros(3))
    np.testing.assert_array_equal(ad.dense(x, w, b).data, x.data)
    np.testing.assert_array_equal(
        ad.dense(t64(np.zeros((1, 3))), t64(np.eye(3)), t64([1.0, 2.0, 3.0])).data,
        [[1.0, 2.0, 3.0]])


def test_dense_matches_matvec_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=7)
    w = rng.normal(size=(4, 7))
    b = rng.normal(size=4)
    y = ad.dense(t64(x[None]), t64(w), t64(b))
    np.testing.assert_allclose(y.data[0], matvec_oracle(x, w, b), atol=1e-12, rtol=0)


def test_dense_shape_error():
    with pytest.raises(ad.ShapeError):
        ad.dense(t64(np.zeros((1, 3))), t64(np.zeros((4, 5))), t64(np.zeros(4)))
    with pytest.raises(ad.ShapeError):
        ad.dense(t64(np.zeros((1, 2, 2, 3))), t64(np.zeros((4, 8))), t64(np.zeros(4)))
    with pytest.raises(ad.ShapeError):
        ad.dense(t64(np.zeros(3)), t64(np.zeros((4, 3))), t64(np.zeros(4)))
    with pytest.raises(ad.ShapeError):
        ad.dense(t64(np.zeros((1, 3))), t64(np.zeros((4, 3))), t64(np.zeros(3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_over_a_map_equals_dense_over_its_flat_rows(dtype):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 3, 3, 4)).astype(dtype)
    w = Tensor(rng.normal(size=(6, 36)).astype(dtype), requires_grad=True)
    b = Tensor(rng.normal(size=6).astype(dtype), requires_grad=True)
    c = rng.normal(size=(5, 6)).astype(dtype)
    outs, grads = [], []
    for rows in (x, x.reshape(5, -1)):
        xt = Tensor(rows, requires_grad=True)
        y = ad.dense(xt, w, b)
        ad.backward(ad.sum_all(ad.mul(y, c)))
        outs.append(y.data)
        grads.append((xt.grad.reshape(5, -1), w.grad, b.grad))
        w.grad = b.grad = None
    np.testing.assert_array_equal(outs[0], outs[1])
    for g_map, g_flat in zip(*grads):
        np.testing.assert_array_equal(g_map, g_flat)


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
    # mul repeats a [N,H,W,1] mask over the channels; its output and both
    # gradients are the plain numpy products and the channel sum, bit for bit
    rng = np.random.default_rng(6)
    f = t64(rng.normal(size=(2, 3, 3, 4)), rg=True)
    m = t64(rng.uniform(size=(2, 3, 3, 1)), rg=True)
    g = rng.normal(size=f.shape)
    out = ad.mul(f, m)
    np.testing.assert_array_equal(out.data, f.data * m.data)
    ad.backward(ad.sum_all(ad.mul(out, t64(g))))
    np.testing.assert_array_equal(f.grad, g * m.data)
    np.testing.assert_array_equal(m.grad, (g * f.data).sum(axis=-1, keepdims=True))
    for a, b in [((1, 3, 3, 1), (1, 3, 3, 2)),      # b larger than a on an axis
                 ((1, 3, 3, 2), (3, 3, 1)),         # ranks differ
                 ((1, 3, 3, 4), (1, 3, 3, 2))]:     # neither 1 nor a's size
        with pytest.raises(ad.ShapeError) as err:
            ad.mul(t64(np.ones(a)), t64(np.ones(b)))
        assert str(a) in str(err.value) and str(b) in str(err.value)


def test_add_mul_shape_errors():
    with pytest.raises(ad.ShapeError):
        ad.add(t64(np.zeros(3)), t64(np.zeros(4)))
    with pytest.raises(ad.ShapeError):
        ad.mul(t64(np.zeros((2, 2))), t64(np.zeros(4)))


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform_and_stability():
    np.testing.assert_allclose(ad.softmax(t64([[0.0, 0.0, 0.0]])).data, np.full((1, 3), 1 / 3),
                               atol=1e-15, rtol=0)
    y = ad.softmax(t64([[1000.0, 0.0]])).data[0]
    assert np.all(np.isfinite(y))
    assert y[0] > 1 - 1e-12 and y[1] < 1e-12


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(7)
    x = rng.normal(size=6)
    expected = np.exp(x) / np.exp(x).sum()
    np.testing.assert_allclose(ad.softmax(t64(x[None])).data[0], expected, atol=1e-12, rtol=0)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.normal(scale=5.0, size=rng.integers(1, 9))
        y = ad.softmax(t64(x[None])).data
        assert np.all(y > 0)
        assert abs(y.sum() - 1.0) <= 1e-12
        y_shift = ad.softmax(t64(x[None] + 7.5)).data
        np.testing.assert_allclose(y, y_shift, atol=1e-12, rtol=0)


def test_softmax_empty_rejected():
    with pytest.raises(ad.ShapeError):
        ad.softmax(t64(np.zeros((1, 0))))


def test_log_softmax_consistent_with_softmax():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 5))
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
    zero_grads([x])
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


def _convlstm_h(x, k, b):
    h, c_next = ad.convlstm(x, k, b, np.zeros((1, 3, 3, 1)), np.zeros((1, 3, 3, 1)), [1])
    assert type(c_next) is np.ndarray       # the cell state carries no graph
    return h


# each op, and the constant forms of add and mul, with the shapes of its tensor inputs
RECORDING_CASES = {
    "add": (ad.add, [(2, 3), (2, 3)]),
    "add_const": (lambda a: ad.add(a, 0.5), [(2, 3)]),
    "mul": (ad.mul, [(2, 3), (2, 3)]),
    "mul_const": (lambda a: ad.mul(a, -2.0), [(2, 3)]),
    "sigmoid": (ad.sigmoid, [(2, 3)]),
    "relu": (ad.relu, [(2, 3)]),
    "mul_mask": (ad.mul, [(1, 3, 3, 2), (1, 3, 3, 1)]),
    "conv2d": (lambda x, k, b: ad.conv2d(x, k, b, padding=1), [(1, 3, 3, 2), (3, 3, 2, 2), (2,)]),
    "convlstm": (_convlstm_h, [(1, 3, 3, 2), (3, 3, 3, 4), (4,)]),
    "dense": (ad.dense, [(2, 3), (4, 3), (4,)]),
    "softmax": (ad.softmax, [(2, 3)]),
    "log_softmax": (ad.log_softmax, [(2, 3)]),
    "sum_all": (ad.sum_all, [(2, 3)]),
}


@pytest.mark.parametrize("name", [n for n in ad.__all__ if n not in
                                  ("Tensor", "ShapeError", "GraphError", "backward")]
                         + ["add_const", "mul_const", "mul_mask"])
def test_an_op_records_a_backward_only_when_an_input_requires_grad(name):
    op, shapes = RECORDING_CASES[name]
    rng = np.random.default_rng(0)
    data = [rng.normal(size=shape) for shape in shapes]
    out = op(*[t64(d) for d in data])
    assert not out.requires_grad and out._parents == () and out._backward is None
    for i in range(len(data)):
        inputs = [t64(d, rg=j == i) for j, d in enumerate(data)]
        out = op(*inputs)
        assert out.requires_grad and out._backward is not None
        ad.backward(ad.sum_all(out))
        assert [t.grad is not None for t in inputs] == [j == i for j in range(len(data))]


# ---------------------------------------------------------------------------
# gradient checks: every operator against central finite differences

def _check(f, params, tol=1e-4, n=120, eps=1e-5):
    err = grad_check(f, params, eps=eps, n_samples=n, rng=np.random.default_rng(0))
    assert err < tol, f"finite-difference mismatch: {err}"


def test_grad_check_quadratic_is_exact():
    rng = np.random.default_rng(10)
    params = {"x": t64(rng.normal(size=12))}
    _check(lambda p: ad.sum_all(ad.mul(p["x"], p["x"])), params, tol=1e-8)


def test_grad_check_dense_sigmoid_composite():
    rng = np.random.default_rng(11)
    params = {
        "x": t64(rng.normal(size=(1, 7))),
        "w": t64(rng.normal(size=(4, 7))),
        "b": t64(rng.normal(size=4)),
    }
    _check(lambda p: ad.sum_all(ad.sigmoid(ad.dense(p["x"], p["w"], p["b"]))), params, tol=1e-5)


def test_grad_conv2d():
    rng = np.random.default_rng(12)
    params = {
        "x": t64(nhwc(rng.normal(size=(1, 2, 6, 6)))),
        "k": t64(hwio(rng.normal(size=(3, 2, 3, 3)))),
        "b": t64(rng.normal(size=3)),
    }
    c = t64(np.asarray(np.random.default_rng(0).normal(size=(1, 3, 3, 3))))
    _check(lambda p: ad.sum_all(ad.mul(ad.conv2d(p["x"], p["k"], p["b"], stride=2, padding=1), c)),
           params)


def recorded_states(x, k, b, h0, c0, lengths):
    """The packed (h, c) [R,H,W,L] entering each step of ``convlstm``'s sequences, one at a time.

    Sequence i has ``lengths[i]`` steps and starts from h0[i], c0[i]; x,
    the HWIO kernel k and the states are channel-last, as ``convlstm``
    takes them.  Runs the weights' current values through the
    channel-first per-step oracle without a graph, as the actors do, so a
    caller that perturbs a weight records the states that weight makes.
    """
    w = {"lstm.w": Tensor(oihw(k.data)), "lstm.b": Tensor(b.data)}
    h_in, c_in = np.zeros((2, len(x.data)) + h0.shape[1:], dtype=h0.dtype)
    for i, rows in enumerate(packed_rows(lengths)):
        state = Tensor(nchw(h0[i])), Tensor(nchw(c0[i]))
        for row in rows:
            h_in[row], c_in[row] = (nhwc(t.data) for t in state)
            state = oracles.convlstm_step(Tensor(nchw(x.data[row])), state, w)
    return h_in, c_in


def test_convlstm_one_step_matches_the_per_step_oracle():
    # batch_sizes=[B] is one step of B sequences, one sequence among them
    # or alone: h, c_next and the gradients of x, k and b equal the
    # channel-first per-step composite's (stacked input, gate conv, cell)
    rng = np.random.default_rng(37)
    hidden, c_in, hw = 3, 2, 4
    k = rng.normal(scale=0.5, size=(4 * hidden, c_in + hidden, 3, 3))
    b = rng.normal(scale=0.5, size=4 * hidden)
    for batch in ((3,), (1,)):
        x, h0, c0, r = (rng.normal(size=batch + (n, hw, hw)) for n in (c_in,) + (hidden,) * 3)

        def run(step, x_, k_, r_):
            p = {"x": t64(x_, rg=True), "lstm.w": t64(k_, rg=True), "lstm.b": t64(b, rg=True)}
            h, c = step(p)
            ad.backward(ad.sum_all(ad.mul(h, t64(r_))))
            return [h.data, c] + [p[name].grad for name in ("x", "lstm.w", "lstm.b")]

        def per_step(p):
            h, c = oracles.convlstm_step(p["x"], (t64(h0), t64(c0)), p)
            return h, c.data

        h, c, gx, gk, gb = run(lambda p: ad.convlstm(p["x"], p["lstm.w"], p["lstm.b"], nhwc(h0),
                                                     nhwc(c0), list(batch)),
                               nhwc(x), hwio(k), nhwc(r))
        assert h.shape == c.shape == batch + (hw, hw, hidden)
        fused = [nchw(h), nchw(c), nchw(gx), oihw(gk), gb]
        for got, want in zip(fused, run(per_step, x, k, r)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("hw", [(3, 3), (3, 5)], ids=["3x3", "3x5"])
@pytest.mark.parametrize("lengths", [(4,), (1, 1, 1), (2, 4, 3)], ids=["N=1", "one-step", "ragged"])
def test_convlstm_sequences_match_the_channel_first_per_step_oracle(lengths, hw):
    # packed sequences through the op, from the states the channel-first
    # per-step oracle records, against that oracle carrying its graph
    # through time from each sequence's start: h, c_next and the gradients
    # of x, b and both halves of the kernel (x's taps, and W_h, the path
    # through time), compared through explicit layout conversions
    rng = np.random.default_rng(38)
    c_in, hidden = 2, 3
    n_rows = sum(lengths)
    x = rng.normal(size=(n_rows, c_in, *hw))
    k = rng.normal(scale=0.5, size=(4 * hidden, c_in + hidden, 3, 3))
    b = rng.normal(scale=0.5, size=4 * hidden)
    h0, c0 = (rng.normal(size=(len(lengths), hidden, *hw)) for _ in range(2))
    r = rng.normal(size=(n_rows, hidden, *hw))

    p = [t64(nhwc(x), rg=True), t64(hwio(k), rg=True), t64(b, rg=True)]
    states = recorded_states(*p, nhwc(h0), nhwc(c0), lengths)
    h, c = ad.convlstm(*p, *states, batch_sizes(lengths))
    ad.backward(ad.sum_all(ad.mul(h, t64(nhwc(r)))))

    xs = [t64(row, rg=True) for row in x]
    w = {"lstm.w": t64(k, rg=True), "lstm.b": t64(b, rg=True)}
    h_ref, c_ref = np.zeros((2, n_rows, hidden, *hw))
    loss = None
    for i, rows in enumerate(packed_rows(lengths)):
        state = t64(h0[i]), t64(c0[i])
        for row in rows:
            state = oracles.convlstm_step(xs[row], state, w)
            h_ref[row], c_ref[row] = (t.data for t in state)
            term = ad.sum_all(ad.mul(state[0], t64(r[row])))
            loss = term if loss is None else ad.add(loss, term)
    ad.backward(loss)

    gk, gk_ref = oihw(p[1].grad), w["lstm.w"].grad
    for got, want in ((nchw(h.data), h_ref), (nchw(c), c_ref),
                      (nchw(p[0].grad), np.stack([t.grad for t in xs])),
                      (gk[:, :c_in], gk_ref[:, :c_in]), (gk[:, c_in:], gk_ref[:, c_in:]),
                      (p[2].grad, w["lstm.b"].grad)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_lstm_cell_matches_gate_oracle():
    # the per-step oracle's cell against the gate-by-gate formulas
    rng = np.random.default_rng(35)
    hidden, c_in = 3, 2
    k = rng.normal(scale=0.5, size=(4 * hidden, c_in + hidden, 3, 3))
    b = rng.normal(scale=0.5, size=4 * hidden)
    x, h0, c0 = (rng.normal(size=(4, n, 4, 4)) for n in (c_in, hidden, hidden))
    z = oracles.conv2d_nchw(t64(np.concatenate((x, h0), axis=1)), t64(k), t64(b), stride=1,
                            padding=1)
    h, c = oracles.lstm_cell(z, t64(c0))
    for i in range(4):
        h_ref, c_ref = convlstm_oracle(x[i], h0[i], c0[i], k, b)
        np.testing.assert_allclose(h.data[i], h_ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(c.data[i], c_ref, rtol=1e-12, atol=1e-15)
        h_i, c_i = oracles.lstm_cell(t64(z.data[i]), t64(c0[i]))
        np.testing.assert_array_equal(h_i.data, h.data[i])
        np.testing.assert_array_equal(c_i.data, c.data[i])


def test_grad_lstm_cell_both_outputs():
    # the per-step oracle's cell: a loss on h alone, on c_next alone (h then
    # gets no gradient), and on both
    rng = np.random.default_rng(36)
    for batch in ((), (2,)):
        params = {"z": t64(rng.normal(size=batch + (8, 3, 3))),
                  "c": t64(rng.normal(size=batch + (2, 3, 3)))}
        rh, rc = t64(rng.normal(size=batch + (2, 3, 3))), t64(rng.normal(size=batch + (2, 3, 3)))
        for used in ((True, False), (False, True), (True, True)):
            def f(p):
                outs = oracles.lstm_cell(p["z"], p["c"])
                terms = [ad.sum_all(ad.mul(o, r)) for o, r, u in zip(outs, (rh, rc), used) if u]
                return terms[0] if len(terms) == 1 else ad.add(*terms)
            _check(f, params)


@pytest.mark.parametrize("hw", [(3, 3), (3, 5)], ids=["3x3", "3x5"])
def test_grad_convlstm_sequence_extended_precision(hw):
    # the hand-written BPTT against central differences over three ragged
    # sequences, re-recording the states under every perturbed weight
    # (a recorded state is a function of the weights); grads must stay in
    # the working dtype (col2im accumulates without a float64 downcast);
    # a non-square map catches a swap of H and W in the adjoint
    rng = np.random.default_rng(31)
    lengths, c_in, hidden = (2, 4, 3), 2, 2
    n_rows = sum(lengths)
    ld = np.longdouble
    params = {
        "x": Tensor(nhwc(rng.normal(size=(n_rows, c_in, *hw))).astype(ld)),
        "k": Tensor(hwio(rng.normal(scale=0.5, size=(4 * hidden, c_in + hidden, 3, 3))).astype(ld)),
        "b": Tensor(rng.normal(scale=0.5, size=4 * hidden).astype(ld)),
    }
    h0 = nhwc(rng.normal(size=(len(lengths), hidden, *hw))).astype(ld)
    c0 = nhwc(rng.normal(size=(len(lengths), hidden, *hw))).astype(ld)
    r = Tensor(nhwc(rng.normal(size=(n_rows, hidden, *hw))).astype(ld))

    def f(p):
        states = recorded_states(p["x"], p["k"], p["b"], h0, c0, lengths)
        out, _ = ad.convlstm(p["x"], p["k"], p["b"], *states, batch_sizes(lengths))
        return ad.sum_all(ad.mul(out, r))
    err = grad_check(f, params, eps=1e-6, n_samples=150, rng=np.random.default_rng(0))
    assert err < 1e-4, err
    assert all(t.grad.dtype == ld for t in params.values())


def test_convlstm_batch_rows_equal_each_sequence_alone():
    # both outputs and all three gradients of a packed batch of ragged
    # sequences, row by row, against the same op on one sequence at a time
    rng = np.random.default_rng(34)
    lengths, c_in, hidden, hw = (3, 5, 2, 5), 2, 3, 4
    n_rows = sum(lengths)
    x = nhwc(rng.normal(size=(n_rows, c_in, hw, hw)))
    k = hwio(rng.normal(scale=0.5, size=(4 * hidden, c_in + hidden, 3, 3)))
    b = rng.normal(scale=0.5, size=4 * hidden)
    h0 = nhwc(rng.normal(size=(len(lengths), hidden, hw, hw)))
    c0 = nhwc(rng.normal(size=(len(lengths), hidden, hw, hw)))
    h_in, c_in = recorded_states(Tensor(x), Tensor(k), Tensor(b), h0, c0, lengths)
    r = nhwc(rng.normal(size=(n_rows, hidden, hw, hw)))

    def run(rows, sizes):
        p = [Tensor(x[rows], requires_grad=True), Tensor(k, requires_grad=True),
             Tensor(b, requires_grad=True)]
        out, c_next = ad.convlstm(*p, h_in[rows], c_in[rows], sizes)
        ad.backward(ad.sum_all(ad.mul(out, r[rows])))
        return out.data, c_next, [t.grad for t in p]

    out, c_next, (gx, gk, gb) = run(slice(None), batch_sizes(lengths))
    sum_gk, sum_gb = np.zeros_like(k), np.zeros_like(b)
    for n, rows in zip(lengths, packed_rows(lengths)):
        out_i, c_i, (gx_i, gk_i, gb_i) = run(rows, [1] * n)
        np.testing.assert_allclose(out[rows], out_i, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(c_next[rows], c_i, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(gx[rows], gx_i, rtol=1e-10, atol=1e-13)
        sum_gk += gk_i
        sum_gb += gb_i
    np.testing.assert_allclose(gk, sum_gk, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(gb, sum_gb, rtol=1e-10, atol=1e-13)


def test_convlstm_rejects_inputs_that_do_not_line_up():
    k, b = Tensor(np.zeros((3, 3, 3, 8))), Tensor(np.zeros(8))
    x = Tensor(np.zeros((5, 3, 3, 1)))
    states = np.zeros((5, 3, 3, 2))
    ad.convlstm(x, k, b, states, states, [2, 2, 1])
    for bad_x, bad_states in ((Tensor(np.zeros((1, 5, 3, 3, 1))), np.zeros((1, 5, 3, 3, 2))),
                              (x, np.zeros((4, 3, 3, 2))),         # too few rows
                              (x, np.zeros((5, 3, 3, 3))),         # too many channels
                              (x, np.zeros((5, 3, 2, 2)))):        # another map size
        with pytest.raises(ad.ShapeError):
            ad.convlstm(bad_x, k, b, bad_states, bad_states, [2, 2, 1])
    with pytest.raises(ad.ShapeError):
        ad.convlstm(x, k, b, states, states[..., :1], [2, 2, 1])
    with pytest.raises(ad.ShapeError):
        ad.convlstm(x, Tensor(np.zeros((3, 3, 4, 8))), b, states, states, [2, 2, 1])


@pytest.mark.parametrize("sizes", [[2, 2], [2, 2, 2], [1, 2, 2], [2, 3], [3, 0, 2], [5, 0],
                                   []], ids=str)
def test_convlstm_rejects_block_sizes_that_do_not_pack_the_rows(sizes):
    # the step blocks must sum to the rows, never grow and never be empty
    k, b = Tensor(np.zeros((3, 3, 3, 8))), Tensor(np.zeros(8))
    states = np.zeros((5, 3, 3, 2))
    with pytest.raises(ad.ShapeError):
        ad.convlstm(Tensor(np.zeros((5, 3, 3, 1))), k, b, states, states, sizes)


def test_grad_conv2d_batch_keeps_extended_precision():
    rng = np.random.default_rng(32)
    ld = np.longdouble
    params = {
        "x": Tensor(nhwc(rng.normal(size=(2, 2, 5, 5))).astype(ld)),
        "k": Tensor(hwio(rng.normal(size=(3, 2, 3, 3))).astype(ld)),
        "b": Tensor(rng.normal(size=3).astype(ld)),
    }
    c = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(ld))
    err = grad_check(
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
    mask_params = {"f": t64(nhwc(rng.normal(size=(2, 4, 3, 3)))),
                   "m": t64(nhwc(rng.uniform(0.1, 0.9, size=(2, 1, 3, 3))))}
    c4 = t64(nhwc(rng.normal(size=(2, 4, 3, 3))))
    _check(lambda p: ad.sum_all(ad.mul(ad.mul(p["f"], p["m"]), c4)),
           mask_params)


def test_grad_elementwise_family():
    rng = np.random.default_rng(13)
    c = t64(rng.normal(size=10))

    params = {"x": t64(rng.normal(size=10))}
    _check(lambda p: ad.sum_all(ad.mul(ad.sigmoid(p["x"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(ad.relu(p["x"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(ad.mul(p["x"], -1.5), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(ad.add(p["x"], 0.25), c)), params)

    two = {"a": t64(rng.normal(size=10)), "b": t64(rng.normal(size=10))}
    _check(lambda p: ad.sum_all(ad.mul(ad.add(p["a"], p["b"]), c)), two)
    _check(lambda p: ad.sum_all(ad.mul(ad.mul(p["a"], p["b"]), c)), two)


def test_grad_broadcast_mul_and_invert():
    rng = np.random.default_rng(14)
    c = t64(nhwc(rng.normal(size=(1, 4, 3, 3))))
    params = {
        "f": t64(nhwc(rng.normal(size=(1, 4, 3, 3)))),
        "m": t64(nhwc(rng.uniform(0.1, 0.9, size=(1, 1, 3, 3)))),
    }
    _check(lambda p: ad.sum_all(ad.mul(ad.mul(p["f"], p["m"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(
        ad.mul(p["f"], ad.add(ad.mul(p["m"], -1.0), 1.0)), c)), params)


def test_grad_softmax_family():
    rng = np.random.default_rng(15)
    c = t64(rng.normal(size=(1, 6)))
    params = {"x": t64(rng.normal(size=(1, 6)))}
    _check(lambda p: ad.sum_all(ad.mul(ad.softmax(p["x"]), c)), params)
    _check(lambda p: ad.sum_all(ad.mul(ad.log_softmax(p["x"]), c)), params)
    _check(lambda p: pick(ad.log_softmax(p["x"]), (0, 2)), params)


def test_grad_structural_ops():
    rng = np.random.default_rng(16)
    for batch in ((), (3,)):
        c = t64(rng.normal(size=batch + (5, 2, 2)))
        params = {"a": t64(rng.normal(size=batch + (3, 2, 2))),
                  "b": t64(rng.normal(size=batch + (2, 2, 2)))}
        _check(lambda p: ad.sum_all(ad.mul(oracles.concat_channels(p["a"], p["b"]), c)), params)


def test_grad_dense_over_a_map():
    # dense reads each row of an [N,h,w,C] map flat; the map's gradient keeps its shape
    rng = np.random.default_rng(16)
    params = {"x": t64(rng.normal(size=(3, 2, 2, 3))), "w": t64(rng.normal(size=(4, 12))),
              "b": t64(rng.normal(size=4))}
    c = t64(rng.normal(size=(3, 4)))
    _check(lambda p: ad.sum_all(ad.mul(ad.dense(p["x"], p["w"], p["b"]), c)), params)
    assert params["x"].grad.shape == (3, 2, 2, 3)


def test_batched_structural_ops_match_per_sample():
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(3, 4, 2, 2)), rng.normal(size=(3, 1, 2, 2))
    cat = oracles.concat_channels(t64(a), t64(b)).data
    for i in range(3):
        np.testing.assert_array_equal(cat[i], oracles.concat_channels(t64(a[i]), t64(b[i])).data)
    with pytest.raises(ad.ShapeError):
        oracles.concat_channels(t64(a), t64(b[:2]))          # batch sizes differ
    with pytest.raises(ad.ShapeError):
        oracles.concat_channels(t64(a), t64(b[0]))           # batched with unbatched
