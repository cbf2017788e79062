"""Network structure, mask mechanics, and the ones-mask ablation equivalence."""

import hashlib

import numpy as np
import pytest

from maskac import autodiff as ad
from maskac import network as net
from maskac.autodiff import Tensor
from maskac.network import NetworkConfig, RecurrentState

from oracles import conv2d_oracle, convlstm_oracle, hwio, matvec_oracle, nchw, nhwc, oihw, pick

VARIANTS = {
    "vanilla": dict(policy_mask_enabled=False, value_mask_enabled=False),
    "policy": dict(policy_mask_enabled=True, value_mask_enabled=False),
    "value": dict(policy_mask_enabled=False, value_mask_enabled=True),
    "both": dict(policy_mask_enabled=True, value_mask_enabled=True),
}


def cfg(variant="both", **kw):
    return NetworkConfig(**VARIANTS[variant], **kw)


def random_obs(config, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(1, config.input_hw, config.input_hw)).astype(dtype)


# ---------------------------------------------------------------------------
# config arithmetic and weight construction

def test_feature_map_sizes():
    assert NetworkConfig(input_hw=20).feature_hw() == 3
    assert NetworkConfig(input_hw=80).feature_hw() == 10


def test_extractor_stage_sizes():
    sizes = [20]
    for _ in range(3):
        sizes.append(net.conv_out_size(sizes[-1], 3, 2, 1))
    assert sizes == [20, 10, 5, 3]
    sizes = [80]
    for _ in range(3):
        sizes.append(net.conv_out_size(sizes[-1], 3, 2, 1))
    assert sizes == [80, 40, 20, 10]


def test_config_rejects_too_small_input():
    with pytest.raises(ValueError):
        NetworkConfig(input_hw=8)  # 8 -> 4 -> 2 -> 1


def test_init_weights_deterministic():
    a = net.init_weights(cfg("both"), seed=42)
    b = net.init_weights(cfg("both"), seed=42)
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k].data, b[k].data)
    c = net.init_weights(cfg("both"), seed=43)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_variant_weight_counts():
    vanilla = net.weight_shapes(cfg("vanilla"))
    both = net.weight_shapes(cfg("both"))
    assert len(both) - len(vanilla) == 4  # two extra kernel+bias pairs
    assert set(vanilla) < set(both)


@pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "-inf"])
def test_check_weights_names_the_first_non_finite_tensor(value):
    config = cfg("both")
    weights = net.init_weights(config, seed=0)
    for name in ("value_out.b", "policy_mask.b"):
        weights[name].data[0] = value
    for given in (weights, {k: t.data for k, t in weights.items()}):
        with pytest.raises(ValueError, match="tensor policy_mask.b holds a non-finite value"):
            net.check_weights(given, config)


def test_shared_layers_get_identical_draws_across_variants():
    wb = net.init_weights(cfg("both"), seed=7)
    wv = net.init_weights(cfg("vanilla"), seed=7)
    for k in wv:
        assert np.array_equal(wv[k].data, wb[k].data)


# sha256 over the sorted names of the seed-0 default network: each name's
# utf-8 bytes, then its little-endian float32 bytes in the paper's layout
# (OIHW kernels), as the checkpoint stores them; the draws need no BLAS
INIT_DIGESTS = {
    "vanilla": "9400c0362d4d2001145e85295fefa2bfe2c6e938956688abac94406c27a8e9a0",
    "policy": "3da7d4c09d52f1867d687760fdbce1e3f26472871904c4f373030c3a813d3dd6",
    "value": "9580cb2a5485b6e5b92af1b109b778e19d1555b33440713432e6a64f3f6144f3",
    "both": "5e56184d2295c909efe7d6f4c48fe4337af4669542a6fc75567f10f360bbc8a5",
}


@pytest.mark.parametrize("variant", sorted(INIT_DIGESTS))
def test_init_streams_match_golden_digest(variant):
    config = cfg(variant)
    w = net.to_disk_layout({k: t.data for k, t in net.init_weights(config, seed=0).items()},
                           config)
    digest = hashlib.sha256()
    for name in sorted(w):
        digest.update(name.encode())
        digest.update(w[name].astype("<f4").tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[variant]


def test_policy_head_shape_follows_config():
    config = cfg("both", n_actions=4)
    w = net.init_weights(config, seed=0)
    hw = config.feature_hw()
    assert w["policy_out.w"].shape == (4, 32 * hw * hw)
    assert w["value_out.w"].shape == (1, 32 * hw * hw)


def test_forget_gate_bias_initialized_to_one():
    w = net.init_weights(cfg("both"), seed=0)
    L = 64
    np.testing.assert_array_equal(w["lstm.b"].data[L:2 * L], np.ones(L, dtype=np.float32))
    np.testing.assert_array_equal(w["lstm.b"].data[:L], np.zeros(L, dtype=np.float32))


# ---------------------------------------------------------------------------
# feature extractor

def test_feature_extract_output_shapes():
    for hw, out_hw in ((20, 3), (80, 10)):
        config = cfg("both", input_hw=hw)
        w = net.init_weights(config, seed=0, dtype=np.float64)
        obs = Tensor(random_obs(config)[..., None])
        assert net.feature_extract(obs, w, config).shape == (1, out_hw, out_hw, 64)


def test_feature_extract_zero_obs_zero_weights():
    config = cfg("both")
    w = {k: Tensor(np.zeros_like(t.data)) for k, t in net.init_weights(config, 0).items()}
    out = net.feature_extract(Tensor(np.zeros((1, 20, 20, 1))), w, config)
    np.testing.assert_array_equal(out.data, np.zeros((1, 3, 3, 64)))


def test_single_conv_stage_on_zero_obs_is_bias_constant():
    # with zero input the first stage is exactly ReLU(bias) per channel
    x = Tensor(np.zeros((1, 20, 20, 1)))
    k = Tensor(hwio(np.random.default_rng(0).normal(size=(32, 1, 3, 3))))
    b = Tensor(np.linspace(-1, 1, 32))
    y = ad.relu(ad.conv2d(x, k, b, stride=2, padding=1))
    for c in range(32):
        np.testing.assert_array_equal(y.data[..., c], np.full((1, 10, 10), max(b.data[c], 0.0)))


# ---------------------------------------------------------------------------
# ConvLSTM

def _small_lstm_weights(rng, channels=2, scale=0.5):
    k = Tensor(hwio(rng.normal(scale=scale, size=(4 * channels, 2 * channels, 3, 3))))
    b = Tensor(rng.normal(scale=scale, size=4 * channels))
    return {"lstm.w": k, "lstm.b": b}


def _small_state(rng, channels=2, hw=2):
    return RecurrentState(nhwc(rng.normal(size=(1, channels, hw, hw))),
                          nhwc(rng.normal(size=(1, channels, hw, hw))))


def convlstm_step(x, state, w):
    """(h, c_next) of the one ConvLSTM step ``forward`` runs over the batch's rows."""
    return ad.convlstm(x, w["lstm.w"], w["lstm.b"], state.h, state.c, [x.shape[0]])


def test_convlstm_zero_everything():
    w = {"lstm.w": Tensor(np.zeros((3, 3, 4, 8))), "lstm.b": Tensor(np.zeros(8))}
    state = RecurrentState(np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2)))
    h, c = convlstm_step(Tensor(np.zeros((1, 2, 2, 2))), state, w)
    np.testing.assert_array_equal(h.data, np.zeros((1, 2, 2, 2)))
    np.testing.assert_array_equal(c, np.zeros((1, 2, 2, 2)))


def test_convlstm_forget_saturation():
    rng = np.random.default_rng(20)
    w = _small_lstm_weights(rng)
    w["lstm.b"].data[2:4] = 30.0  # forget gate slice for 2 channels
    state = _small_state(rng)
    x = Tensor(nhwc(rng.normal(size=(1, 2, 2, 2))))
    _, c = convlstm_step(x, state, w)

    L = 2
    z = conv2d_oracle(np.concatenate([nchw(x.data[0]), nchw(state.h[0])]),
                      oihw(w["lstm.w"].data), w["lstm.b"].data, 1, 1)
    i = 1 / (1 + np.exp(-z[0:L]))
    g = np.tanh(z[3 * L:4 * L])
    np.testing.assert_allclose(nchw(c[0]), nchw(state.c[0]) + i * g, atol=1e-6, rtol=0)


def test_convlstm_matches_gate_oracle():
    rng = np.random.default_rng(21)
    w = _small_lstm_weights(rng)
    state = _small_state(rng)
    x = Tensor(nhwc(rng.normal(size=(1, 2, 2, 2))))
    h, c = convlstm_step(x, state, w)
    h_ref, c_ref = convlstm_oracle(nchw(x.data[0]), nchw(state.h[0]), nchw(state.c[0]),
                                   oihw(w["lstm.w"].data), w["lstm.b"].data)
    np.testing.assert_allclose(nchw(h.data[0]), h_ref, atol=1e-10, rtol=0)
    np.testing.assert_allclose(nchw(c[0]), c_ref, atol=1e-10, rtol=0)


def test_convlstm_batch_matches_gate_oracle_per_row():
    rng = np.random.default_rng(23)
    w = _small_lstm_weights(rng)
    h0, c0 = rng.normal(size=(3, 2, 2, 2)), rng.normal(size=(3, 2, 2, 2))
    x = rng.normal(size=(3, 2, 2, 2))
    h, c = convlstm_step(Tensor(nhwc(x)), RecurrentState(nhwc(h0), nhwc(c0)), w)
    assert h.shape == c.shape == (3, 2, 2, 2)
    for i in range(3):
        h_ref, c_ref = convlstm_oracle(x[i], h0[i], c0[i], oihw(w["lstm.w"].data),
                                       w["lstm.b"].data)
        np.testing.assert_allclose(nchw(h.data[i]), h_ref, atol=1e-10, rtol=0)
        np.testing.assert_allclose(nchw(c[i]), c_ref, atol=1e-10, rtol=0)


def test_convlstm_rejects_mismatched_state():
    rng = np.random.default_rng(22)
    w = _small_lstm_weights(rng)
    state = RecurrentState(np.zeros((1, 3, 3, 2)), np.zeros((1, 3, 3, 2)))
    with pytest.raises(ad.ShapeError):
        convlstm_step(Tensor(np.zeros((1, 2, 2, 2))), state, w)
    batched = RecurrentState(np.zeros((3, 2, 2, 2)), np.zeros((3, 2, 2, 2)))
    with pytest.raises(ad.ShapeError):
        convlstm_step(Tensor(np.zeros((4, 2, 2, 2))), batched, w)


# ---------------------------------------------------------------------------
# masks

def test_compute_mask_zero_weights_gives_half():
    w = {"policy_mask.w": Tensor(np.zeros((1, 1, 64, 1))), "policy_mask.b": Tensor(np.zeros(1))}
    h = Tensor(nhwc(np.random.default_rng(0).normal(size=(1, 64, 3, 3))))
    m = net.compute_mask(h, w, "policy")
    np.testing.assert_array_equal(m.data, np.full((1, 3, 3, 1), 0.5))


def test_compute_mask_preserves_spatial_size_and_matches_oracle():
    rng = np.random.default_rng(23)
    h = rng.normal(size=(64, 5, 5))
    k = rng.normal(scale=0.2, size=(1, 64, 1, 1))
    b = rng.normal(size=1)
    w = {"value_mask.w": Tensor(hwio(k)), "value_mask.b": Tensor(b)}
    m = net.compute_mask(Tensor(nhwc(h[None])), w, "value")
    assert m.shape == (1, 5, 5, 1)
    expect = 1 / (1 + np.exp(-(np.tensordot(k[0, :, 0, 0], h, axes=1) + b[0])))
    np.testing.assert_allclose(m.data[0, ..., 0], expect, atol=1e-12, rtol=0)


def test_apply_mask_limits():
    rng = np.random.default_rng(24)
    f = Tensor(nhwc(rng.normal(size=(1, 32, 3, 3))))
    ones = Tensor(np.ones((1, 3, 3, 1)))
    zeros = Tensor(np.zeros((1, 3, 3, 1)))
    np.testing.assert_array_equal(ad.mul(f, ones).data, f.data)
    np.testing.assert_array_equal(ad.mul(f, zeros).data, np.zeros((1, 3, 3, 32)))
    twos = Tensor(np.full((1, 3, 3, 32), 2.0))
    quarter = Tensor(np.full((1, 3, 3, 1), 0.25))
    np.testing.assert_array_equal(ad.mul(twos, quarter).data, np.full((1, 3, 3, 32), 0.5))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_invert_mask_is_one_minus_m_bit_for_bit(dtype):
    m = Tensor(np.array([[[0.0], [1.0]], [[0.3], [0.5]]], dtype=dtype))
    np.testing.assert_array_equal(net.invert_mask(m).data,
                                  np.array([[[1.0], [0.0]], [[0.7], [0.5]]], dtype=dtype))
    rng = np.random.default_rng(25)
    m2 = Tensor(rng.uniform(0, 1, size=(2, 7, 7, 1)).astype(dtype), requires_grad=True)
    inv = net.invert_mask(m2)
    assert inv.dtype == dtype
    assert np.array_equal(inv.data, 1.0 - m2.data)
    ad.backward(ad.sum_all(inv))
    np.testing.assert_array_equal(m2.grad, np.full(m2.shape, -1.0, dtype=dtype))


def test_invert_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        net.invert_mask(Tensor(np.array([[[1.5]]])))


# ---------------------------------------------------------------------------
# full forward

def test_forward_vanilla_has_no_masks():
    config = cfg("vanilla")
    w = net.init_weights(config, seed=0, dtype=np.float64)
    trace = net.forward(random_obs(config), RecurrentState.zeros(config, np.float64), w, config)
    assert trace.m_p is None and trace.m_v is None


def test_forward_trace_mask_consistency():
    # the heads are dense(flatten(relu(conv(h)) * M)) over the ConvLSTM output h
    config = cfg("both")
    w = net.init_weights(config, seed=1, dtype=np.float64)
    trace = net.forward(random_obs(config), RecurrentState.zeros(config, np.float64), w, config)
    h = nchw(trace.next_state.h[0])
    heads = {}
    for branch in ("policy", "value"):
        k = oihw(w[f"{branch}_mask.w"].data)[0, :, 0, 0]
        m = 1.0 / (1.0 + np.exp(-(np.tensordot(k, h, axes=1) + w[f"{branch}_mask.b"].data[0])))
        f = np.maximum(conv2d_oracle(h, oihw(w[f"{branch}_branch.w"].data),
                                     w[f"{branch}_branch.b"].data, stride=1, padding=1), 0.0)
        # the dense heads read the map flattened channel-last, in (h,w,c) order
        heads[branch] = matvec_oracle(nhwc(f * m).reshape(-1), w[f"{branch}_out.w"].data,
                                      w[f"{branch}_out.b"].data)
        mask = trace.m_p if branch == "policy" else trace.m_v
        np.testing.assert_allclose(mask.data[0, ..., 0], m, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.policy_logits.data[0], heads["policy"], rtol=1e-10,
                               atol=1e-14)
    np.testing.assert_allclose(trace.value.data[0], heads["value"], rtol=1e-10, atol=1e-14)
    assert np.all(trace.m_p.data > 0) and np.all(trace.m_p.data < 1)
    assert np.all(trace.m_v.data > 0) and np.all(trace.m_v.data < 1)


@pytest.mark.parametrize("variant", ["policy", "value", "both"])
def test_ones_mask_equals_vanilla_with_shared_weights(variant):
    config_m = cfg(variant)
    config_v = cfg("vanilla")
    w = net.init_weights(config_m, seed=3, dtype=np.float64)
    w_vanilla = {k: w[k] for k in net.weight_shapes(config_v)}
    for i in range(20):
        obs = random_obs(config_m, seed=100 + i)
        tm = net.forward(obs, RecurrentState.zeros(config_m, np.float64), w, config_m,
                         mask_transform="ones")
        tv = net.forward(obs, RecurrentState.zeros(config_v, np.float64), w_vanilla, config_v)
        assert tm.m_p is None and tm.m_v is None
        np.testing.assert_array_equal(tm.policy.data, tv.policy.data)
        np.testing.assert_array_equal(tm.value.data, tv.value.data)


def test_policy_sums_to_one_under_all_transforms():
    for variant in VARIANTS:
        config = cfg(variant)
        w = net.init_weights(config, seed=4, dtype=np.float64)
        for transform in net.MASK_TRANSFORMS:
            if transform == "inverse" and not config.policy_mask_enabled:
                continue
            trace = net.forward(random_obs(config, seed=5),
                                RecurrentState.zeros(config, np.float64), w, config,
                                mask_transform=transform)
            assert abs(trace.policy.data.sum() - 1.0) <= 1e-6
            assert np.all(trace.policy.data >= 0)


def test_forward_inverse_transform_inverts_policy_mask_only():
    config = cfg("both")
    w = net.init_weights(config, seed=6, dtype=np.float64)
    obs = random_obs(config, seed=7)
    t_id = net.forward(obs, RecurrentState.zeros(config, np.float64), w, config)
    t_inv = net.forward(obs, RecurrentState.zeros(config, np.float64), w, config,
                        mask_transform="inverse")
    np.testing.assert_array_equal(t_inv.m_p.data, 1.0 - t_id.m_p.data)
    np.testing.assert_array_equal(t_inv.m_v.data, t_id.m_v.data)
    assert np.all(t_inv.m_p.data > 0) and np.all(t_inv.m_p.data < 1)


def test_forward_stops_gradients_at_the_state_passed_in():
    # the state enters the ConvLSTM as arrays, as a segment's start state
    # enters the learner's, and leaves it as arrays: the weights get
    # gradients, and the state carries no graph either way
    config = cfg("both", fe_channels=(4, 4, 4), lstm_channels=4, branch_channels=4)
    w = net.init_weights(config, seed=3, dtype=np.float64)
    for t in w.values():
        t.requires_grad = True
    rng = np.random.default_rng(4)
    side = config.feature_hw()
    state = RecurrentState(*(rng.normal(size=(1, side, side, 4)) for _ in range(2)))
    trace = net.forward(random_obs(config, seed=5), state, w, config)
    assert all(type(a) is np.ndarray for a in (trace.next_state.h, trace.next_state.c))
    ad.backward(ad.add(ad.sum_all(trace.value), pick(trace.policy_logits, (0, 1))))
    assert all(w[name].grad is not None for name in ("fe1.w", "lstm.w", "lstm.b"))


def test_recurrence_carries_information():
    config = cfg("both")
    w = net.init_weights(config, seed=8, dtype=np.float64)
    obs1, obs2 = random_obs(config, seed=9), random_obs(config, seed=10)
    zero = RecurrentState.zeros(config, np.float64)
    t1 = net.forward(obs1, zero, w, config)
    carried = net.forward(obs2, t1.next_state, w, config)
    reset = net.forward(obs2, RecurrentState.zeros(config, np.float64), w, config)
    assert not np.array_equal(carried.policy.data, reset.policy.data) or \
        not np.array_equal(carried.value.data, reset.value.data)


def test_forward_is_pure():
    config = cfg("both")
    w = net.init_weights(config, seed=11, dtype=np.float64)
    obs = random_obs(config, seed=12)
    state = RecurrentState.zeros(config, np.float64)
    t1 = net.forward(obs, state, w, config)
    t2 = net.forward(obs, state, w, config)
    assert np.array_equal(t1.policy.data, t2.policy.data)
    assert np.array_equal(t1.value.data, t2.value.data)
    assert np.array_equal(t1.m_p.data, t2.m_p.data)


def test_gradient_flows_through_mask_path():
    config = cfg("both")
    w = net.init_weights(config, seed=13, dtype=np.float64)
    for t in w.values():
        t.requires_grad = True
    trace = net.forward(random_obs(config, seed=14),
                        RecurrentState.zeros(config, np.float64), w, config)
    loss = ad.add(pick(ad.log_softmax(trace.policy_logits), (0, 0)),
                  ad.mul(ad.sum_all(trace.value), 0.5))
    ad.backward(loss)
    assert w["policy_mask.w"].grad is not None
    assert np.abs(w["policy_mask.w"].grad).max() > 0
    assert np.abs(w["value_mask.w"].grad).max() > 0


# ---------------------------------------------------------------------------
# batched forward

def _random_states(config, n, rng, dtype):
    shape = RecurrentState.zeros(config).h.shape
    return [RecurrentState(rng.normal(scale=0.5, size=shape).astype(dtype),
                           rng.normal(scale=0.5, size=shape).astype(dtype))
            for _ in range(n)]


def _stack_states(states):
    return RecurrentState(np.concatenate([s.h for s in states]),
                          np.concatenate([s.c for s in states]))


def _forward_rows(trace):
    rows = [trace.policy, trace.value] + [m for m in (trace.m_p, trace.m_v) if m is not None]
    return [t.data for t in rows] + [trace.next_state.h, trace.next_state.c]


@pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-12, 1e-15),
                                               (np.float32, 0.0, 1e-6)])
@pytest.mark.parametrize("variant", ["vanilla", "both"])
def test_batched_forward_rows_match_per_sample_forward(variant, dtype, rtol, atol):
    # two steps, so the second runs from the batched forward's own next state
    config = cfg(variant)
    w = net.init_weights(config, seed=15, dtype=dtype)
    rng = np.random.default_rng(16)
    n = 4
    states = _random_states(config, n, rng, dtype)
    batch_state = _stack_states(states)
    for step in range(2):
        obs = rng.uniform(0, 1, size=(n, config.input_hw, config.input_hw)).astype(dtype)
        for transform in net.MASK_TRANSFORMS:
            if transform == "inverse" and not config.policy_mask_enabled:
                continue
            batch = net.forward(obs, batch_state, w, config, mask_transform=transform)
            assert batch.policy.shape == (n, config.n_actions) and batch.value.shape == (n, 1)
            singles = [net.forward(obs[i], states[i], w, config, mask_transform=transform)
                       for i in range(n)]
            for i, single in enumerate(singles):
                for got, want in zip(_forward_rows(batch), _forward_rows(single)):
                    np.testing.assert_allclose(got[i], want[0], rtol=rtol, atol=atol)
        states = [t.next_state for t in singles]
        batch_state = batch.next_state


def test_recurrent_state_zeros_batch_shape():
    config = cfg()
    side = config.feature_hw()
    state = RecurrentState.zeros(config, np.float64, batch=5)
    assert state.h.shape == state.c.shape == (5, side, side, config.lstm_channels)
    assert state.h.dtype == np.float64 and not state.h.any()
    one = RecurrentState.zeros(config)
    assert one.h.shape == one.c.shape == (1, side, side, config.lstm_channels)
    assert one.h.dtype == np.float32


@pytest.mark.parametrize("batch", [1, 3], ids=["B=1", "B=3"])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_forward_without_value_branch_keeps_policy_outputs_bit_for_bit(variant, batch):
    # float32, as the rollout and evaluation run it, from a nonzero state
    config = cfg(variant)
    w = net.init_weights(config, seed=17, dtype=np.float32)
    rng = np.random.default_rng(18)
    state = _stack_states(_random_states(config, batch, rng, np.float32))
    obs = rng.uniform(0, 1, size=(batch, config.input_hw, config.input_hw)).astype(np.float32)
    for transform in net.MASK_TRANSFORMS:
        if transform == "inverse" and not config.policy_mask_enabled:
            continue
        full = net.forward(obs, state, w, config, mask_transform=transform)
        lean = net.forward(obs, state, w, config, mask_transform=transform, with_value=False)
        assert lean.value is None and lean.m_v is None
        assert (lean.m_p is None) == (full.m_p is None)
        pairs = [(lean.policy.data, full.policy.data),
                 (lean.policy_logits.data, full.policy_logits.data),
                 (lean.next_state.h, full.next_state.h), (lean.next_state.c, full.next_state.c)]
        if full.m_p is not None:
            pairs.append((lean.m_p.data, full.m_p.data))
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the row convention: every tensor has a leading row axis, and one [H,W]
# frame is one row

def test_one_frame_equals_the_same_frame_as_one_row_bit_for_bit():
    config = cfg("both")
    w = net.init_weights(config, seed=19)
    frame = random_obs(config, seed=20, dtype=np.float32)[0]
    state = RecurrentState.zeros(config)
    flat, row = (net.forward(obs, state, w, config) for obs in (frame, frame[None]))
    for got, want in zip(_forward_rows(flat) + [flat.policy_logits.data],
                         _forward_rows(row) + [row.policy_logits.data]):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_every_trace_tensor_of_one_frame_has_a_row_axis():
    config = cfg("both")
    w = net.init_weights(config, seed=21, dtype=np.float64)
    trace = net.forward(random_obs(config, seed=22)[0], RecurrentState.zeros(config, np.float64),
                        w, config)
    side, k = config.feature_hw(), config.n_actions
    shapes = {"policy": (1, k), "policy_logits": (1, k), "value": (1, 1),
              "m_p": (1, side, side, 1), "m_v": (1, side, side, 1)}
    assert {name: getattr(trace, name).shape for name in shapes} == shapes
    assert trace.next_state.h.shape == trace.next_state.c.shape == \
        (1, side, side, config.lstm_channels)


def test_next_state_feeds_the_next_one_frame_call():
    # a replay loop: one row of float32 zeros, a [H,W] frame per call and
    # each call's next_state passed on; the states it carries are those the
    # packed pass over the frames as one sequence reads
    config = cfg("both")
    w = net.init_weights(config, seed=23)
    frames = np.concatenate([random_obs(config, seed=24 + t, dtype=np.float32) for t in range(3)])
    state, entered, traces = RecurrentState.zeros(config), [], []
    for frame in frames:
        entered.append(state)
        traces.append(net.forward(frame, state, w, config))
        state = traces[-1].next_state
        assert len(state.h) == len(state.c) == 1 and state.h.dtype == np.float32
    packed = net.forward(frames, _stack_states(entered), w, config, batch_sizes=[1, 1, 1])
    for t, trace in enumerate(traces):
        for got, want in zip(_forward_rows(packed), _forward_rows(trace)):
            np.testing.assert_allclose(got[t], want[0], rtol=0, atol=1e-6)


_ROW_CONFIG = cfg("both", fe_channels=(4, 4, 4), lstm_channels=4, branch_channels=4)
_HW, _SIDE = _ROW_CONFIG.input_hw, _ROW_CONFIG.feature_hw()

# each op on the rank it no longer takes, and forward on inputs without a row axis
REMOVED_RANKS = {
    "conv2d-HWC": lambda w: ad.conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 2, 3))),
                                      Tensor(np.zeros(3))),
    "convlstm-HWC": lambda w: ad.convlstm(Tensor(np.zeros((3, 3, 1))),
                                          Tensor(np.zeros((3, 3, 3, 8))), Tensor(np.zeros(8)),
                                          np.zeros((3, 3, 2)), np.zeros((3, 3, 2)), [1]),
    "dense-n": lambda w: ad.dense(Tensor(np.zeros(3)), Tensor(np.zeros((4, 3))),
                                  Tensor(np.zeros(4))),
    "softmax-K": lambda w: ad.softmax(Tensor(np.zeros(3))),
    "log_softmax-K": lambda w: ad.log_softmax(Tensor(np.zeros(3))),
    "forward-R1HW": lambda w: net.forward(np.zeros((2, 1, _HW, _HW)),
                                          RecurrentState.zeros(_ROW_CONFIG, batch=2), w,
                                          _ROW_CONFIG),
    "forward-state-hwL": lambda w: net.forward(
        np.zeros((_HW, _HW)), RecurrentState(*np.zeros((2, _SIDE, _SIDE, 4))), w, _ROW_CONFIG),
}


@pytest.mark.parametrize("case", list(REMOVED_RANKS))
def test_removed_ranks_raise_shape_error(case):
    with pytest.raises(ad.ShapeError):
        REMOVED_RANKS[case](net.init_weights(_ROW_CONFIG, seed=0))


def test_forward_rejects_an_unknown_mask_transform():
    config = cfg("both")
    with pytest.raises(ValueError, match="mask_transform"):
        net.forward(np.zeros((20, 20)), RecurrentState.zeros(config),
                    net.init_weights(config, seed=0), config, mask_transform="zeros")


def test_forward_rejects_a_frame_of_the_wrong_size():
    config = cfg("both")
    w = net.init_weights(config, seed=0)
    for obs in (np.zeros((19, 20)), np.zeros((2, 20, 19))):
        with pytest.raises(ad.ShapeError):
            net.forward(obs, RecurrentState.zeros(config), w, config)
