"""Network structure, mask mechanics, and the ones-mask ablation equivalence."""

import numpy as np
import pytest

from maskac import autodiff as ad
from maskac import network as net
from maskac.autodiff import Tensor
from maskac.network import NetworkConfig, RecurrentState

from oracles import conv2d_oracle, convlstm_oracle, matvec_oracle, pick

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
    vanilla = net.weight_names(cfg("vanilla"))
    both = net.weight_names(cfg("both"))
    assert len(both) - len(vanilla) == 4  # two extra kernel+bias pairs
    assert set(vanilla) < set(both)


def test_shared_layers_get_identical_draws_across_variants():
    wb = net.init_weights(cfg("both"), seed=7)
    wv = net.init_weights(cfg("vanilla"), seed=7)
    for k in wv:
        assert np.array_equal(wv[k].data, wb[k].data)


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
        obs = Tensor(random_obs(config))
        assert net.feature_extract(obs, w, config).shape == (64, out_hw, out_hw)


def test_feature_extract_zero_obs_zero_weights():
    config = cfg("both")
    w = {k: Tensor(np.zeros_like(t.data)) for k, t in net.init_weights(config, 0).items()}
    out = net.feature_extract(Tensor(np.zeros((1, 20, 20))), w, config)
    np.testing.assert_array_equal(out.data, np.zeros((64, 3, 3)))


def test_single_conv_stage_on_zero_obs_is_bias_constant():
    # with zero input the first stage is exactly ReLU(bias) per channel
    x = Tensor(np.zeros((1, 20, 20)))
    k = Tensor(np.random.default_rng(0).normal(size=(32, 1, 3, 3)))
    b = Tensor(np.linspace(-1, 1, 32))
    y = ad.relu(ad.conv2d(x, k, b, stride=2, padding=1))
    for c in range(32):
        np.testing.assert_array_equal(y.data[c], np.full((10, 10), max(b.data[c], 0.0)))


def test_feature_extract_rejects_wrong_shape():
    config = cfg("both")
    w = net.init_weights(config, seed=0)
    with pytest.raises(ad.ShapeError):
        net.feature_extract(Tensor(np.zeros((1, 19, 20))), w, config)


# ---------------------------------------------------------------------------
# ConvLSTM

def _small_lstm_weights(rng, channels=2, scale=0.5):
    k = Tensor(rng.normal(scale=scale, size=(4 * channels, 2 * channels, 3, 3)))
    b = Tensor(rng.normal(scale=scale, size=4 * channels))
    return {"lstm.w": k, "lstm.b": b}


def _small_state(rng, channels=2, hw=2):
    return RecurrentState(Tensor(rng.normal(size=(channels, hw, hw))),
                          Tensor(rng.normal(size=(channels, hw, hw))))


def test_convlstm_zero_everything():
    w = {"lstm.w": Tensor(np.zeros((8, 4, 3, 3))), "lstm.b": Tensor(np.zeros(8))}
    state = RecurrentState(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2, 2))))
    h, nxt = net.convlstm_step(Tensor(np.zeros((2, 2, 2))), state, w)
    np.testing.assert_array_equal(h.data, np.zeros((2, 2, 2)))
    np.testing.assert_array_equal(nxt.c.data, np.zeros((2, 2, 2)))


def test_convlstm_forget_saturation():
    rng = np.random.default_rng(20)
    w = _small_lstm_weights(rng)
    w["lstm.b"].data[2:4] = 30.0  # forget gate slice for 2 channels
    state = _small_state(rng)
    x = Tensor(rng.normal(size=(2, 2, 2)))
    _, nxt = net.convlstm_step(x, state, w)

    L = 2
    z = conv2d_oracle(np.concatenate([x.data, state.h.data]), w["lstm.w"].data,
                      w["lstm.b"].data, 1, 1)
    i = 1 / (1 + np.exp(-z[0:L]))
    g = np.tanh(z[3 * L:4 * L])
    np.testing.assert_allclose(nxt.c.data, state.c.data + i * g, atol=1e-6, rtol=0)


def test_convlstm_matches_gate_oracle():
    rng = np.random.default_rng(21)
    w = _small_lstm_weights(rng)
    state = _small_state(rng)
    x = Tensor(rng.normal(size=(2, 2, 2)))
    h, nxt = net.convlstm_step(x, state, w)
    h_ref, c_ref = convlstm_oracle(x.data, state.h.data, state.c.data,
                                   w["lstm.w"].data, w["lstm.b"].data)
    np.testing.assert_allclose(h.data, h_ref, atol=1e-10, rtol=0)
    np.testing.assert_allclose(nxt.c.data, c_ref, atol=1e-10, rtol=0)


def test_convlstm_batch_matches_gate_oracle_per_row():
    rng = np.random.default_rng(23)
    w = _small_lstm_weights(rng)
    h0, c0 = rng.normal(size=(3, 2, 2, 2)), rng.normal(size=(3, 2, 2, 2))
    x = rng.normal(size=(3, 2, 2, 2))
    h, nxt = net.convlstm_step(Tensor(x), RecurrentState(Tensor(h0), Tensor(c0)), w)
    assert h.shape == nxt.c.shape == (3, 2, 2, 2)
    for i in range(3):
        h_ref, c_ref = convlstm_oracle(x[i], h0[i], c0[i], w["lstm.w"].data, w["lstm.b"].data)
        np.testing.assert_allclose(h.data[i], h_ref, atol=1e-10, rtol=0)
        np.testing.assert_allclose(nxt.c.data[i], c_ref, atol=1e-10, rtol=0)


def test_convlstm_rejects_mismatched_state():
    rng = np.random.default_rng(22)
    w = _small_lstm_weights(rng)
    state = RecurrentState(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((2, 3, 3))))
    with pytest.raises(ad.ShapeError):
        net.convlstm_step(Tensor(np.zeros((2, 2, 2))), state, w)
    batched = RecurrentState(Tensor(np.zeros((3, 2, 2, 2))), Tensor(np.zeros((3, 2, 2, 2))))
    with pytest.raises(ad.ShapeError):
        net.convlstm_step(Tensor(np.zeros((4, 2, 2, 2))), batched, w)
    with pytest.raises(ad.ShapeError):
        net.convlstm_step(Tensor(np.zeros((2, 2, 2))), batched, w)


# ---------------------------------------------------------------------------
# masks

def test_compute_mask_zero_weights_gives_half():
    w = {"policy_mask.w": Tensor(np.zeros((1, 64, 1, 1))), "policy_mask.b": Tensor(np.zeros(1))}
    h = Tensor(np.random.default_rng(0).normal(size=(64, 3, 3)))
    m = net.compute_mask(h, w, "policy")
    np.testing.assert_array_equal(m.data, np.full((1, 3, 3), 0.5))


def test_compute_mask_preserves_spatial_size_and_matches_oracle():
    rng = np.random.default_rng(23)
    h = rng.normal(size=(64, 5, 5))
    k = rng.normal(scale=0.2, size=(1, 64, 1, 1))
    b = rng.normal(size=1)
    w = {"value_mask.w": Tensor(k), "value_mask.b": Tensor(b)}
    m = net.compute_mask(Tensor(h), w, "value")
    assert m.shape == (1, 5, 5)
    expect = 1 / (1 + np.exp(-(np.tensordot(k[0, :, 0, 0], h, axes=1) + b[0])))
    np.testing.assert_allclose(m.data[0], expect, atol=1e-12, rtol=0)


def test_apply_mask_limits():
    rng = np.random.default_rng(24)
    f = Tensor(rng.normal(size=(32, 3, 3)))
    ones = Tensor(np.ones((1, 3, 3)))
    zeros = Tensor(np.zeros((1, 3, 3)))
    np.testing.assert_array_equal(net.apply_mask(f, ones).data, f.data)
    np.testing.assert_array_equal(net.apply_mask(f, zeros).data, np.zeros((32, 3, 3)))
    twos = Tensor(np.full((32, 3, 3), 2.0))
    quarter = Tensor(np.full((1, 3, 3), 0.25))
    np.testing.assert_array_equal(net.apply_mask(twos, quarter).data, np.full((32, 3, 3), 0.5))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_invert_mask_is_one_minus_m_bit_for_bit(dtype):
    m = Tensor(np.array([[[0.0, 1.0], [0.3, 0.5]]], dtype=dtype))
    np.testing.assert_array_equal(net.invert_mask(m).data,
                                  np.array([[[1.0, 0.0], [0.7, 0.5]]], dtype=dtype))
    rng = np.random.default_rng(25)
    m2 = Tensor(rng.uniform(0, 1, size=(2, 1, 7, 7)).astype(dtype), requires_grad=True)
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
    h = trace.next_state.h.data
    heads = {}
    for branch in ("policy", "value"):
        k = w[f"{branch}_mask.w"].data[0, :, 0, 0]
        m = 1.0 / (1.0 + np.exp(-(np.tensordot(k, h, axes=1) + w[f"{branch}_mask.b"].data[0])))
        f = np.maximum(conv2d_oracle(h, w[f"{branch}_branch.w"].data,
                                     w[f"{branch}_branch.b"].data, stride=1, padding=1), 0.0)
        heads[branch] = matvec_oracle((f * m).reshape(-1), w[f"{branch}_out.w"].data,
                                      w[f"{branch}_out.b"].data)
        mask = trace.m_p if branch == "policy" else trace.m_v
        np.testing.assert_allclose(mask.data[0], m, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.policy_logits.data, heads["policy"], rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(trace.value.data, heads["value"], rtol=1e-10, atol=1e-14)
    assert np.all(trace.m_p.data > 0) and np.all(trace.m_p.data < 1)
    assert np.all(trace.m_v.data > 0) and np.all(trace.m_v.data < 1)


@pytest.mark.parametrize("variant", ["policy", "value", "both"])
def test_ones_mask_equals_vanilla_with_shared_weights(variant):
    config_m = cfg(variant)
    config_v = cfg("vanilla")
    w = net.init_weights(config_m, seed=3, dtype=np.float64)
    w_vanilla = {k: w[k] for k in net.weight_names(config_v)}
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
    loss = ad.add(pick(ad.log_softmax(trace.policy_logits), 0),
                  ad.mul(ad.sum_all(trace.value), 0.5))
    ad.backward(loss)
    assert w["policy_mask.w"].grad is not None
    assert np.abs(w["policy_mask.w"].grad).max() > 0
    assert np.abs(w["value_mask.w"].grad).max() > 0


# ---------------------------------------------------------------------------
# batched forward

def _random_states(config, n, rng, dtype):
    shape = RecurrentState.zeros(config).h.shape
    return [RecurrentState(Tensor(rng.normal(scale=0.5, size=shape).astype(dtype)),
                           Tensor(rng.normal(scale=0.5, size=shape).astype(dtype)))
            for _ in range(n)]


def _stack_states(states):
    return RecurrentState(Tensor(np.stack([s.h.data for s in states])),
                          Tensor(np.stack([s.c.data for s in states])))


def _forward_rows(trace):
    rows = [trace.policy, trace.value, trace.next_state.h, trace.next_state.c]
    return [t.data for t in rows + [m for m in (trace.m_p, trace.m_v) if m is not None]]


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
        obs = rng.uniform(0, 1, size=(n, 1, config.input_hw, config.input_hw)).astype(dtype)
        for transform in net.MASK_TRANSFORMS:
            if transform == "inverse" and not config.policy_mask_enabled:
                continue
            batch = net.forward(obs, batch_state, w, config, mask_transform=transform)
            assert batch.policy.shape == (n, config.n_actions) and batch.value.shape == (n, 1)
            singles = [net.forward(obs[i], states[i], w, config, mask_transform=transform)
                       for i in range(n)]
            for i, single in enumerate(singles):
                for got, want in zip(_forward_rows(batch), _forward_rows(single)):
                    np.testing.assert_allclose(got[i], want, rtol=rtol, atol=atol)
        states = [t.next_state for t in singles]
        batch_state = batch.next_state


def test_recurrent_state_zeros_batch_shape():
    config = cfg()
    state = RecurrentState.zeros(config, np.float64, batch=5)
    assert state.h.shape == state.c.shape == (5,) + RecurrentState.zeros(config).h.shape
    assert state.h.dtype == np.float64 and not state.h.data.any()
