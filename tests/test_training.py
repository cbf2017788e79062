"""Returns/loss math, the shared RMSProp store, and the lockstep training loop."""

import os
from pathlib import Path

import numpy as np
import pytest

from maskac import autodiff as ad
from maskac import training as tr
from maskac.autodiff import Tensor
from maskac.checkpoint import load_checkpoint
from maskac.envs import EnvSpec, StepResult, _BaseEnv, make_env
from maskac.network import NetworkConfig, RecurrentState, init_weights
from maskac.training import (Hyperparams, Rollout, RolloutStep, SharedParams,
                             a3c_loss, apply_gradients, collect_rollout,
                             compute_returns, sync_local, train)

from oracles import (discounted_returns_oracle, grad_check, per_step_a3c_loss,
                     rmsprop_apply_oracle, zero_grads)


def small_cfg(**kw):
    base = dict(input_hw=20, fe_channels=(4, 4, 8), lstm_channels=8,
                branch_channels=4, n_actions=3)
    base.update(kw)
    return NetworkConfig(**base)


class ScriptedEnv:
    """Duck-typed stand-in: fixed action count, optional scripted termination."""

    def __init__(self, n_actions=1, done_at=None, size=20):
        self.n_actions = n_actions
        self.size = size
        self.done_at = done_at
        self.episode_cap = 10 ** 9
        self.t = 0
        self.done = False
        self.score = 0.0

    def reset(self, seed=None):
        self.t = 0
        self.done = False
        self.score = 0.0
        return self.observe()

    def observe(self):
        return np.full((self.size, self.size), (self.t % 5) / 10.0, dtype=np.float32)

    def step(self, action):
        if self.done:
            raise RuntimeError("step after done")
        self.t += 1
        reward = 0.25
        self.done = self.done_at is not None and self.t >= self.done_at
        self.score += reward
        return StepResult(self.observe(), reward, self.done)


class NoisyEnv(ScriptedEnv):
    """ScriptedEnv whose observations are uniform noise fixed by the step index and ``salt``."""

    def __init__(self, n_actions=1, done_at=None, size=20, salt=0):
        super().__init__(n_actions, done_at, size)
        self.salt = salt

    def observe(self):
        rng = np.random.default_rng([self.t, 5, self.salt])
        return rng.uniform(0, 1, size=(self.size, self.size))


def collect_one(env, weights, config, state, t_max, rng):
    """``collect_rollout`` on a round of one env, with an unbatched state."""
    batched = RecurrentState(Tensor(state.h.data[None]), Tensor(state.c.data[None]))
    (rollout,), state = collect_rollout([env], weights, config, batched, t_max, [rng])
    return rollout, RecurrentState(Tensor(state.h.data[0]), Tensor(state.c.data[0]))


def zero_head_rollout(k_actions, t_steps):
    """A real segment under weights whose output heads are zero: uniform policy, zero value."""
    config = small_cfg(n_actions=k_actions)
    weights = init_weights(config, seed=0, dtype=np.float64)
    for name in ("policy_out.w", "policy_out.b", "value_out.w", "value_out.b"):
        weights[name].data[...] = 0.0
    env = NoisyEnv()
    steps = [RolloutStep(obs=env.reset(), action=0, reward=0.0, value=0.0, log_prob=0.0,
                         probs=None) for _ in range(t_steps)]
    return Rollout(steps, 0.0, True, RecurrentState.zeros(config, np.float64)), weights, config


# ---------------------------------------------------------------------------
# returns

def test_returns_gamma_zero_copies_rewards():
    steps = [RolloutStep(None, 0, r, 0.0, 0.0, None) for r in (1.0, -0.5, 2.0)]
    returns, _ = compute_returns(Rollout(steps, 5.0, False), gamma=0.0)
    assert returns == [1.0, -0.5, 2.0]


def test_returns_single_step_bootstrap():
    steps = [RolloutStep(None, 0, 1.0, 0.0, 0.0, None)]
    returns, advantages = compute_returns(Rollout(steps, 2.0, False), gamma=0.99)
    assert abs(returns[0] - 2.98) < 1e-12
    assert abs(advantages[0] - 2.98) < 1e-12


def test_returns_match_direct_sum_oracle_exhaustively():
    rng = np.random.default_rng(0)
    for length in range(1, 9):
        for terminal in (True, False):
            rewards = rng.uniform(-1, 1, size=length).tolist()
            values = rng.uniform(-1, 1, size=length).tolist()
            bootstrap = 0.0 if terminal else float(rng.uniform(-2, 2))
            steps = [RolloutStep(None, 0, r, v, 0.0, None)
                     for r, v in zip(rewards, values)]
            returns, advantages = compute_returns(
                Rollout(steps, bootstrap, terminal), gamma=0.97)
            expected = discounted_returns_oracle(rewards, bootstrap, 0.97)
            np.testing.assert_allclose(returns, expected, atol=1e-12, rtol=0)
            np.testing.assert_allclose(advantages,
                                       [e - v for e, v in zip(expected, values)],
                                       atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# loss

def test_loss_reduces_to_entropy_term():
    k, t, coef = 4, 3, 0.01
    rollout, weights, config = zero_head_rollout(k, t)
    returns = [0.0] * t        # value head predicts 0 exactly
    advantages = [0.0] * t
    loss = a3c_loss([rollout], weights, config, [returns], [advantages],
                    entropy_coef=coef, value_coef=0.5)
    assert abs(float(loss.data) - (-coef * t * np.log(k))) < 1e-12


def test_loss_single_step_policy_term_only():
    rollout, weights, config = zero_head_rollout(3, 1)
    loss = a3c_loss([rollout], weights, config, [[1.7]], [[2.5]], entropy_coef=0.0,
                    value_coef=0.0)
    assert abs(float(loss.data) - (-np.log(1 / 3) * 2.5)) < 1e-12


def test_loss_rejects_length_mismatch():
    rollout, weights, config = zero_head_rollout(3, 2)
    with pytest.raises(ValueError):
        a3c_loss([rollout], weights, config, [[0.0]], [[0.0, 0.0]], 0.0, 0.0)


def frozen_loss_fn(config, obs_seq, actions, returns, advantages, hyper, dtype):
    """Replays the recorded decisions under fresh weights; fd-checkable."""
    steps = [RolloutStep(obs, action, 0.0, 0.0, 0.0, None)
             for obs, action in zip(obs_seq, actions)]
    rollout = Rollout(steps, 0.0, False, RecurrentState.zeros(config, dtype))

    def f(weights):
        return a3c_loss([rollout], weights, config, [returns], [advantages],
                        hyper.entropy_coef, hyper.value_coef)
    return f


def random_frozen_rollout(config, seed, n_steps=3):
    """Random observations, actions, rewards; returns frozen loss constants."""
    rng = np.random.default_rng(seed)
    weights = init_weights(config, seed=seed, dtype=np.float64)
    obs_seq = [rng.uniform(0, 1, size=(config.input_hw, config.input_hw))
               for _ in range(n_steps)]
    actions = [int(rng.integers(config.n_actions)) for _ in range(n_steps)]
    rewards = rng.uniform(-1, 1, size=n_steps).tolist()
    values = rng.uniform(-1, 1, size=n_steps).tolist()
    bootstrap = float(rng.uniform(-1, 1))
    steps = [RolloutStep(o, a, r, v, 0.0, None)
             for o, a, r, v in zip(obs_seq, actions, rewards, values)]
    returns, advantages = compute_returns(Rollout(steps, bootstrap, False), 0.99)
    return weights, obs_seq, actions, returns, advantages


def test_loss_gradient_matches_finite_differences():
    # extended precision: float64 cancellation noise on coordinates with
    # |grad| < 1e-7 would exceed the tolerance without any rule being wrong
    config = small_cfg()
    hyper = Hyperparams()
    weights, obs_seq, actions, returns, advantages = random_frozen_rollout(config, seed=5)
    weights = {k: Tensor(t.data.astype(np.longdouble)) for k, t in weights.items()}
    f = frozen_loss_fn(config, obs_seq, actions, returns, advantages, hyper, np.longdouble)
    err = grad_check(f, weights, eps=1e-5, n_samples=150,
                     rng=np.random.default_rng(1))
    assert err < 1e-4, err


def test_advantage_is_stop_gradient_in_policy_term():
    # perturbing the value head changes the value loss but leaves the
    # policy-term gradient on the policy head untouched for fixed traces
    config = small_cfg()
    weights, obs_seq, actions, returns, advantages = random_frozen_rollout(config, seed=6)
    hyper = Hyperparams(value_coef=0.0, entropy_coef=0.0)
    f = frozen_loss_fn(config, obs_seq, actions, returns, advantages, hyper, np.float64)

    def policy_grad(w):
        zero_grads(w)
        for t in w.values():
            t.requires_grad = True
        ad.backward(f(w))
        return w["policy_out.w"].grad.copy()

    g1 = policy_grad(weights)
    weights["value_out.w"].data += 0.05
    g2 = policy_grad(weights)
    np.testing.assert_allclose(g1, g2, atol=1e-12)


def _grads(loss_fn, weights):
    w = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in weights.items()}
    ad.backward(loss_fn(w))
    return {k: t.grad for k, t in w.items()}


def round_cases(t_max):
    """Steps to episode end, per env of a two-env round, counted from the round's start."""
    cases = [(None, None), (t_max, t_max), (t_max, None)]   # equal lengths
    if t_max > 1:
        cases.append((None, t_max // 2))                     # ragged: one env ends mid-round
    return cases


@pytest.mark.parametrize("t_max", [1, 20])
@pytest.mark.parametrize("variant", [(False, False), (True, False), (False, True), (True, True)],
                         ids=["vanilla", "policy", "value", "both"])
def test_segment_grads_match_per_step_oracle(variant, t_max):
    # the grads of one round's batched loss equal the sum over its envs of
    # the per-step oracle's grads
    config = small_cfg(policy_mask_enabled=variant[0], value_mask_enabled=variant[1])
    weights = init_weights(config, seed=11, dtype=np.float64)
    hyper = Hyperparams()
    for warmup in (0, 3):                 # zero and carried-over start states
        for ends in round_cases(t_max):   # terminal and bootstrapped segments
            envs = [NoisyEnv(n_actions=3, done_at=None if e is None else warmup + e, salt=i)
                    for i, e in enumerate(ends)]
            for env in envs:
                env.reset()
            rngs = [np.random.default_rng([2, i]) for i in range(len(envs))]
            state = RecurrentState.zeros(config, np.float64, batch=len(envs))
            if warmup:
                _, state = collect_rollout(envs, weights, config, state, warmup, rngs)
            rollouts, _ = collect_rollout(envs, weights, config, state, t_max, rngs)
            assert [len(r) for r in rollouts] == [t_max if e is None else e for e in ends]
            assert [r.terminal for r in rollouts] == [e is not None for e in ends]
            for r in rollouts:
                assert (np.abs(r.start_state.c.data).max() > 0) == bool(warmup)
            returns, advantages = zip(*(compute_returns(r, hyper.gamma) for r in rollouts))
            coefs = (hyper.entropy_coef, hyper.value_coef)
            batched = _grads(lambda w: a3c_loss(rollouts, w, config, returns, advantages,
                                                *coefs), weights)

            def oracle_loss(w):
                total = None
                for r, ret, adv in zip(rollouts, returns, advantages):
                    term = per_step_a3c_loss(r, w, config, ret, adv, *coefs)
                    total = term if total is None else ad.add(total, term)
                return total

            oracle = _grads(oracle_loss, weights)
            assert set(batched) == set(oracle)
            for name in oracle:
                np.testing.assert_allclose(batched[name], oracle[name], rtol=1e-10, atol=0,
                                           err_msg=f"{name} warmup={warmup} ends={ends}")


# ---------------------------------------------------------------------------
# rollout collection

def test_collect_rollout_fixed_length_single_action():
    config = small_cfg(n_actions=1)
    weights = init_weights(config, seed=0, dtype=np.float64)
    env = ScriptedEnv(n_actions=1)
    env.reset()
    rollout, _ = collect_one(env, weights, config,
                                 RecurrentState.zeros(config, np.float64), 3,
                                 np.random.default_rng(0))
    assert len(rollout) == 3
    assert [s.action for s in rollout.steps] == [0, 0, 0]
    assert not rollout.terminal
    assert rollout.bootstrap_value != 0.0 or True  # bootstrap computed, not forced to 0


def test_collect_rollout_stops_at_terminal():
    config = small_cfg(n_actions=1)
    weights = init_weights(config, seed=0, dtype=np.float64)
    env = ScriptedEnv(n_actions=1, done_at=2)
    env.reset()
    rollout, _ = collect_one(env, weights, config,
                                 RecurrentState.zeros(config, np.float64), 5,
                                 np.random.default_rng(0))
    assert len(rollout) == 2
    assert rollout.terminal
    assert rollout.bootstrap_value == 0.0


def test_collect_rollout_builds_no_graph():
    config = small_cfg()
    weights = {k: Tensor(t.data, requires_grad=True)
               for k, t in init_weights(config, seed=0, dtype=np.float64).items()}
    envs = [NoisyEnv(n_actions=3, done_at=6, salt=i) for i in range(2)]
    for env in envs:
        env.reset()
    state = RecurrentState.zeros(config, np.float64, batch=2)
    rngs = [np.random.default_rng(i) for i in range(2)]
    for _ in range(2):
        rollouts, state = collect_rollout(envs, weights, config, state, 4, rngs)
        starts = [t for r in rollouts for t in (r.start_state.h, r.start_state.c)]
        for t in (state.h, state.c, *starts):
            assert t._parents == () and not t.requires_grad
        for step in (s for r in rollouts for s in r.steps):
            assert isinstance(step.probs, np.ndarray)
            assert abs(step.log_prob - np.log(step.probs[step.action])) < 1e-12
    assert all(t.grad is None for t in weights.values())


@pytest.mark.parametrize("start_done", [False, True], ids=["carried", "reset"])
def test_collect_rollout_renders_each_frame_once(monkeypatch, start_done):
    config = small_cfg(n_actions=6)
    weights = init_weights(config, seed=0, dtype=np.float32)
    env = make_env(EnvSpec(name="fuel", seed=4))
    env.done = start_done
    calls = []
    observe = _BaseEnv.observe
    monkeypatch.setattr(_BaseEnv, "observe", lambda self: calls.append(1) or observe(self))
    t_max = 5
    rollout, _ = collect_one(env, weights, config, RecurrentState.zeros(config), t_max,
                                 np.random.default_rng(0))
    assert len(rollout) == t_max and not rollout.terminal
    assert len(calls) <= t_max + 1


def test_collect_rollout_lockstep_rows_equal_each_env_alone():
    # three envs with episodes of different lengths: each env's segments,
    # bootstrap values and carried states equal those of a round of that env alone
    config = small_cfg()
    weights = init_weights(config, seed=3, dtype=np.float64)
    ends = (None, 5, 9)
    envs = [NoisyEnv(n_actions=3, done_at=e, salt=i) for i, e in enumerate(ends)]
    alone = [NoisyEnv(n_actions=3, done_at=e, salt=i) for i, e in enumerate(ends)]
    rngs = [np.random.default_rng([4, i]) for i in range(3)]
    alone_rngs = [np.random.default_rng([4, i]) for i in range(3)]
    state = RecurrentState.zeros(config, np.float64, batch=3)
    alone_states = [RecurrentState.zeros(config, np.float64) for _ in range(3)]
    for _ in range(3):   # env 1 ends in round 2 and restarts in round 3, env 2 ends in round 3
        rollouts, state = collect_rollout(envs, weights, config, state, 4, rngs)
        for i in range(3):
            ref, alone_states[i] = collect_one(alone[i], weights, config, alone_states[i], 4,
                                               alone_rngs[i])
            got = rollouts[i]
            assert [s.action for s in got.steps] == [s.action for s in ref.steps]
            assert got.terminal == ref.terminal and len(got) == len(ref)
            np.testing.assert_allclose([s.value for s in got.steps],
                                       [s.value for s in ref.steps], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(got.bootstrap_value, ref.bootstrap_value,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(state.c.data[i], alone_states[i].c.data,
                                       rtol=1e-12, atol=1e-15)
    assert [env.t for env in envs] == [12, 4, 9]


def test_collect_rollout_deterministic_given_seed():
    config = small_cfg()
    weights = init_weights(config, seed=1, dtype=np.float32)
    outs = []
    for _ in range(2):
        env = make_env(EnvSpec(name="catch", seed=9))
        rollout, _ = collect_one(env, weights, config,
                                     RecurrentState.zeros(config, np.float32), 10,
                                     np.random.default_rng(33))
        outs.append(([s.action for s in rollout.steps],
                     [s.reward for s in rollout.steps],
                     [s.value for s in rollout.steps]))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# shared parameter store

def toy_shared(seed=0):
    rng = np.random.default_rng(seed)
    weights = {"a.w": Tensor(rng.normal(size=(3, 3)).astype(np.float32)),
               "b.w": Tensor(rng.normal(size=(4,)).astype(np.float32))}
    return SharedParams(weights)


def test_zero_gradient_leaves_weights_and_advances_counter():
    shared = toy_shared()
    before = {k: v.copy() for k, v in shared.values.items()}
    norm = apply_gradients(shared, {k: np.zeros_like(v) for k, v in shared.values.items()},
                           Hyperparams(), n_steps=7)
    assert norm == 0.0
    assert shared.steps == 7
    for k in before:
        np.testing.assert_array_equal(shared.values[k], before[k])


def test_clipping_equals_prescaled_gradient():
    hyper = Hyperparams(grad_clip_norm=1.0)
    rng = np.random.default_rng(3)
    g = {"a.w": rng.normal(size=(3, 3)).astype(np.float32),
         "b.w": rng.normal(size=(4,)).astype(np.float32)}
    norm = float(np.sqrt(sum(float(np.dot(v.ravel(), v.ravel())) for v in g.values())))
    scale_to_double = 2.0 / norm
    g2 = {k: v * scale_to_double for k, v in g.items()}  # norm exactly 2x the clip

    clipped = toy_shared()
    apply_gradients(clipped, g2, hyper, n_steps=1)
    manual = toy_shared()
    apply_gradients(manual, {k: v * 0.5 for k, v in g2.items()},
                    Hyperparams(grad_clip_norm=1e18), n_steps=1)
    for k in clipped.values:
        np.testing.assert_allclose(clipped.values[k], manual.values[k], atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("clip_scale", [None, 0.37])
def test_in_place_rmsprop_is_bit_identical_to_the_formula(clip_scale, dtype):
    rng = np.random.default_rng(5)
    # c.w spans three slices of the update, the last one partial
    weights = {"a.w": Tensor(rng.normal(size=(3, 3)).astype(dtype)),
               "b.w": Tensor(rng.normal(size=(4,)).astype(dtype)),
               "c.w": Tensor(rng.normal(size=(2 * tr._APPLY_CHUNK + 7,)).astype(dtype))}
    shared = SharedParams(weights)
    values = {k: t.data.copy() for k, t in weights.items()}
    ms = {k: np.zeros_like(v) for k, v in values.items()}
    for _ in range(5):
        grads = {k: rng.normal(size=v.shape).astype(dtype) for k, v in values.items()}
        hyper = Hyperparams(lr=0.01, grad_clip_norm=1e9)
        if clip_scale is not None:
            norm = float(np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads.values())))
            hyper = Hyperparams(lr=0.01, grad_clip_norm=clip_scale * norm)
        kept = {k: g.copy() for k, g in grads.items()}
        apply_gradients(shared, grads, hyper, n_steps=1)
        scale = rmsprop_apply_oracle(values, ms, grads, hyper)
        assert scale == pytest.approx(clip_scale or 1.0)
        for k in values:
            np.testing.assert_array_equal(grads[k], kept[k])     # caller's grads untouched
            assert shared.values[k].tobytes() == values[k].tobytes()
            assert shared.ms[k].tobytes() == ms[k].tobytes()


def test_disjoint_support_updates_commute_exactly():
    rng = np.random.default_rng(4)
    ga = {"a.w": rng.normal(size=(3, 3)).astype(np.float32)}
    gb = {"b.w": rng.normal(size=(4,)).astype(np.float32)}
    hyper = Hyperparams()

    ab = toy_shared()
    apply_gradients(ab, ga, hyper, 1)
    apply_gradients(ab, gb, hyper, 1)
    ba = toy_shared()
    apply_gradients(ba, gb, hyper, 1)
    apply_gradients(ba, ga, hyper, 1)
    for k in ab.values:
        np.testing.assert_array_equal(ab.values[k], ba.values[k])
    assert ab.steps == ba.steps == 2


def test_non_finite_gradient_skipped_and_flagged():
    shared = toy_shared()
    before = {k: v.copy() for k, v in shared.values.items()}
    bad = {"a.w": np.full((3, 3), np.nan, dtype=np.float32)}
    assert apply_gradients(shared, bad, Hyperparams(), n_steps=5) is None
    assert shared.skipped == 1
    assert shared.steps == 5
    for k in before:
        np.testing.assert_array_equal(shared.values[k], before[k])


def test_sync_local_gives_new_gradless_leaves_over_the_store():
    shared = toy_shared()
    first = sync_local(shared)
    for t in first.values():
        t.grad = np.ones_like(t.data)
    second = sync_local(shared)
    for k, v in shared.values.items():
        assert second[k] is not first[k] and second[k].data is v
        assert second[k].grad is None and second[k].requires_grad
        assert second[k]._parents == () and second[k]._backward is None


# ---------------------------------------------------------------------------
# the training loop

def test_train_zero_steps_emits_initial_checkpoint_only(tmp_path):
    config = small_cfg()
    hyper = Hyperparams(total_steps=0, n_workers=2)
    path = train(config, hyper, EnvSpec(name="catch"), seed=0, out_dir=str(tmp_path))
    assert os.path.basename(path) == "ckpt_0.ma3c"
    weights, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == config
    ckpts = [f for f in os.listdir(tmp_path) if f.endswith(".ma3c")]
    assert ckpts == ["ckpt_0.ma3c"]


def test_train_single_worker_bit_reproducible(tmp_path):
    config = small_cfg()
    hyper = Hyperparams(total_steps=240, n_workers=1, t_max=8)
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        train(config, hyper, EnvSpec(name="catch"), seed=3, out_dir=str(out))
        blobs.append((out / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_train_multiworker_finishes_with_finite_weights(tmp_path):
    config = small_cfg()
    hyper = Hyperparams(total_steps=400, n_workers=2, t_max=10)
    path = train(config, hyper, EnvSpec(name="catch"), seed=1, out_dir=str(tmp_path))
    weights, _ = load_checkpoint(path)
    for arr in weights.values():
        assert np.all(np.isfinite(arr))
    with open(tmp_path / "metrics.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == tr.MetricsWriter.HEADER
    assert len(lines) > 1


def test_periodic_checkpoints_are_named_after_the_step_they_hold(tmp_path):
    # catch episodes are 19-step segments, so the step count passes the
    # multiples of 30 at 38 and 76; a run whose budget is that step count
    # ends there and must write the same bytes
    config = small_cfg()
    out = tmp_path / "long"
    train(config, Hyperparams(total_steps=100, n_workers=1), EnvSpec(name="catch"), seed=7,
          out_dir=str(out), checkpoint_interval=30)
    with open(out / "metrics.csv") as fh:
        steps = {int(line.split(",")[0]) for line in fh.read().splitlines()[1:]}
    named = {int(f[5:-5]) for f in os.listdir(out) if f.endswith(".ma3c")}
    assert named <= steps | {0} and {38, 76} <= named
    short = train(config, Hyperparams(total_steps=38, n_workers=1), EnvSpec(name="catch"),
                  seed=7, out_dir=str(tmp_path / "short"), checkpoint_interval=30)
    assert Path(short).read_bytes() == (out / "ckpt_38.ma3c").read_bytes()


def test_each_checkpoint_is_written_once(tmp_path, monkeypatch):
    # a 38-step budget ends right on the periodic save at step 38
    from maskac import checkpoint
    written, save = [], checkpoint.save_checkpoint
    monkeypatch.setattr(checkpoint, "save_checkpoint",
                        lambda w, c, path: (written.append(os.path.basename(path)), save(w, c, path)))
    for steps, files in ((38, ["ckpt_0.ma3c", "ckpt_38.ma3c"]), (0, ["ckpt_0.ma3c"])):
        written.clear()
        final = train(small_cfg(), Hyperparams(total_steps=steps, n_workers=1),
                      EnvSpec(name="catch"), seed=7, out_dir=str(tmp_path / str(steps)),
                      checkpoint_interval=30)
        assert written == files and os.path.basename(final) == files[-1]


@pytest.mark.parametrize("n_workers", [2, 3])
def test_train_multiworker_lockstep_is_bit_reproducible(tmp_path, n_workers):
    config = small_cfg()
    hyper = Hyperparams(total_steps=100, n_workers=n_workers, t_max=8)
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        final = train(config, hyper, EnvSpec(name="catch"), seed=5, out_dir=str(out),
                      checkpoint_interval=30)
        runs.append((os.path.basename(final),
                     {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}))
    assert runs[0] == runs[1]
    final, files = runs[0]
    assert {"ckpt_0.ma3c", final, "metrics.csv"} < set(files)   # periodic ones too
    lines = files["metrics.csv"].decode().splitlines()
    assert lines[0] == tr.MetricsWriter.HEADER
    rows = [line.split(",") for line in lines[1:]]
    # every catch episode lasts 19 steps, so the workers' segments stay in
    # lockstep: rounds of 8, 8 and 3 steps per worker, and each third round
    # ends all n_workers episodes at once
    steps = [int(r[0]) for r in rows]
    rounds = [n_workers * t for t in (8, 8, 3)] * len(rows)
    assert np.diff([0] + steps).tolist() == rounds[:len(rows)]
    assert [r[1] != "" for r in rows] == [i % 3 == 2 for i in range(len(rows))]
    final_step = steps[-1]
    assert final == f"ckpt_{final_step}.ma3c"
    assert hyper.total_steps <= final_step < hyper.total_steps + n_workers * hyper.t_max
