"""Returns/loss math, the shared RMSProp store, and the lockstep training loop."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maskac
from maskac import analysis, cli
from maskac import autodiff as ad
from maskac import training as tr
from maskac.autodiff import Tensor
from maskac.checkpoint import load_checkpoint
from maskac.envs import EnvSpec, StepResult, _BaseEnv, make_env
from maskac.network import NetworkConfig, RecurrentState, feature_extract, forward, init_weights
from maskac.training import (Hyperparams, Round, SharedParams, a3c_loss, apply_gradients,
                             collect_rollout, compare_variants, compute_returns,
                             loss_components, step_blocks, sync_local, train)

from oracles import (batch_sizes, discounted_returns_oracle, grad_check, pack, packed_rows,
                     per_step_a3c_loss, replay_states, rmsprop_apply_oracle)


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

    def reset(self):
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


def make_round(rewards, bootstrap=None, obs=None, actions=None, weights=None, config=None):
    """A packed ``Round`` of the segments given as per-segment lists.

    With ``weights`` and ``config`` the round records the states that
    replaying its observations from zero states gives.
    """
    lengths = np.array([len(r) for r in rewards])
    obs = None if obs is None else pack(obs, np.float64)
    h, c = (None, None) if weights is None else replay_states(obs, lengths, weights, config)
    return Round(obs=obs, actions=pack(actions or [[0] * len(r) for r in rewards], np.int64),
                 rewards=pack(rewards, np.float64), lengths=lengths,
                 terminal=np.zeros(len(rewards), dtype=bool),
                 bootstrap=np.zeros(len(rewards)) if bootstrap is None else np.array(bootstrap),
                 h=h, c=c)


def zero_head_round(k_actions, t_steps):
    """A one-segment round under weights whose output heads are zero: uniform policy, zero value."""
    config = small_cfg(n_actions=k_actions)
    weights = init_weights(config, seed=0, dtype=np.float64)
    for name in ("policy_out.w", "policy_out.b", "value_out.w", "value_out.b"):
        weights[name].data[...] = 0.0
    obs = NoisyEnv().reset()
    rnd = make_round([[0.0] * t_steps], obs=[[obs] * t_steps], weights=weights, config=config)
    return rnd, weights, config


# ---------------------------------------------------------------------------
# packed rounds

def test_step_blocks_match_the_packing_oracle():
    # per step, the segments that reach it, longest first with ties in worker order
    rng = np.random.default_rng(0)
    for _ in range(50):
        lengths = rng.integers(1, 6, size=int(rng.integers(1, 6)))
        order, sizes = step_blocks(lengths)
        assert sizes == batch_sizes(lengths.tolist())
        rows = packed_rows(lengths.tolist())
        assert [rows[i][0] for i in order] == list(range(len(lengths)))


# ---------------------------------------------------------------------------
# returns

def test_returns_gamma_zero_copies_rewards():
    returns = compute_returns(make_round([[1.0, -0.5, 2.0]], [5.0]), gamma=0.0)
    assert returns.tolist() == [1.0, -0.5, 2.0]


def test_returns_single_step_bootstrap():
    returns = compute_returns(make_round([[1.0]], [2.0]), gamma=0.99)
    assert returns.shape == (1,) and abs(returns[0] - 2.98) < 1e-12


def test_returns_match_direct_sum_oracle_exhaustively():
    rng = np.random.default_rng(0)
    segments = []          # (rewards, bootstrap): one round each, then all as one ragged round
    for length in range(1, 9):
        for terminal in (True, False):
            rewards = rng.uniform(-1, 1, size=length).tolist()
            segments.append((rewards, 0.0 if terminal else float(rng.uniform(-2, 2))))
    rounds = [[segment] for segment in segments] + [segments]
    for round_segments in rounds:
        rewards, bootstraps = zip(*round_segments)
        returns = compute_returns(make_round(list(rewards), list(bootstraps)), gamma=0.97)
        assert returns.shape == (sum(len(r) for r in rewards),)
        for rows, r, b in zip(packed_rows([len(r) for r in rewards]), rewards, bootstraps):
            expected = discounted_returns_oracle(r, b, 0.97)
            np.testing.assert_allclose(returns[rows], expected, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# loss

def test_loss_reduces_to_entropy_term():
    k, t, coef = 4, 3, 0.01
    rnd, weights, config = zero_head_round(k, t)
    returns = np.zeros(t)   # value head predicts 0 exactly, so every advantage is 0
    loss, row = a3c_loss(rnd, weights, config, returns, entropy_coef=coef, value_coef=0.5)
    assert abs(float(loss.data) - (-coef * t * np.log(k))) < 1e-12
    assert row["policy_loss"] == 0.0 and row["value_loss"] == 0.0
    assert abs(row["entropy"] - np.log(k)) < 1e-12


def test_loss_single_step_policy_term_only():
    rnd, weights, config = zero_head_round(3, 1)
    trace = forward(rnd.obs, RecurrentState(rnd.h, rnd.c), weights, config, batch_sizes=[1])
    # the value head predicts 0, so the advantage R - V is the return
    (policy_term, _, _), _ = loss_components(trace, [0], [2.5])
    assert abs(float(policy_term.data) - (-np.log(1 / 3) * 2.5)) < 1e-12


def test_loss_derives_the_advantage_from_the_learner_value():
    # the value head predicts 0, so the derived advantage R - V is the return
    rnd, weights, config = zero_head_round(3, 1)
    loss, row = a3c_loss(rnd, weights, config, np.array([1.7]), entropy_coef=0.0,
                         value_coef=0.0)
    assert abs(float(loss.data) - (-np.log(1 / 3) * 1.7)) < 1e-12
    assert abs(row["policy_loss"] - float(loss.data)) < 1e-12
    assert abs(row["value_loss"] - 1.7 ** 2) < 1e-12


def test_backward_drops_every_rule_it_ran():
    # each rule references its own node; dropping it lets reference counting
    # free a round's graph without the cyclic collector
    rnd, weights, config = zero_head_round(3, 4)
    weights = {k: Tensor(t.data, requires_grad=True) for k, t in weights.items()}
    loss, _ = a3c_loss(rnd, weights, config, np.ones(4), 0.01, 0.5)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    with_rule = [node for node in nodes.values() if node._backward is not None]
    assert len(with_rule) > 20
    ad.backward(loss)
    assert all(node._backward is None for node in with_rule)


def test_loss_rejects_length_mismatch():
    rnd, weights, config = zero_head_round(3, 2)
    for returns in (np.zeros(1), np.zeros(3), np.zeros((1, 2))):
        with pytest.raises(ValueError):
            a3c_loss(rnd, weights, config, returns, 0.0, 0.0)


def frozen_loss_fn(config, obs_seq, actions, returns, advantages, hyper, dtype):
    """Replays the recorded decisions under fresh weights with fixed advantages; fd-checkable.

    Advantages derived from the weights' own values would move with every
    perturbed weight, so finite differences would see through their
    stop-gradient; so the loss is ``a3c_loss``'s sum built from the
    learner's ``forward`` and ``loss_components``, whose policy term reads
    the advantages given as the returns of a constant zero value.  The
    recorded ConvLSTM states are a function of the weights, so each call
    records them anew by replaying the observations through ``forward``.
    """
    obs = np.array(obs_seq, dtype=dtype)
    zero_value = Tensor(np.zeros((len(obs), 1), dtype=dtype))

    def f(weights):
        state = RecurrentState(*replay_states(obs, [len(obs)], weights, config))
        trace = forward(obs, state, weights, config, batch_sizes=[1] * len(obs))
        (policy_term, _, neg_entropy), _ = loss_components(
            dataclasses.replace(trace, value=zero_value), actions, np.asarray(advantages))
        (_, value_term, _), _ = loss_components(trace, actions, np.asarray(returns))
        return ad.add(policy_term, ad.add(ad.mul(value_term, hyper.value_coef),
                                          ad.mul(neg_entropy, hyper.entropy_coef)))
    return f


def random_frozen_rollout(config, seed, n_steps=3):
    """Random observations, actions, rewards and values; returns frozen loss constants."""
    rng = np.random.default_rng(seed)
    weights = init_weights(config, seed=seed, dtype=np.float64)
    obs_seq = [rng.uniform(0, 1, size=(config.input_hw, config.input_hw))
               for _ in range(n_steps)]
    actions = [int(rng.integers(config.n_actions)) for _ in range(n_steps)]
    rewards = rng.uniform(-1, 1, size=n_steps).tolist()
    values = rng.uniform(-1, 1, size=n_steps).tolist()
    bootstrap = float(rng.uniform(-1, 1))
    returns = compute_returns(make_round([rewards], [bootstrap]), 0.99).tolist()
    advantages = [r - v for r, v in zip(returns, values)]
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
    # the advantages R - V come from the learner's own values, yet with the
    # value and entropy terms switched off no gradient reaches the critic:
    # the policy term pushes log-probabilities only
    config = small_cfg()
    weights, obs_seq, actions, returns, _ = random_frozen_rollout(config, seed=6)
    rnd = make_round([[0.0] * len(actions)], obs=[obs_seq], actions=[actions], weights=weights,
                     config=config)
    grads = _grads(lambda w: a3c_loss(rnd, w, config, np.array(returns), 0.0, 0.0)[0],
                   weights)
    for name in ("value_branch.w", "value_branch.b", "value_mask.w", "value_out.w",
                 "value_out.b"):
        assert not grads[name].any(), name
    assert np.abs(grads["policy_out.w"]).max() > 0


def _grads(loss_fn, weights):
    w = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in weights.items()}
    ad.backward(loss_fn(w))
    return {k: t.grad for k, t in w.items()}


def round_cases(t_max):
    """Steps to episode end, per env of a two-env round, counted from the round's start."""
    cases = [(None, None), (t_max, t_max), (t_max, None)]   # equal lengths
    if t_max > 1:   # ragged: one env ends mid-round, the longer one first or second
        cases += [(None, t_max // 2), (t_max // 2, None)]
    return cases


def assert_round_grads_match_per_step_oracle(config, weights, t_max, warmup, ends):
    """The grads of one round's batched loss equal the sum over its envs of the oracle's grads.

    ``ends`` gives per env the steps to its episode's end from the round's
    start (None: it outlives the round); ``warmup`` steps run first, so a
    nonzero warmup starts the segments from carried-over states.
    """
    hyper = Hyperparams()
    envs = [NoisyEnv(n_actions=3, done_at=None if e is None else warmup + e, salt=i)
            for i, e in enumerate(ends)]
    for env in envs:
        env.reset()
    rngs = [np.random.default_rng([2, i]) for i in range(len(envs))]
    state = RecurrentState.zeros(config, np.float64, batch=len(envs))
    if warmup:
        _, state = collect_rollout(envs, weights, config, state, warmup, rngs)
    rnd, _ = collect_rollout(envs, weights, config, state, t_max, rngs)
    assert rnd.lengths.tolist() == [t_max if e is None else e for e in ends]
    assert rnd.terminal.tolist() == [e is not None for e in ends]
    for c in rnd.c[:len(envs)]:   # every segment's start state: the rows of step 0
        assert (np.abs(c).max() > 0) == bool(warmup)
    returns = compute_returns(rnd, hyper.gamma)
    coefs = (hyper.entropy_coef, hyper.value_coef)
    # each side derives its advantages from its own values
    batched = _grads(lambda w: a3c_loss(rnd, w, config, returns, *coefs)[0], weights)

    def oracle_loss(w):
        total = None
        for rows in packed_rows(rnd.lengths):
            start = Tensor(rnd.h[rows[:1]]), Tensor(rnd.c[rows[:1]])
            term = per_step_a3c_loss(rnd.obs[rows], rnd.actions[rows], start, w, config,
                                     returns[rows], *coefs)
            total = term if total is None else ad.add(total, term)
        return total

    oracle = _grads(oracle_loss, weights)
    assert set(batched) == set(oracle)
    for name in oracle:
        np.testing.assert_allclose(batched[name], oracle[name], rtol=1e-10, atol=0,
                                   err_msg=f"{name} warmup={warmup} ends={ends}")


@pytest.mark.parametrize("t_max", [1, 20])
@pytest.mark.parametrize("variant", [(False, False), (True, False), (False, True), (True, True)],
                         ids=["vanilla", "policy", "value", "both"])
def test_segment_grads_match_per_step_oracle(variant, t_max):
    config = small_cfg(policy_mask_enabled=variant[0], value_mask_enabled=variant[1])
    weights = init_weights(config, seed=11, dtype=np.float64)
    for warmup in (0, 3):                 # zero and carried-over start states
        for ends in round_cases(t_max):   # terminal and bootstrapped segments
            assert_round_grads_match_per_step_oracle(config, weights, t_max, warmup, ends)


def test_segment_grads_match_per_step_oracle_on_a_5x5_map():
    # conv_padding=2 leaves a 5x5 ConvLSTM map, so the recurrent gradient's
    # tap sums run past the corners and edges of the 3x3 default
    config = small_cfg(conv_padding=2)
    assert config.feature_hw() == 5
    weights = init_weights(config, seed=12, dtype=np.float64)
    assert_round_grads_match_per_step_oracle(config, weights, 6, 3, (None, 3))


@pytest.mark.parametrize("warmup", [0, 3])
def test_ragged_round_grads_match_per_step_oracle(warmup):
    # four segments of 2, 6, 2 and 5 steps: the step blocks shrink 4, 4, 2,
    # 2, 2, 1 and run the segments in the order 1, 3, 0, 2, so the BPTT's
    # carries widen by prefix where segments of different lengths meet
    config = small_cfg()
    weights = init_weights(config, seed=13, dtype=np.float64)
    assert_round_grads_match_per_step_oracle(config, weights, 6, warmup, (2, None, 2, 5))


# ---------------------------------------------------------------------------
# rollout collection

def test_collect_rollout_fixed_length_single_action():
    config = small_cfg(n_actions=1)
    weights = init_weights(config, seed=0, dtype=np.float64)
    env = ScriptedEnv(n_actions=1)
    env.reset()
    rnd, state = collect_rollout([env], weights, config, RecurrentState.zeros(config, np.float64),
                                 3, [np.random.default_rng(0)])
    assert rnd.lengths.tolist() == [3] and rnd.obs.shape[:1] == (3,)
    assert rnd.actions.tolist() == [0, 0, 0]
    assert not rnd.terminal[0]
    # the bootstrap is the value of the frame after the segment, from the carried state
    value = forward(env.observe(), state, weights, config).value.data
    assert rnd.bootstrap.tolist() == [float(value.ravel()[0])]


def test_collect_rollout_stops_at_terminal():
    config = small_cfg(n_actions=1)
    weights = init_weights(config, seed=0, dtype=np.float64)
    env = ScriptedEnv(n_actions=1, done_at=2)
    env.reset()
    rnd, _ = collect_rollout([env], weights, config, RecurrentState.zeros(config, np.float64),
                             5, [np.random.default_rng(0)])
    assert rnd.lengths.tolist() == [2] and rnd.obs.shape[:1] == (2,)
    assert rnd.terminal[0]
    assert rnd.bootstrap[0] == 0.0


def test_collect_rollout_round_is_as_wide_as_the_steps_taken():
    # a catch episode ends after 19 steps, whatever the step budget
    config = small_cfg()
    weights = init_weights(config, seed=0)
    env = make_env(EnvSpec(name="catch", seed=1))
    rnd, _ = collect_rollout([env], weights, config, RecurrentState.zeros(config),
                             10 ** 6, [np.random.default_rng(0)])
    assert rnd.obs.shape == (19, 20, 20)
    assert rnd.actions.shape == rnd.rewards.shape == (19,)
    assert rnd.lengths.tolist() == [19] and rnd.terminal.tolist() == [True]


def test_round_holds_only_the_steps_played():
    # a ragged round has one row per step played, and each segment's rows
    # give the loss and gradients of that segment as a round of its own
    config = small_cfg()
    weights = init_weights(config, seed=8, dtype=np.float64)
    envs = [NoisyEnv(n_actions=3, done_at=e, salt=i) for i, e in enumerate((None, 2))]
    for env in envs:
        env.reset()
    rnd, _ = collect_rollout(envs, weights, config,
                             RecurrentState.zeros(config, np.float64, batch=2), 5,
                             [np.random.default_rng(i) for i in range(2)])
    assert rnd.lengths.tolist() == [5, 2]
    for field in (rnd.obs, rnd.actions, rnd.rewards, rnd.h, rnd.c):
        assert len(field) == 7

    def loss_and_grads(r):
        w = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in weights.items()}
        loss, _ = a3c_loss(r, w, config, compute_returns(r, 0.99), 0.01, 0.5)
        ad.backward(loss)
        return float(loss.data), {k: t.grad for k, t in w.items()}

    loss, grads = loss_and_grads(rnd)
    parts = [loss_and_grads(Round(rnd.obs[rows], rnd.actions[rows], rnd.rewards[rows],
                                  rnd.h[rows], rnd.c[rows], rnd.lengths[[i]],
                                  rnd.terminal[[i]], rnd.bootstrap[[i]]))
             for i, rows in enumerate(packed_rows(rnd.lengths))]
    np.testing.assert_allclose(loss, sum(part[0] for part in parts), rtol=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, sum(part[1][name] for part in parts), rtol=1e-10,
                                   atol=1e-14, err_msg=name)


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
        rnd, state = collect_rollout(envs, weights, config, state, 4, rngs)
        for name, value in [*vars(rnd).items(), ("state.h", state.h), ("state.c", state.c)]:
            assert type(value) is np.ndarray, name
    assert all(t.grad is None for t in weights.values())


def test_collect_rollout_steps_skip_the_value_branch(monkeypatch):
    # each step's forward skips the value branch; only the bootstrap forward runs it
    config = small_cfg()
    weights = init_weights(config, seed=0, dtype=np.float64)
    # the steps run through the lockstep driver in analysis, the bootstrap in training
    calls, forward = [], tr.forward
    for module in (tr, analysis):
        monkeypatch.setattr(module, "forward",
                            lambda *a, **kw: calls.append(kw.get("with_value", True))
                            or forward(*a, **kw))
    envs = [NoisyEnv(n_actions=3, done_at=e, salt=i) for i, e in enumerate((None, 2))]
    for env in envs:
        env.reset()
    rnd, _ = collect_rollout(envs, weights, config,
                             RecurrentState.zeros(config, np.float64, batch=2), 4,
                             [np.random.default_rng(i) for i in range(2)])
    assert rnd.lengths.tolist() == [4, 2]
    assert calls == [False] * 4 + [True]
    assert rnd.bootstrap[0] != 0.0 and rnd.bootstrap[1] == 0.0


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
    rnd, _ = collect_rollout([env], weights, config, RecurrentState.zeros(config),
                             t_max, [np.random.default_rng(0)])
    assert rnd.lengths.tolist() == [t_max] and not rnd.terminal[0]
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
        rnd, state = collect_rollout(envs, weights, config, state, 4, rngs)
        for i in range(3):
            ref, alone_states[i] = collect_rollout([alone[i]], weights, config,
                                                   alone_states[i], 4, [alone_rngs[i]])
            rows = packed_rows(rnd.lengths)[i]
            assert rnd.lengths[i] == ref.lengths[0] and rnd.terminal[i] == ref.terminal[0]
            assert rnd.actions[rows].tolist() == ref.actions.tolist()
            np.testing.assert_allclose(rnd.bootstrap[i], ref.bootstrap[0],
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(state.c[i], alone_states[i].c[0],
                                       rtol=1e-12, atol=1e-15)
    assert [env.t for env in envs] == [12, 4, 9]


def test_collect_rollout_packs_each_env_alone_step_major_longest_first():
    # collector with 3 workers at t_max=7: a round's rows are each env's
    # steps as that env plays them alone, each once, step-major and with
    # the longest segments first
    spec = EnvSpec(name="collector")
    config = small_cfg(n_actions=spec.n_actions)
    weights = init_weights(config, seed=5, dtype=np.float64)
    envs, alone = ([make_env(dataclasses.replace(spec, seed=20 + i)) for i in range(3)]
                   for _ in range(2))
    rngs, alone_rngs = ([np.random.default_rng([7, i]) for i in range(3)] for _ in range(2))
    state = RecurrentState.zeros(config, np.float64, batch=3)
    alone_states = [RecurrentState.zeros(config, np.float64) for _ in range(3)]
    reordered = 0
    for _ in range(12):
        rnd, state = collect_rollout(envs, weights, config, state, 7, rngs)
        refs = []
        for i in range(3):
            ref, alone_states[i] = collect_rollout([alone[i]], weights, config,
                                                   alone_states[i], 7, [alone_rngs[i]])
            refs.append(ref)
        assert rnd.lengths.tolist() == [int(ref.lengths[0]) for ref in refs]
        for name in ("obs", "actions", "rewards", "h", "c"):
            field = getattr(rnd, name)
            expected = pack([getattr(ref, name) for ref in refs], field.dtype)
            np.testing.assert_allclose(field, expected, rtol=1e-12, atol=1e-15, err_msg=name)
        reordered += int(rnd.lengths.tolist() != sorted(rnd.lengths, reverse=True))
    assert reordered > 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("env_name, n_workers, t_max", [("catch", 1, 20), ("collector", 3, 7)],
                         ids=["catch-1w", "collector-3w"])
def test_learner_convlstm_replays_the_recorded_states(env_name, n_workers, t_max, dtype):
    # at each step, the learner's ConvLSTM outputs (h, c_next) over the
    # round are the state the actors recorded entering the next step, or
    # the state carried out of the round
    spec = EnvSpec(name=env_name)
    config = small_cfg(n_actions=spec.n_actions)
    weights = init_weights(config, seed=2, dtype=dtype)
    envs = [make_env(dataclasses.replace(spec, seed=10 + i)) for i in range(n_workers)]
    rngs = [np.random.default_rng([6, i]) for i in range(n_workers)]
    state = RecurrentState.zeros(config, dtype, batch=n_workers)
    tol = dict(rtol=1e-12, atol=1e-15) if dtype == np.float64 else dict(rtol=0, atol=1e-6)
    ragged = 0
    for _ in range(10):
        rnd, state = collect_rollout(envs, weights, config, state, t_max, rngs)
        x = feature_extract(Tensor(rnd.obs[..., None].astype(dtype)), weights, config)
        h, c = ad.convlstm(x, weights["lstm.w"], weights["lstm.b"], rnd.h, rnd.c,
                           step_blocks(rnd.lengths)[1])
        for i, rows in enumerate(packed_rows(rnd.lengths)):
            for out, recorded, carried in ((h.data, rnd.h, state.h), (c, rnd.c, state.c)):
                np.testing.assert_allclose(out[rows[:-1]], recorded[rows[1:]], **tol)
                if not rnd.terminal[i]:
                    np.testing.assert_allclose(out[rows[-1]], carried[i], **tol)
        ragged += int(rnd.lengths.min() < rnd.lengths.max())
    assert ragged > 0 if n_workers > 1 else ragged == 0


def test_collect_rollout_deterministic_given_seed():
    config = small_cfg()
    weights = init_weights(config, seed=1, dtype=np.float32)
    outs = []
    for _ in range(2):
        env = make_env(EnvSpec(name="catch", seed=9))
        rnd, _ = collect_rollout([env], weights, config, RecurrentState.zeros(config, np.float32),
                                 10, [np.random.default_rng(33)])
        outs.append((rnd.actions.tolist(), rnd.rewards.tolist(), rnd.bootstrap.tolist()))
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
    # c.w has tens of thousands of elements, like a layer of the default network, and an odd length
    weights = {"a.w": Tensor(rng.normal(size=(3, 3)).astype(dtype)),
               "b.w": Tensor(rng.normal(size=(4,)).astype(dtype)),
               "c.w": Tensor(rng.normal(size=(2 * 16384 + 7,)).astype(dtype))}
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


def test_metrics_row_of_a_skipped_update_logs_nan_and_empty_cells(tmp_path):
    writer = tr.MetricsWriter(str(tmp_path / "metrics.csv"))
    row = {"policy_loss": 0.1, "value_loss": 1 / 3, "entropy": 1.0, "policy_mask_mean": 0.5,
           "policy_mask_std": 0.25, "value_mask_mean": None, "value_mask_std": None}
    writer.log(40, None, row, None)
    writer.close()
    assert (tmp_path / "metrics.csv").read_text().splitlines()[1] == \
        "40,,0.1,0.3333333333333333,1.0,nan,0.5,0.25,,"


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
    assert lines[0] == ",".join(tr.MetricsWriter.COLUMNS)
    assert len(lines) > 1


def test_train_log_line_splits_the_wall_time_into_phases(tmp_path):
    messages = []
    train(small_cfg(), Hyperparams(total_steps=60, n_workers=2, t_max=8), EnvSpec(name="catch"),
          seed=2, out_dir=str(tmp_path), log=messages.append)
    (line,) = messages
    # the text before the shares is what benchmark scripts parse
    assert re.search(r"\(\d+ steps/s, \d+ updates, 0 skipped\); time shares: ", line), line
    shares = dict(re.findall(r"(\w+) (\d\.\d{3})", line.split("time shares: ")[1]))
    assert list(shares) == list(tr.PHASES)
    values = [float(v) for v in shares.values()]
    assert all(0.0 <= v <= 1.0 for v in values) and sum(values) <= 1.0
    assert values[0] > 0 and values[2] > 0    # rollout and backward took measurable time


@pytest.mark.parametrize("variant, masks", [((False, False), ()), ((True, False), ("policy",)),
                                            ((True, True), ("policy", "value"))],
                         ids=["vanilla", "policy", "both"])
def test_metrics_log_mask_telemetry_per_update(tmp_path, variant, masks):
    config = small_cfg(policy_mask_enabled=variant[0], value_mask_enabled=variant[1])
    train(config, Hyperparams(total_steps=40, n_workers=2, t_max=8), EnvSpec(name="catch"),
          seed=4, out_dir=str(tmp_path))
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and tuple(rows[0]) == tr.MetricsWriter.COLUMNS
    for row in rows:
        for branch in ("policy", "value"):
            mean, std = row[f"{branch}_mask_mean"], row[f"{branch}_mask_std"]
            if branch in masks:
                assert 0.0 < float(mean) < 1.0 and 0.0 <= float(std) < 0.5
            else:
                assert mean == std == ""


def test_loss_components_mask_statistics_are_over_the_real_steps():
    # a ragged round: per branch, the mean over all its steps' mask cells
    # and the mean over those steps of each mask's spatial std
    config = small_cfg()
    weights = init_weights(config, seed=9, dtype=np.float64)
    envs = [NoisyEnv(n_actions=3, done_at=e, salt=i) for i, e in enumerate((None, 2))]
    for env in envs:
        env.reset()
    rnd, _ = collect_rollout(envs, weights, config,
                             RecurrentState.zeros(config, np.float64, batch=2), 5,
                             [np.random.default_rng(i) for i in range(2)])
    _, row = a3c_loss(rnd, weights, config, compute_returns(rnd, 0.99), 0.01, 0.5)
    for branch, name in (("policy", "m_p"), ("value", "m_v")):
        masks = []
        for rows in packed_rows(rnd.lengths):
            state = RecurrentState(rnd.h[rows[:1]], rnd.c[rows[:1]])
            for obs in rnd.obs[rows]:
                trace = forward(obs, state, weights, config)
                state = trace.next_state
                masks.append(getattr(trace, name).data[0, ..., 0])
        assert len(masks) == 7
        np.testing.assert_allclose(row[f"{branch}_mask_mean"], np.mean(masks), rtol=1e-12)
        np.testing.assert_allclose(row[f"{branch}_mask_std"],
                                   np.mean([m.std() for m in masks]), rtol=1e-10)


@pytest.mark.parametrize("config, spec", [
    (small_cfg(n_actions=3), EnvSpec(name="fuel")),
    (small_cfg(n_actions=6), EnvSpec(name="catch")),
    (small_cfg(), EnvSpec(name="catch", size=24)),
], ids=["3-actions-on-fuel", "6-actions-on-catch", "20px-on-size-24"])
def test_a_network_that_does_not_fit_the_env_is_refused_before_anything_is_written(
        tmp_path, config, spec):
    out = tmp_path / "run"
    hyper = Hyperparams(total_steps=60, n_workers=1)
    with pytest.raises(analysis.VariantError):
        train(config, hyper, spec, seed=0, out_dir=str(out))
    with pytest.raises(analysis.VariantError):
        compare_variants(spec, config, seeds=[0], hyper=hyper, episodes=1, out_dir=str(out))
    assert not out.exists()


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


def test_metrics_rows_are_on_disk_before_each_periodic_save(tmp_path, monkeypatch):
    # a run killed after a save keeps every row logged up to that checkpoint's step
    from maskac import checkpoint
    saved, save = [], checkpoint.save_checkpoint

    def save_after_reading_the_log(w, c, path):
        step = int(os.path.basename(path)[5:-5])
        if step:
            with open(tmp_path / "metrics.csv") as fh:
                assert int(fh.read().splitlines()[-1].split(",")[0]) == step
            saved.append(step)
        save(w, c, path)

    monkeypatch.setattr(checkpoint, "save_checkpoint", save_after_reading_the_log)
    train(small_cfg(), Hyperparams(total_steps=100, n_workers=1), EnvSpec(name="catch"), seed=7,
          out_dir=str(tmp_path), checkpoint_interval=30)
    assert saved == [38, 76, 95, 114]     # three periodic saves, then the final one


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
    assert lines[0] == ",".join(tr.MetricsWriter.COLUMNS)
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


@pytest.mark.parametrize("n_workers, total_steps", [(1, 200), (4, 160)])
def test_fixed_seed_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, n_workers,
                                                                  total_steps):
    # a default-size network, whose conv kernel gradients reduce over
    # thousands of patch rows, trained by the CLI in-process and in a child
    # with one OpenBLAS thread: 11 rounds of one worker, or 3 of four
    config = tmp_path / "run.cfg"
    config.write_text(f"n_workers={n_workers}\ntotal_steps={total_steps}\ncheckpoint_interval=0\n")
    here, child = tmp_path / "here", tmp_path / "child"
    assert cli.main(["train", str(config), "--out", str(here)]) == 0
    src = os.path.dirname(os.path.dirname(maskac.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-m", "maskac.cli", "train", str(config), "--out", str(child)],
                   env=env, check=True, capture_output=True)
    ours, theirs = ({f.name: f.read_bytes() for f in run.iterdir() if f.name != "config.resolved"}
                    for run in (here, child))
    # ckpt_0, the final checkpoint, and a metrics.csv of at least two rounds
    assert len(ours) == 3 and ours["metrics.csv"].count(b"\n") > 2
    assert ours == theirs


# ---------------------------------------------------------------------------
# variant comparison (tiny budget; learning quality is covered by acceptance)

def small_base_config():
    return NetworkConfig(fe_channels=(4, 4, 8), lstm_channels=8, branch_channels=4)

def test_compare_variants_structure(tmp_path):
    spec = EnvSpec(name="catch")
    hyper = Hyperparams(total_steps=60, n_workers=1, t_max=10)
    rows = compare_variants(spec, small_base_config(), seeds=[0, 1], hyper=hyper, episodes=3,
                            out_dir=str(tmp_path))
    # 4 variants x (2 seeds + best row)
    assert len(rows) == 4 * 3
    variants = [r["variant"] for r in rows]
    for v in ("vanilla", "policy", "value", "both"):
        assert variants.count(v) == 3
    best_rows = [r for r in rows if r["seed"] == "best"]
    assert len(best_rows) == 4
    for r in best_rows:
        seeds_of_variant = [x["mean"] for x in rows
                            if x["variant"] == r["variant"] and x["seed"] != "best"]
        assert r["mean"] == max(seeds_of_variant)
    table = (tmp_path / "variants.csv").read_text().strip().splitlines()
    assert table[0] == "variant,policy_mask,value_mask,seed,max,mean"
    assert len(table) == 1 + 12


def test_compare_variants_reuses_existing_runs(tmp_path):
    spec = EnvSpec(name="catch")
    hyper = Hyperparams(total_steps=40, n_workers=1, t_max=10)
    rows1 = compare_variants(spec, small_base_config(), seeds=[0], hyper=hyper, episodes=2,
                             out_dir=str(tmp_path))
    mtimes = {}
    for root, _, files in os.walk(tmp_path):
        for f in files:
            if f.endswith(".ma3c"):
                p = os.path.join(root, f)
                mtimes[p] = os.path.getmtime(p)
    rows2 = compare_variants(spec, small_base_config(), seeds=[0], hyper=hyper, episodes=2,
                             out_dir=str(tmp_path))
    for p, m in mtimes.items():
        assert os.path.getmtime(p) == m  # nothing was retrained
    assert [r["mean"] for r in rows1] == [r["mean"] for r in rows2]


def test_compare_variants_retrains_a_run_of_another_network(tmp_path):
    spec = EnvSpec(name="catch")
    hyper = Hyperparams(total_steps=40, n_workers=1, t_max=10)
    for lstm_channels in (8, 4):
        config = dataclasses.replace(small_base_config(), lstm_channels=lstm_channels)
        rows = compare_variants(spec, config, seeds=[0], hyper=hyper, episodes=2,
                                out_dir=str(tmp_path))
        for row in rows:
            assert load_checkpoint(row["ckpt"])[1].lstm_channels == lstm_channels


VARIANT_NAMES = [name for name, _, _ in tr.VARIANTS]
TINY_COMPARE = dict(total_steps=20, n_workers=1, t_max=10)    # catch: a final ckpt_29


def compare_trains(out, spec=EnvSpec(name="catch"), **hyper):
    """The variants, in order, that a one-seed ``compare_variants`` into ``out`` trains."""
    logged = []
    compare_variants(spec, small_base_config(), [0], Hyperparams(**{**TINY_COMPARE, **hyper}),
                     1, str(out), log=logged.append)
    return [line.split()[1] for line in logged if line.startswith("training ")]


@pytest.mark.parametrize("change", [
    # at 25 steps the budget still lies below the first runs' final ckpt_29
    dict(lr=5e-2), dict(total_steps=25), dict(total_steps=10),
    dict(spec=EnvSpec(name="catch", episode_cap=10)),
], ids=["lr", "more-steps", "fewer-steps", "episode-cap"])
def test_compare_variants_retrains_every_variant_when_a_setting_changed(tmp_path, change):
    assert compare_trains(tmp_path) == VARIANT_NAMES
    assert compare_trains(tmp_path, **change) == VARIANT_NAMES
    assert compare_trains(tmp_path, **change) == []      # the new runs are reused in turn


def test_compare_variants_retrains_a_run_whose_checkpoint_stores_another_network(tmp_path):
    compare_trains(tmp_path)
    vanilla = (tmp_path / "vanilla" / "seed_0" / "ckpt_29.ma3c").read_bytes()
    (tmp_path / "both" / "seed_0" / "ckpt_29.ma3c").write_bytes(vanilla)
    assert compare_trains(tmp_path) == ["both"]


def _replace_by_fifo(path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("os.mkfifo is not available")
    path.unlink()
    os.mkfifo(path)           # opening it to read would block until a writer comes


@pytest.mark.parametrize("damage", [
    Path.unlink,      # as a run killed before it finished, or one written before runs had records
    lambda p: p.write_bytes(p.read_bytes()[:-1]),
    lambda p: p.write_bytes(p.read_bytes()[:len(p.read_bytes()) // 2]),
    lambda p: p.write_bytes(b""),
    lambda p: p.write_bytes(p.read_bytes().replace(b"lr=", b"lr=\xff")),
    _replace_by_fifo,
], ids=["missing", "no-final-newline", "cut-in-half", "empty", "not-utf-8", "fifo"])
def test_compare_variants_retrains_a_run_whose_record_is_missing_or_damaged(tmp_path, damage):
    compare_trains(tmp_path)
    record = tmp_path / "both" / "seed_0" / tr.RECORD
    text = record.read_text()
    damage(record)
    assert compare_trains(tmp_path) == ["both"]
    assert record.read_text() == text


def test_a_compare_run_killed_while_it_retrains_leaves_no_record(tmp_path, monkeypatch):
    # killed after writing a final checkpoint under the old run's name, before its record
    compare_trains(tmp_path)
    real_train = tr.train

    def killed_after_training(*args, **kwargs):
        real_train(*args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(tr, "train", killed_after_training)
    with pytest.raises(KeyboardInterrupt):
        compare_trains(tmp_path, lr=5e-2)
    monkeypatch.undo()
    assert not (tmp_path / "vanilla" / "seed_0" / tr.RECORD).exists()
    assert compare_trains(tmp_path) == ["vanilla"]


def test_compare_variants_refuses_a_repeated_seed_before_anything_is_written(tmp_path):
    with pytest.raises(ValueError, match="repeat"):
        compare_variants(EnvSpec(name="catch"), small_base_config(), [0, 1, 0],
                         Hyperparams(**TINY_COMPARE), 1, str(tmp_path / "cmp"))
    assert not (tmp_path / "cmp").exists()


def test_train_refuses_a_negative_checkpoint_interval_before_anything_is_written(tmp_path):
    with pytest.raises(ValueError, match="checkpoint_interval"):
        train(small_cfg(), Hyperparams(**TINY_COMPARE), EnvSpec(name="catch"), seed=0,
              out_dir=str(tmp_path / "run"), checkpoint_interval=-5)
    assert not (tmp_path / "run").exists()
