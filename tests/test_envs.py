"""Environment rules, rendering, determinism, and the injection hook."""

import hashlib
import struct

import numpy as np
import pytest

from maskac.envs import (AGENT, CHASER, FUEL_BAR, TARGET, WALL,
                         CatchEnv, CollectorEnv, EnvSpec, FuelEnv,
                         InjectionSpec, _BaseEnv, make_env)


def collector_rules_oracle(seed, actions, size=20, n_pellets=8):
    """Independent replay of the collector rules; returns the final score.

    Deliberately re-derives the layout from the same seeded draws and
    then steps the written rules: walls block, pellet +1, chaser moves
    greedily (row before column) every second step, contact -1 ends it.
    """
    rng = np.random.default_rng(seed)
    interior = [(r, c) for r in range(1, size - 1) for c in range(1, size - 1)]
    agent = interior[int(rng.integers(len(interior)))]
    while True:
        chaser = interior[int(rng.integers(len(interior)))]
        if abs(chaser[0] - agent[0]) + abs(chaser[1] - agent[1]) >= size // 2:
            break
    free = [cell for cell in interior if cell not in (agent, chaser)]
    idx = rng.choice(len(free), size=n_pellets, replace=False)
    pellets = {free[int(i)] for i in idx}

    moves = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1), 4: (0, 0)}
    score = 0.0
    for t, a in enumerate(actions, start=1):
        nr, nc = agent[0] + moves[a][0], agent[1] + moves[a][1]
        if 1 <= nr <= size - 2 and 1 <= nc <= size - 2:
            agent = (nr, nc)
        if agent in pellets:
            pellets.discard(agent)
            score += 1.0
        caught = agent == chaser
        if not caught and t % 2 == 0:
            if chaser[0] != agent[0]:
                chaser = (chaser[0] + (1 if agent[0] > chaser[0] else -1), chaser[1])
            elif chaser[1] != agent[1]:
                chaser = (chaser[0], chaser[1] + (1 if agent[1] > chaser[1] else -1))
            caught = agent == chaser
        if caught:
            score -= 1.0
            return score
        if not pellets:
            return score
    return score


# ---------------------------------------------------------------------------
# rendering

def scripted_run_digest(name, size):
    """SHA-256 over the frames, rewards and done flags of three episodes of seeded random play.

    A partly stenciled sprite shows in frames 2-6 of the first episode.
    """
    env = make_env(EnvSpec(name=name, size=size, seed=31))
    env.inject(InjectionSpec(np.full((2, 3), 0.45, dtype=np.float32),
                             np.array([[1, 0, 1], [1, 1, 0]], dtype=bool),
                             position=(size - 2, 1), start_frame=2, duration=5))
    rng = np.random.default_rng(17)
    digest = hashlib.sha256()
    for episode in range(3):
        if episode:
            env.reset()
        digest.update(env.observe().tobytes())
        while not env.done:
            res = env.step(int(rng.integers(env.n_actions)))
            digest.update(res.obs.tobytes())
            digest.update(struct.pack("<d?", res.reward, res.done))
    return digest.hexdigest()


# Digests of the earlier renderer, which painted a list of (row, col, value) cells.
@pytest.mark.parametrize("name,size,expected", [
    ("catch", CatchEnv.MIN_SIZE,
     "69889a84c720e9d225506ce6d3af7a33a770a056911d9dfbc334ee0d4c353e32"),
    ("catch", 20, "f9a01527bf90b696b40edc5025cb07c2762c4d3bfefd4eb827d0735d88ad3571"),
    ("collector", CollectorEnv.MIN_SIZE,
     "f54e07f974845deea05cf8487852ddbc53da36c0bbc0087f8e22da608d69c344"),
    ("collector", 20, "a56ed7a0c67af6d8048ed3fe86c716722113ebd995c78587134c38ced745c755"),
    ("fuel", FuelEnv.MIN_SIZE,
     "201ebe395b9f7139df38e5153c50bab1db5d5ed9280ea7608d9f19c10e8db5f5"),
    ("fuel", 20, "09316afa0a17c9a2df7da75d34a35b57e55ed636cc93e0edbad701156c92dc8b"),
])
def test_scripted_run_matches_golden_digest(name, size, expected):
    assert scripted_run_digest(name, size) == expected


def test_an_env_without_its_hooks_raises_not_implemented():
    class Bare(_BaseEnv):
        action_names = ("stay",)

    env = Bare(EnvSpec())
    with pytest.raises(NotImplementedError):
        env.reset()          # _reset_layout
    with pytest.raises(NotImplementedError):
        env.observe()        # _draw
    env.done = False
    with pytest.raises(NotImplementedError):
        env.step(0)          # _advance


def test_collector_agent_is_drawn_over_the_chaser_that_caught_it():
    env = make_env(EnvSpec(name="collector", seed=2))
    env.agent, env.chaser, env.pellets = (4, 4), (4, 5), {(1, 1)}
    assert not env.step(4).done     # frame 1: the chaser waits
    res = env.step(4)               # frame 2: it steps onto the agent
    assert res.done and res.reward == -1.0
    assert env.chaser == env.agent
    assert res.obs[4, 4] == np.float32(AGENT)
    assert np.count_nonzero(res.obs == np.float32(CHASER)) == 0


# ---------------------------------------------------------------------------
# determinism and shared contracts

@pytest.mark.parametrize("name", ["catch", "collector", "fuel"])
def test_same_seed_same_initial_observation(name):
    a = make_env(EnvSpec(name=name, seed=11)).observe()
    b = make_env(EnvSpec(name=name, seed=11)).observe()
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", ["catch", "collector", "fuel"])
def test_seed_and_actions_fix_the_whole_trajectory(name):
    runs = []
    for _ in range(2):
        env = make_env(EnvSpec(name=name, seed=3))
        rng = np.random.default_rng(5)
        frames, rewards = [env.observe()], []
        while not env.done and len(rewards) < 60:
            res = env.step(int(rng.integers(env.n_actions)))
            frames.append(res.obs)
            rewards.append(res.reward)
        runs.append((frames, rewards))
    assert runs[0][1] == runs[1][1]
    for fa, fb in zip(runs[0][0], runs[1][0]):
        np.testing.assert_array_equal(fa, fb)


@pytest.mark.parametrize("name", ["catch", "collector", "fuel"])
def test_observations_stay_in_unit_range_and_cap_holds(name):
    env = make_env(EnvSpec(name=name, seed=9))
    steps = 0
    while not env.done:
        res = env.step(0)
        steps += 1
        assert res.obs.min() >= 0.0 and res.obs.max() <= 1.0
        assert np.isfinite(res.reward)
    assert steps <= env.episode_cap


def test_step_after_done_and_bad_action_raise():
    env = make_env(EnvSpec(name="catch", seed=0))
    while not env.done:
        env.step(1)
    with pytest.raises(RuntimeError):
        env.step(1)
    env.reset()
    with pytest.raises(ValueError):
        env.step(3)


# ---------------------------------------------------------------------------
# catch

def test_catch_initial_layout():
    env = make_env(EnvSpec(name="catch", seed=4))
    obs = env.observe()
    assert obs[0].max() == np.float32(TARGET)          # ball in top row
    assert np.count_nonzero(obs[-1] == np.float32(AGENT)) == 7  # paddle in bottom row
    assert np.count_nonzero(obs[1:-1]) == 0


def test_catch_reward_and_termination():
    env = make_env(EnvSpec(name="catch", seed=4))
    # hold still; replay physics to predict the landing column
    col, drift = env.ball_col, env.drift
    for _ in range(env.size - 1):
        col += drift
        if col < 0:
            col, drift = -col, -drift
        elif col > env.size - 1:
            col, drift = 2 * (env.size - 1) - col, -drift
    res = None
    while not env.done:
        res = env.step(1)
    expected = 1.0 if abs(col - env.paddle) <= CatchEnv.PADDLE_HALF else -1.0
    assert res.reward == expected
    assert res.done


def test_catch_paddle_under_ball_scores():
    found_hit = found_miss = False
    for seed in range(60):
        env = make_env(EnvSpec(name="catch", seed=seed))
        while not env.done:
            # perfect chase: move toward the ball column
            a = 0 if env.ball_col < env.paddle else (2 if env.ball_col > env.paddle else 1)
            res = env.step(a)
        if res.reward == 1.0:
            assert abs(env.ball_col - env.paddle) <= CatchEnv.PADDLE_HALF
            found_hit = True
        else:
            found_miss = True
    assert found_hit and not found_miss  # the chase policy always catches


# ---------------------------------------------------------------------------
# collector

def test_collector_reset_shows_all_pellets():
    env = make_env(EnvSpec(name="collector", seed=6))
    obs = env.observe()
    pellet_pixels = np.count_nonzero(obs == np.float32(TARGET))
    assert pellet_pixels == CollectorEnv.N_PELLETS
    assert np.isclose(obs[obs == np.float32(TARGET)].sum(),
                      CollectorEnv.N_PELLETS * TARGET, atol=1e-6)
    assert np.count_nonzero(obs == np.float32(AGENT)) == 1
    assert np.count_nonzero(obs == np.float32(CHASER)) == 1
    assert obs[0, 0] == np.float32(WALL)


def test_collector_scripted_episode_matches_rules_oracle():
    for seed in (0, 1, 2, 3):
        actions_rng = np.random.default_rng(seed + 100)
        actions = [int(actions_rng.integers(5)) for _ in range(300)]
        env = make_env(EnvSpec(name="collector", seed=seed))
        i = 0
        while not env.done and i < len(actions):
            env.step(actions[i])
            i += 1
        assert env.score == collector_rules_oracle(seed, actions[:i])


def test_collector_ends_with_plus_one_when_the_last_pellet_is_taken():
    env = make_env(EnvSpec(name="collector", seed=2))
    env.agent, env.chaser, env.pellets = (4, 4), (8, 8), {(4, 5)}
    res = env.step(3)               # right, onto the last pellet; the chaser waits
    assert res.done and res.reward == 1.0
    assert not env.pellets and env.score == 1.0


def test_collector_total_reward_bounded_by_pellets():
    env = make_env(EnvSpec(name="collector", seed=8))
    rng = np.random.default_rng(0)
    while not env.done:
        env.step(int(rng.integers(5)))
    assert env.score <= CollectorEnv.N_PELLETS


# ---------------------------------------------------------------------------
# fuel

def test_fuel_bar_stays_full_at_surface():
    env = make_env(EnvSpec(name="fuel", seed=7))
    for _ in range(3):
        res = env.step(4)  # stay in top row
        bar = res.obs[-env.BAR_ROWS:]
        assert np.count_nonzero(bar == np.float32(FUEL_BAR)) == env.BAR_ROWS * env.size
    assert env.fuel == env.fuel_max


def test_fuel_depletes_without_surfacing():
    env = make_env(EnvSpec(name="fuel", seed=7))
    env.step(1)  # leave the surface
    start = env.fuel
    for _ in range(4):
        env.step(4)
    assert env.fuel == start - 4
    assert env.fuel_bar_pixels() == int(np.ceil(env.size * env.fuel / env.fuel_max))


def test_fuel_exhaustion_penalizes_and_ends():
    env = make_env(EnvSpec(name="fuel", seed=7))
    env.step(1)
    res = None
    while not env.done:
        res = env.step(4)
    assert res.reward == -1.0
    assert env.fuel == 0


def test_fuel_collect_rewards_on_target_only():
    env = make_env(EnvSpec(name="fuel", seed=7))
    r0 = env.step(5).reward  # collect at spawn: not on target
    assert r0 == 0.0
    # drive to the target and collect
    while env.agent != env.target and not env.done:
        tr, tc = env.target
        ar, ac = env.agent
        if ar != tr:
            env.step(1 if tr > ar else 0)
        else:
            env.step(3 if tc > ac else 2)
    assert not env.done
    res = env.step(5)
    assert res.reward == 1.0
    assert env.target != env.agent  # respawned elsewhere


# ---------------------------------------------------------------------------
# injection

def _env_with_sprite(duration):
    env = make_env(EnvSpec(name="fuel", seed=12))
    sprite = np.full((2, 3), 0.7, dtype=np.float32)
    stencil = np.ones((2, 3), dtype=bool)
    env.inject(InjectionSpec(sprite, stencil, position=(5, 5),
                             start_frame=2, duration=duration))
    return env


def test_injection_appears_in_window_only():
    env = _env_with_sprite(duration=1)
    assert not np.any(env.observe()[5:7, 5:8] == np.float32(0.7))   # frame 0
    assert not np.any(env.step(4).obs[5:7, 5:8] == np.float32(0.7))  # frame 1
    obs2 = env.step(4).obs                                           # frame 2: active
    np.testing.assert_array_equal(obs2[5:7, 5:8], np.full((2, 3), 0.7, dtype=np.float32))
    assert not np.any(env.step(4).obs[5:7, 5:8] == np.float32(0.7))  # frame 3: expired


def full_gauge_sprite(env):
    rows = env.BAR_ROWS
    sprite = np.full((rows, env.size), FUEL_BAR, dtype=np.float32)
    stencil = np.ones((rows, env.size), dtype=bool)
    return InjectionSpec(sprite, stencil, position=(env.size - rows, 0),
                         start_frame=0, duration=None)


def test_injection_never_changes_rules_or_returns():
    actions = [int(a) for a in np.random.default_rng(1).integers(0, 6, size=80)]
    scores = []
    fuels = []
    for injected in (False, True):
        env = make_env(EnvSpec(name="fuel", seed=13))
        if injected:
            env.inject(full_gauge_sprite(env))  # fake full gauge over the real one
        for a in actions:
            if env.done:
                break
            env.step(a)
        scores.append(env.score)
        fuels.append(env.fuel)
    assert scores[0] == scores[1]
    assert fuels[0] == fuels[1]


def test_injected_bar_reads_full_while_fuel_depletes():
    env = make_env(EnvSpec(name="fuel", seed=14))
    env.inject(full_gauge_sprite(env))
    env.step(1)  # dive
    f0 = env.fuel
    for _ in range(5):
        res = env.step(4)
    lit = np.count_nonzero(res.obs[-env.BAR_ROWS:] == np.float32(FUEL_BAR))
    assert lit == env.BAR_ROWS * env.size
    assert env.fuel == f0 - 5  # true variable kept depleting


def test_injection_out_of_bounds_rejected():
    env = make_env(EnvSpec(name="fuel", seed=15))
    sprite = np.ones((4, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        env.inject(InjectionSpec(sprite, np.ones((4, 4), dtype=bool),
                                 position=(18, 18), start_frame=0))


def test_injection_sprite_and_stencil_of_different_shapes_rejected():
    with pytest.raises(ValueError, match="same shape"):
        InjectionSpec(np.ones((4, 4)), np.ones((4, 3), dtype=bool), position=(0, 0),
                      start_frame=0)


def test_env_spec_validation():
    with pytest.raises(ValueError):
        EnvSpec(name="pong")
    assert EnvSpec(name="fuel").n_actions == 6
    # no cap means the env's own: the catch grid height, 300 and 200 steps
    assert [EnvSpec(name=n, size=9).episode_cap for n in ("catch", "collector", "fuel")] \
        == [9, 300, 200]
    assert make_env(EnvSpec(name="fuel", episode_cap=7)).episode_cap == 7
    with pytest.raises(ValueError):
        EnvSpec(name="catch", episode_cap=0)
