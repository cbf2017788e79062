"""Environment rules, rendering, determinism, and the injection hook."""

import numpy as np
import pytest

from maskac.envs import (AGENT, CHASER, FUEL_BAR, TARGET, WALL,
                         CatchEnv, CollectorEnv, EnvSpec, FuelEnv,
                         InjectionSpec, make_env, render_cells)


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

def test_render_empty_world_is_all_zeros():
    np.testing.assert_array_equal(render_cells(5, []), np.zeros((5, 5), dtype=np.float32))


def test_render_two_entities_at_distinct_cells():
    grid = render_cells(6, [(1, 2, TARGET), (4, 5, CHASER)])
    assert grid[1, 2] == np.float32(TARGET)
    assert grid[4, 5] == np.float32(CHASER)
    assert np.count_nonzero(grid) == 2


def test_render_overlap_later_entity_wins():
    grid = render_cells(4, [(2, 2, TARGET), (2, 2, AGENT)])
    assert grid[2, 2] == np.float32(AGENT)


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
