"""Built-in pixel-observation environments.

Three desk-scale episodic tasks, all rendering to a grayscale grid in
[0,1] and fully deterministic given (seed, action list):

* catch      -- a ball falls with fixed horizontal drift toward a paddle.
* collector  -- gather pellets on a walled grid while a chaser pursues.
* fuel       -- dive for targets in a column world; a bottom-row fuel bar
                depletes every step and refills at the surface.

Observations can additionally be overdrawn with injected sprites
(``inject``): the sprite alters pixels only, never the underlying rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AGENT = 1.0
FUEL_BAR = 0.9
CHASER = 0.8
TARGET = 0.6  # pellets, falling ball, dive targets
WALL = 0.3

ENV_NAMES = ("catch", "collector", "fuel")


@dataclass
class EnvSpec:
    """Which environment to build; ``episode_cap=None`` means the env's default cap."""

    name: str = "catch"
    size: int = 20
    episode_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.name not in ENV_NAMES:
            raise ValueError(f"unknown env {self.name!r}; choose from {ENV_NAMES}")
        cls = _ENV_CLASSES[self.name]
        if self.size < cls.MIN_SIZE:
            raise ValueError(f"{self.name} needs size >= {cls.MIN_SIZE}, got {self.size}")
        if self.episode_cap is None:
            self.episode_cap = {"catch": self.size, "collector": 300, "fuel": 200}[self.name]
        elif self.episode_cap < 1:
            raise ValueError(f"episode_cap must be >= 1, got {self.episode_cap}")

    @property
    def n_actions(self):
        return len(_ENV_CLASSES[self.name].action_names)


@dataclass
class StepResult:
    obs: np.ndarray
    reward: float
    done: bool


@dataclass
class InjectionSpec:
    """A sprite composited over the observation for a window of frames.

    ``stencil`` marks which sprite pixels overwrite the frame; ``duration``
    of None means permanent.
    """

    sprite: np.ndarray
    stencil: np.ndarray
    position: tuple
    start_frame: int
    duration: int | None = None

    def __post_init__(self):
        self.sprite = np.asarray(self.sprite, dtype=np.float32)
        self.stencil = np.asarray(self.stencil, dtype=bool)
        if self.sprite.shape != self.stencil.shape or self.sprite.ndim != 2:
            raise ValueError("sprite and stencil must be 2-d arrays of the same shape")
        if self.start_frame < 0 or (self.duration is not None and self.duration < 0):
            raise ValueError("start_frame and duration must be non-negative")

    def active(self, frame):
        if frame < self.start_frame:
            return False
        return self.duration is None or frame < self.start_frame + self.duration


def render_cells(size, cells):
    """Paint (row, col, value) triples onto a zero grid; later cells win."""
    grid = np.zeros((size, size), dtype=np.float32)
    for r, c, v in cells:
        grid[r, c] = v
    return grid


class _BaseEnv:
    """Episode bookkeeping, rendering pipeline and the injection hook."""

    action_names: tuple = ()

    def __init__(self, spec: EnvSpec):
        self.size = spec.size
        self.episode_cap = spec.episode_cap
        self._rng = np.random.default_rng(spec.seed)
        self._injections: list[InjectionSpec] = []
        self.done = True
        self.frame = 0
        self.score = 0.0

    @property
    def n_actions(self):
        return len(self.action_names)

    def reset(self, seed=None):
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._injections = []
        self.done = False
        self.frame = 0
        self.score = 0.0
        self._reset_layout(self._rng)
        return self.observe()

    def inject(self, spec: InjectionSpec):
        r, c = spec.position
        h, w = spec.sprite.shape
        if r < 0 or c < 0 or r + h > self.size or c + w > self.size:
            raise ValueError(
                f"sprite {h}x{w} at {spec.position} does not fit a {self.size}x{self.size} frame")
        self._injections.append(spec)

    def observe(self):
        obs = render_cells(self.size, self._entity_cells())
        for spec in self._injections:
            if spec.active(self.frame):
                r, c = spec.position
                h, w = spec.sprite.shape
                region = obs[r:r + h, c:c + w]
                region[spec.stencil] = spec.sprite[spec.stencil]
        return obs

    def step(self, action):
        if self.done:
            raise RuntimeError("step after episode end; call reset first")
        if not (0 <= action < self.n_actions):
            raise ValueError(f"action {action} out of range [0, {self.n_actions})")
        self.frame += 1
        reward = self._advance(int(action))
        if not self.done and self.frame >= self.episode_cap:
            self.done = True
        self.score += reward
        return StepResult(self.observe(), reward, self.done)

    # subclass hooks
    def _reset_layout(self, rng):
        raise NotImplementedError

    def _advance(self, action) -> float:
        raise NotImplementedError

    def _entity_cells(self):
        raise NotImplementedError


class CatchEnv(_BaseEnv):
    """Ball falls one row per step with constant drift; the paddle must be under it."""

    action_names = ("left", "stay", "right")
    PADDLE_HALF = 3
    MIN_SIZE = 2 * PADDLE_HALF + 1   # the whole paddle fits the bottom row

    def _reset_layout(self, rng):
        self.ball_row = 0
        self.ball_col = int(rng.integers(0, self.size))
        self.drift = int(rng.integers(-1, 2))
        self.paddle = self.size // 2

    def _advance(self, action):
        lo, hi = self.PADDLE_HALF, self.size - 1 - self.PADDLE_HALF
        self.paddle = int(np.clip(self.paddle + (action - 1), lo, hi))
        self.ball_row += 1
        col = self.ball_col + self.drift
        if col < 0:
            col, self.drift = -col, -self.drift
        elif col > self.size - 1:
            col, self.drift = 2 * (self.size - 1) - col, -self.drift
        self.ball_col = col
        if self.ball_row == self.size - 1:
            self.done = True
            return 1.0 if abs(self.ball_col - self.paddle) <= self.PADDLE_HALF else -1.0
        return 0.0

    def _entity_cells(self):
        cells = [(self.ball_row, self.ball_col, TARGET)]
        r = self.size - 1
        cells += [(r, c, AGENT) for c in range(self.paddle - self.PADDLE_HALF,
                                               self.paddle + self.PADDLE_HALF + 1)]
        return cells


class CollectorEnv(_BaseEnv):
    """Pellet gathering on a walled grid with a greedy chaser moving every 2nd step."""

    action_names = ("up", "down", "left", "right", "stay")
    MOVES = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1), 4: (0, 0)}
    N_PELLETS = 8
    # The interior (size-2)^2 must hold the agent, the chaser and every pellet;
    # on such a grid some interior cells lie size // 2 apart, so the chaser
    # placement in _reset_layout ends.
    MIN_SIZE = 2 + math.isqrt(N_PELLETS + 1) + 1

    def _interior(self):
        return [(r, c) for r in range(1, self.size - 1) for c in range(1, self.size - 1)]

    def _reset_layout(self, rng):
        interior = self._interior()
        self.agent = interior[int(rng.integers(len(interior)))]
        while True:
            self.chaser = interior[int(rng.integers(len(interior)))]
            if abs(self.chaser[0] - self.agent[0]) + abs(self.chaser[1] - self.agent[1]) \
                    >= self.size // 2:
                break
        free = [cell for cell in interior if cell not in (self.agent, self.chaser)]
        idx = rng.choice(len(free), size=self.N_PELLETS, replace=False)
        self.pellets = {free[int(i)] for i in idx}

    def _blocked(self, r, c):
        return r <= 0 or r >= self.size - 1 or c <= 0 or c >= self.size - 1

    def _advance(self, action):
        dr, dc = self.MOVES[action]
        nr, nc = self.agent[0] + dr, self.agent[1] + dc
        if not self._blocked(nr, nc):
            self.agent = (nr, nc)
        reward = 0.0
        if self.agent in self.pellets:
            self.pellets.discard(self.agent)
            reward += 1.0
        caught = self.agent == self.chaser
        if not caught and self.frame % 2 == 0:
            cr, cc = self.chaser
            ar, ac = self.agent
            if cr != ar:
                cr += 1 if ar > cr else -1
            elif cc != ac:
                cc += 1 if ac > cc else -1
            self.chaser = (cr, cc)
            caught = self.agent == self.chaser
        if caught:
            reward -= 1.0
            self.done = True
        elif not self.pellets:
            self.done = True
        return reward

    def _entity_cells(self):
        cells = [(r, c, WALL) for r in range(self.size) for c in range(self.size)
                 if self._blocked(r, c)]
        cells += [(r, c, TARGET) for r, c in sorted(self.pellets)]
        cells.append((*self.chaser, CHASER))
        cells.append((*self.agent, AGENT))
        return cells


class FuelEnv(_BaseEnv):
    """Column world: dive to collect targets, surface to refill the fuel gauge.

    Fuel depletes one unit per step and refills to max while the agent is
    in the top row; at zero fuel the episode ends with -1.  The gauge,
    a 3-row strip along the bottom, is the only pixel evidence of the
    fuel level, and its starting value is randomized so step counting
    cannot substitute for reading it.
    """

    action_names = ("up", "down", "left", "right", "stay", "collect")
    MOVES = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1), 4: (0, 0), 5: (0, 0)}
    BAR_ROWS = 3
    MIN_SIZE = 2 * BAR_ROWS + 3   # leaves the dive rows size // 2 .. bottom - 1 non-empty

    def __init__(self, spec):
        super().__init__(spec)
        self.fuel_max = 2 * self.size
        self.bottom = self.size - 1 - self.BAR_ROWS       # deepest playfield row
        self.depth_rows = (self.size // 2, self.bottom - 1)

    def _reset_layout(self, rng):
        self.agent = (0, int(rng.integers(0, self.size)))
        self.fuel = int(rng.integers((5 * self.fuel_max) // 8, self.fuel_max + 1))
        self._spawn_target(rng)

    def _spawn_target(self, rng):
        lo, hi = self.depth_rows
        while True:
            cell = (int(rng.integers(lo, hi + 1)), int(rng.integers(0, self.size)))
            if cell != self.agent:
                self.target = cell
                return

    def _advance(self, action):
        dr, dc = self.MOVES[action]
        nr = int(np.clip(self.agent[0] + dr, 0, self.bottom))
        nc = int(np.clip(self.agent[1] + dc, 0, self.size - 1))
        self.agent = (nr, nc)
        reward = 0.0
        if action == 5 and self.agent == self.target:
            reward += 1.0
            self._spawn_target(self._rng)
        if self.agent[0] == 0:
            self.fuel = self.fuel_max
        else:
            self.fuel -= 1
        if self.fuel <= 0:
            reward -= 1.0
            self.done = True
        return reward

    def fuel_bar_pixels(self):
        """Lit columns per gauge row."""
        return int(np.ceil(self.size * self.fuel / self.fuel_max))

    def _entity_cells(self):
        lit = self.fuel_bar_pixels()
        cells = [(r, c, FUEL_BAR)
                 for r in range(self.size - self.BAR_ROWS, self.size)
                 for c in range(lit)]
        cells.append((*self.target, TARGET))
        cells.append((*self.agent, AGENT))
        return cells


_ENV_CLASSES = {"catch": CatchEnv, "collector": CollectorEnv, "fuel": FuelEnv}


def make_env(spec: EnvSpec):
    env = _ENV_CLASSES[spec.name](spec)
    env.reset()
    return env
