"""Stateful environment wrapper around the pure dynamics.

Owns the per-step uniform noise stream; the physics are `dynamics`' module
constants. `step` takes its draw from the stream unless the caller passes
one; `playsys.execute` draws it itself and records it, so a stored episode
can be replayed bit-exactly (the draw decides grasp slip fates and nothing
else).
"""

from __future__ import annotations

from . import dynamics
from .dynamics import Action, Event
from .rng import Rng
from .scene import EnvState, SceneConfig


class Env:
    """The simulator at scene's nominal state, its noise stream seeded from
    seed; `reset` moves it to a copy of a caller's start state."""

    def __init__(self, scene: SceneConfig, seed: int):
        self.rng = Rng(seed)
        self.state = scene.nominal_state()

    def reset(self, state: EnvState) -> EnvState:
        self.state = state.copy()
        return self.state

    def step(self, action: Action, u: float | None = None) -> tuple[EnvState, Event]:
        if u is None:
            u = self.rng.uniform()
        self.state, event = dynamics.step(self.state, action, u)
        return self.state, event
