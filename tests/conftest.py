"""Shared test helpers: driving the simulator's engine on scripted draws."""

import numpy as np
import pytest

from lobfluid.simulate import _run


class ScriptedUniforms:
    """Stands in for a numpy Generator: `random` serves the scripted
    uniforms in order, then 0.5 forever."""

    def __init__(self, script):
        self.script = list(script)

    def random(self, size=None):
        if size is None:
            return self.script.pop(0) if self.script else 0.5
        out = np.full(size, 0.5)
        head = self.script[:size]
        out[:len(head)] = head
        del self.script[:size]
        return out


@pytest.fixture
def fire_once():
    """Run the engine from `state` through exactly one event, fired at time
    0 with selection uniform `u`; returns (final state, counters)."""
    def run(params, scale, state, u):
        # holding uniform 0 fires at t = 0; the next one, 0.5, lands past
        # the horizon, and a one-event budget would catch a second event
        _, _, n_events, final, counters = _run(
            params, scale, state, 1e-9, [], ScriptedUniforms([0.0, u]), 1)
        assert n_events == 1
        return final, counters
    return run
