"""Shared fixtures."""

import pytest

from tilevsr import sampler


@pytest.fixture
def reverse_tiles(monkeypatch):
    """A switch: once called, the sampler runs its tile tasks (SAP gather
    stacks and the stacks of each wave) in reverse order, threaded when
    workers > 1, and still gets the results in item order: every task of a
    call runs before the first result is handed back. The switch returns
    the names of the task functions run since, so a test can check which
    passes it reached."""
    real = sampler._map_tiles
    reached: list[str] = []

    def reversed_map(items, fn, workers):
        reached.append(fn.__name__)
        return iter(list(real(items[::-1], fn, workers))[::-1])

    def switch() -> list[str]:
        monkeypatch.setattr(sampler, "_map_tiles", reversed_map)
        return reached

    return switch
