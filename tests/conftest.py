import pytest

from bsdelab import engine, learning, stochastic


@pytest.fixture
def factorizations(monkeypatch):
    """The step of every design the regression plans factor during a test."""
    calls = []
    original = engine.fit_projection

    def counting(design, step, *args, **kwargs):
        calls.append(step)
        return original(design, step, *args, **kwargs)

    monkeypatch.setattr(engine, "fit_projection", counting)
    return calls


@pytest.fixture
def simulations(monkeypatch):
    """The grid of every forward simulation the library runs during a test.

    Counts calls made through the `stochastic`, `engine` and `learning`
    module attributes, which is how the library and the CLI reach
    `simulate_forward`; a test module's own imported name is not counted.
    """
    calls = []
    original = stochastic.simulate_forward

    def counting(model, grid, *args, **kwargs):
        calls.append(grid)
        return original(model, grid, *args, **kwargs)

    for module in (stochastic, engine, learning):
        monkeypatch.setattr(module, "simulate_forward", counting)
    return calls
