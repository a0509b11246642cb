import pytest

from bsdelab import engine


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
