import pytest

from sfgsim import presets


@pytest.fixture(autouse=True)
def _no_pending_presets():
    """A fig1-fig3 ensemble pending from another test never reaches this one."""
    presets._PENDING.clear()
    yield
    presets._PENDING.clear()
