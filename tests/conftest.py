import pytest

from sfgsim import presets


@pytest.fixture(autouse=True)
def _no_pending_presets():
    """fig1-fig3 results pending from another test never reach this one."""
    presets._PENDING.clear()
    yield
    presets._PENDING.clear()
