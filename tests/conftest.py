import gc

import pytest


def _set_collector(on: bool) -> None:
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for one test, then put back
    as it was; yields whether it is on."""
    was_enabled = gc.isenabled()
    _set_collector(request.param)
    yield request.param
    _set_collector(was_enabled)
