"""The one ambient slot, through each of the four observers that use it."""

import pytest

from repro.obs import audit, simprofile, timeseries, tracer
from repro.obs.ambient import Slot
from repro.sim.engine import Simulator

# (module, its ``active_*`` getter, ``capture`` arguments, what the slot
# holds when empty, the Simulator attribute that binds it -- the auditor
# is consulted by the monitor's probes, not bound by the engine).
OBSERVERS = [
    (tracer, tracer.active_tracer, {}, tracer.NULL_TRACER, "trace"),
    (simprofile, simprofile.active_profiler, {}, None, "_profile"),
    (timeseries, timeseries.active_sampler, {"interval": 0.5}, None, "_sampler"),
    (audit, audit.active_auditor, {"fail_fast": True}, None, None),
]


@pytest.mark.parametrize(
    "module, active, kwargs, empty, bound_as", OBSERVERS,
    ids=[module.__name__.rsplit(".", 1)[1] for module, *_ in OBSERVERS],
)
def test_capture_scopes_nests_and_binds(module, active, kwargs, empty, bound_as):
    assert isinstance(module._SLOT, Slot)
    outside = Simulator()
    assert active() is empty
    with module.capture(**kwargs) as outer:
        assert active() is outer
        with module.capture(**kwargs) as inner:
            assert inner is not outer and active() is inner
        assert active() is outer  # nesting restores the previous occupant
        with pytest.raises(RuntimeError, match="boom"):
            with module.capture(**kwargs):
                raise RuntimeError("boom")
        assert active() is outer  # ...also when the block raised
        inside = Simulator()
    assert active() is empty
    if bound_as is not None:
        # Bound at construction and kept: the block's end does not unbind
        # a simulator built inside, nor its start bind one built before.
        assert getattr(inside, bound_as) is outer
        assert getattr(outside, bound_as) is empty
