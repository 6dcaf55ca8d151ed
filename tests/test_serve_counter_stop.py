"""Counter-triggered measurement stops are invisible in the results.

The session runs the kernel in one ``sim.run`` per measurement phase
and relies on the completion counters' tripwire to stop it at the exact
event where a phase target is reached.  Any chunking of the same spec —
the batch path, fixed event budgets, fixed time bounds — must therefore
produce byte-identical ``ExperimentResult`` JSON, and a stalled spec
must fail at the same instant with the same message as the per-event
polling loop it replaced.
"""

import json

import pytest

from repro import ExperimentSpec, MeasurementWindow, SimSession, TrafficProfile, run_experiment
from repro.core import RosebudConfig, RosebudSystem
from repro.firmware import ForwarderFirmware
from repro.serve import spec_from_params
from repro.traffic import FixedSizeSource

WINDOW = MeasurementWindow(warmup_packets=200, measure_packets=800)


def _fwd(**changes):
    """The fwd_event shape (16 RPUs, 512 B, 200 Gbps) on a short window."""
    spec = ExperimentSpec(
        config=RosebudConfig(n_rpus=16),
        traffic=TrafficProfile(packet_size=512, offered_gbps=200.0),
        window=WINDOW,
    )
    return spec.with_(**changes) if changes else spec


SPECS = {
    "throughput": _fwd(),
    "latency": _fwd(measure="latency"),
    "no_host": _fwd(include_host=False),
    "zero_window": _fwd(window=MeasurementWindow(warmup_packets=300, measure_packets=0)),
    # firmware drops count as completions (the include_host path)
    "firewall": spec_from_params(
        {"firmware": "firewall", "rpus": 8, "gbps": 100, "warmup": 200, "packets": 800}
    ),
}


def _json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _stepped(spec, **step_kwargs) -> str:
    session = SimSession(spec)
    for _ in range(10_000_000):
        out = session.step(**step_kwargs)
        if out["measurement_done"]:
            return _json(session.result())
        assert out["events"] > 0 or "cycles" in step_kwargs
    raise AssertionError("stepping never finished the measurement")


@pytest.fixture(scope="module")
def batch():
    return {name: _json(run_experiment(spec)) for name, spec in SPECS.items()}


@pytest.mark.parametrize("name", sorted(SPECS))
class TestChunkingsAgree:
    def test_run_to_completion(self, batch, name):
        assert _json(SimSession(SPECS[name]).run_to_completion()) == batch[name]

    @pytest.mark.parametrize("k", [1, 7, 1000])
    def test_event_chunks(self, batch, name, k):
        assert _stepped(SPECS[name], n_events=k) == batch[name]

    def test_time_chunks(self, batch, name):
        assert _stepped(SPECS[name], cycles=2_500.0) == batch[name]


class TestStallsUnchanged:
    """Messages, clock and event count at the stall, as recorded from
    the per-event polling loop."""

    def test_deadline_stall(self):
        session = SimSession(_fwd(window=MeasurementWindow(200, 600, max_cycles=3000)))
        with pytest.raises(RuntimeError) as info:
            session.run_to_completion()
        assert str(info.value) == "stalled at 507 completions (target 800)"
        assert session.sim.now == pytest.approx(3000.04)
        assert session.sim.events_processed == 9080

    def test_latency_deadline_stall(self):
        spec = _fwd(window=MeasurementWindow(200, 600, max_cycles=3000), measure="latency")
        with pytest.raises(RuntimeError, match="^latency run stalled$"):
            run_experiment(spec)

    def _drained(self):
        system = RosebudSystem(RosebudConfig(n_rpus=4), ForwarderFirmware())
        source = FixedSizeSource(system, 0, 20.0, 512, n_packets=50, seed=1)
        return SimSession.for_system(system, [source])

    def test_empty_queue_stall(self):
        session = self._drained()
        with pytest.raises(RuntimeError) as info:
            session.measure_throughput(512, 20.0, warmup_packets=100, measure_packets=100)
        assert str(info.value) == "stalled at 50 completions (target 100)"
        assert session.sim.events_processed == 851

    def test_empty_queue_latency_stall(self):
        session = self._drained()
        with pytest.raises(RuntimeError, match="^latency run stalled$"):
            session.measure_latency(warmup_packets=10, measure_packets=100)
        assert session.sim.events_processed == 851


def test_event_budget_caps_a_time_bounded_step():
    session = SimSession(_fwd())
    out = session.step(n_events=5, until_ts=1e6)
    assert out["events"] == 5
    assert session.sim.events_processed == 5
    assert out["now"] < 1e6
