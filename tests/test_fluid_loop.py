"""The fluid tier on the one kernel loop: boundary stops are invisible.

A fluid session runs the kernel from one fluid boundary to the next:
the reference source's ``stop_at`` stops ``Simulator.run`` right after
the emission that completes a template cycle, and the engine looks at
the state once per run instead of after every event.  That is only
sound if every decision the engine used to make between two boundaries
was a no-op, so this module pins:

* **byte identity** — each spec, in each stepping chunking, reproduces
  the ``ExperimentResult`` JSON (fluid block included), the kernel's
  ``events_processed``, the final clock and the summed ``events`` that
  ``step`` reported, exactly as recorded from the per-event fluid loop
  that this one replaced (``data/fluid_loop_expected.json``);
* **hygiene** — no boundary stop outlives the step that armed it, and
  sessions that never warp never arm one.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.analysis.spec import ExperimentSpec, MeasurementWindow, TrafficProfile
from repro.cluster import ClusterSpec
from repro.cluster.engine import ClusterEngine
from repro.core import RosebudConfig
from repro.serve.session import SimSession

EXPECTED_PATH = Path(__file__).parent / "data" / "fluid_loop_expected.json"

#: the uncontended forwarder of ``test_fluid_differential.py``
FORWARDER = ExperimentSpec(
    traffic=TrafficProfile(packet_size=512, offered_gbps=200.0, n_ports=2),
    window=MeasurementWindow(warmup_packets=1500, measure_packets=20_000),
    fidelity="fluid",
)
#: the rotating-period contended point of ``test_fluid_contended.py``
CONTENDED = ExperimentSpec(
    config=RosebudConfig(n_rpus=4, mac_rx_fifo_packets=8),
    traffic=TrafficProfile(packet_size=256, offered_gbps=200.0, n_ports=2),
    window=MeasurementWindow(warmup_packets=1000, measure_packets=30_000, max_cycles=5e9),
    fidelity="fluid",
)
#: a 2-board fluid rack whose sync horizon spans many fluid periods
RACK = ExperimentSpec(
    config=RosebudConfig(n_rpus=8),
    traffic=TrafficProfile(packet_size=512, offered_gbps=40.0, n_ports=2),
    window=MeasurementWindow(warmup_packets=500, measure_packets=60_000),
    fidelity="fluid",
    cluster=ClusterSpec(
        boards=2,
        link_gbps=100.0,
        link_latency_cycles=100_000.0,
        affinity="local",
        watchdog_horizons=8,
    ),
)
SPECS = {"forwarder": FORWARDER, "contended": CONTENDED}

#: the control scenario de-opts the forwarder after its first warp
CONTROL_AT_EVENTS = 21_000


def _payload(result, events_processed, now, stepped_events) -> str:
    return json.dumps(
        {
            "result": result.to_dict(),
            "events_processed": events_processed,
            "now": now,
            "stepped_events": stepped_events,
        },
        sort_keys=True,
    )


def _session_payload(session, stepped_events) -> str:
    sim = session.sim
    return _payload(session.result(), sim.events_processed, sim.now, stepped_events)


def _step_until_done(session, **step_kwargs) -> int:
    total = 0
    while True:
        out = session.step(**step_kwargs)
        total += out["events"]
        if out["measurement_done"]:
            return total
        assert out["events"] > 0 or "cycles" in step_kwargs


def run_chunking(name: str, chunking: str) -> str:
    """One spec in one stepping chunking, as a canonical JSON payload."""
    session = SimSession(SPECS[name])
    if chunking == "run":
        session.run_to_completion()
        return _session_payload(session, None)
    if chunking.startswith("events"):
        stepped = _step_until_done(session, n_events=int(chunking[len("events"):]))
    else:
        assert chunking == "cycles"
        stepped = _step_until_done(session, cycles=2_500.0)
    return _session_payload(session, stepped)


def run_control(chunk: int) -> str:
    """Forwarder stepped ``chunk`` events at a time, with a receive-mask
    write (a control-plane transient) after ``CONTROL_AT_EVENTS``."""
    session = SimSession(FORWARDER)
    stepped = 0
    while stepped < CONTROL_AT_EVENTS:
        stepped += session.step(n_events=chunk)["events"]
    session.control("set_receive_mask", mask=0xFFFF)
    stepped += _step_until_done(session, n_events=chunk)
    return _session_payload(session, stepped)


def run_rack(chunking: str) -> str:
    """The rack through the cluster engine (boards step with until_ts)."""
    engine = ClusterEngine(RACK, shards=1)
    engine.start()
    sims = [h.session.sim for h in engine._shards[0].harnesses]
    if chunking == "run":
        result = engine.run_to_completion()
    else:
        assert chunking == "barriers"
        while not engine.step(n_events=1)["measurement_done"]:
            pass
        result = engine.result()
    now = engine.now
    engine.close()
    return _payload(result, [sim.events_processed for sim in sims], now, None)


def scenarios():
    """Every recorded scenario: name -> zero-argument runner."""
    out = {}
    for name in SPECS:
        for chunking in ("run", "events1", "events7", "events1000", "cycles"):
            out[f"{name}/{chunking}"] = (lambda n=name, c=chunking: run_chunking(n, c))
    for chunk in (1, 7, 1000):
        out[f"control/events{chunk}"] = lambda k=chunk: run_control(k)
    for chunking in ("run", "barriers"):
        out[f"rack/{chunking}"] = lambda c=chunking: run_rack(c)
    return out


SCENARIOS = scenarios()


@functools.lru_cache(maxsize=None)
def _recorded():
    return json.loads(EXPECTED_PATH.read_text())


def _expected(scenario: str) -> str:
    recorded = _recorded()
    return json.dumps(recorded["payloads"][recorded["scenarios"][scenario]], sort_keys=True)


def test_every_scenario_is_recorded():
    assert sorted(_recorded()["scenarios"]) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_byte_identical_to_per_event_loop(scenario):
    assert SCENARIOS[scenario]() == _expected(scenario)


def test_recorded_runs_exercise_the_tier():
    """Without warps and de-opts the identity above would be vacuous."""
    for scenario in ("forwarder/run", "contended/run", "control/events7"):
        fluid = json.loads(_expected(scenario))["result"]["fluid"]
        assert fluid["warps"] >= 1, scenario
    control = json.loads(_expected("control/events7"))["result"]["fluid"]
    assert [d["reason"] for d in control["deopts"]] == ["control:set_receive_mask"]
    contended = json.loads(_expected("contended/run"))["result"]["fluid"]
    assert contended["drops_per_period"] > 0
    rack = json.loads(_expected("rack/run"))["result"]["cluster"]["fluid"]
    assert rack["warps"] >= 1


# -- boundary-stop hygiene ----------------------------------------------------


def _sources(session):
    return [feed.source for feed in session._feeds]


def _assert_disarmed(session):
    assert [src.stop_at for src in _sources(session)] == [-1] * len(session._feeds)


def _record_arming(session):
    """Record every ``stop_at`` write that arms a stop on the session's
    sources (the default -1 is the disarmed value)."""
    armed = []
    for src in _sources(session):

        class Watched(type(src)):
            def __setattr__(self, name, value):
                if name == "stop_at" and value != -1:
                    armed.append(value)
                super().__setattr__(name, value)

        src.__class__ = Watched
    return armed


class TestBoundaryStopHygiene:
    @pytest.mark.parametrize(
        "step_kwargs", [{"n_events": 1}, {"n_events": 1000}, {"cycles": 2_500.0}]
    )
    def test_no_stop_survives_a_step(self, step_kwargs):
        session = SimSession(FORWARDER)
        armed = _record_arming(session)
        while not session.step(**step_kwargs)["measurement_done"]:
            _assert_disarmed(session)
        _assert_disarmed(session)
        assert armed and session._fluid.warps >= 1
        session.step(n_events=500)
        _assert_disarmed(session)

    def test_no_stop_survives_run_to_completion(self):
        session = SimSession(CONTENDED)
        session.run_to_completion()
        _assert_disarmed(session)

    def test_block_inside_confirmation(self):
        """``_feasible`` refuses the first period and blocks the engine."""
        session = SimSession(FORWARDER)
        session._fluid.gate.analytic_pps = 1.0
        armed = _record_arming(session)
        armed_before_block = None
        while not session.step(n_events=1000)["measurement_done"]:
            _assert_disarmed(session)
            if armed_before_block is None and not session._fluid.enabled:
                armed_before_block = len(armed)
        # blocked mid-session, and never armed again once blocked
        assert armed_before_block and len(armed) == armed_before_block
        fluid = session.result().fluid
        assert not fluid["eligible"] and fluid["warps"] == 0
        assert "exceeds analytic WCET bound" in fluid["reasons"][-1]
        _assert_disarmed(session)
        event = SimSession(FORWARDER.with_(fidelity="event")).run_to_completion()
        assert session.result().counters == event.counters

    def _cross_traffic_payload(self, **step_kwargs) -> str:
        session = SimSession(FORWARDER)
        engine = session._fluid
        cleared = []

        def cross():
            cleared.append(bool(engine._hist))
            engine.note_cross_traffic("test cross traffic")

        session.sim.schedule_at(9_000.5, cross, name="cross")
        if step_kwargs:
            _step_until_done(session, **step_kwargs)
        else:
            session.run_to_completion()
        _assert_disarmed(session)
        assert cleared == [True]
        return _session_payload(session, None)

    def test_history_cleared_inside_an_event(self):
        """``note_cross_traffic`` inside an event between boundaries: the
        boundary-to-boundary run agrees with one event per step, which
        calls the engine after every single event."""
        per_event = self._cross_traffic_payload(n_events=1)
        assert self._cross_traffic_payload() == per_event
        fluid = json.loads(per_event)["result"]["fluid"]
        assert fluid["cross_deopts"] == 1 and fluid["deopts"]

    @pytest.mark.parametrize("traffic_source", ["imix", "fixed"])
    def test_sessions_that_never_warp_never_arm(self, traffic_source):
        traffic = TrafficProfile(
            packet_size=512, offered_gbps=200.0, n_ports=2, source=traffic_source
        )
        spec = FORWARDER.with_(
            traffic=traffic,
            window=MeasurementWindow(warmup_packets=200, measure_packets=800),
        )
        if traffic_source == "fixed":
            spec = spec.with_(fidelity="event")
        session = SimSession(spec)
        armed = _record_arming(session)
        session.run_to_completion()
        session.step(n_events=1000)
        assert armed == []
        if session._fluid is not None:
            assert not session._fluid.enabled

    def test_raw_run_after_a_step_is_not_cut_short(self):
        session = SimSession(FORWARDER)
        session.step(n_events=5_000)
        start_events = session.sim.events_processed
        target = session.sim.now + 5_000.0
        assert session.sim.run(until=target) == target
        # several template cycles' worth of events in one uninterrupted run
        assert session.sim.events_processed - start_events > 1_000
