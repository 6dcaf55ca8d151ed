"""The benchmark's own tests: python3 -m pytest perfbench -q"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- self-time arithmetic ------------------------------------------------------


def test_self_times_nested_and_sibling_spans():
    rec = SpanRecorder()
    root = rec.add_span("serve.session", 0, 100)
    first = rec.add_span("sim.kernel", 10, 40, parent=root)
    rec.add_span("sim.stats", 20, 30, parent=first)
    second = rec.add_span("core.mac@event", 50, 90, parent=root)
    rec.add_span("sim.stats", 60, 65, parent=second)
    selfs = self_times(rec.names, **rec.arrays())
    assert selfs["serve.session"] == pytest.approx(30e-9)  # 100 - 30 - 40
    assert selfs["sim.kernel"] == pytest.approx(20e-9)  # 30 - 10
    assert selfs["core.mac"] == pytest.approx(35e-9)  # event span folds into its layer
    assert selfs["sim.stats"] == pytest.approx(15e-9)  # two spans, 10 + 5
    assert sum(selfs.values()) == pytest.approx(100e-9)  # the root's wall, exactly once


def test_wrapped_calls_nest_and_same_layer_recursion_only_counts():
    ticks = iter(range(0, 1000, 10))
    rec = SpanRecorder(clock=lambda: next(ticks))

    inner = rec.wrap("sim.stats", lambda: None)
    again = rec.wrap("sim.stats", lambda: inner())
    outer = rec.wrap("sim.kernel", lambda: (again(), inner()))
    outer()

    assert len(rec) == 3  # kernel, stats, stats: the nested stats call opens none
    assert dict(zip(rec.names, rec.calls)) == {"sim.stats": 3, "sim.kernel": 1}
    arrays = rec.arrays()
    assert list(arrays["parent"]) == [-1, 0, 0]
    selfs = self_times(rec.names, **arrays)
    assert selfs["sim.kernel"] + selfs["sim.stats"] == pytest.approx(
        (arrays["end"][0] - arrays["start"][0]) / 1e9
    )


# -- failure accounting ----------------------------------------------------------


def _golden_record(name, seed):
    goldens = child.load_goldens()
    outputs = copy.deepcopy(goldens[name][str(seed)])
    return goldens, outputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_doctored_golden_is_a_counted_failure(name):
    workload = WORKLOADS[name]
    goldens, outputs = _golden_record(name, 1)
    inputs = workload.inputs(1)
    assert child.check_outputs(workload, 1, inputs, outputs, goldens) == []

    doctored = copy.deepcopy(goldens)
    field = sorted(outputs)[0]
    value = doctored[name]["1"][field]
    doctored[name]["1"][field] = (
        value + 1 if isinstance(value, (int, float)) else {"doctored": True}
    )
    errors = child.check_outputs(workload, 1, inputs, outputs, doctored)
    assert errors and all(e.startswith("golden ") for e in errors)

    good = {"traced": False, "group": 0, "digest": "a", "errors": [], "packets": 10,
            "run_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 30.0, "host_factor": 1.0}
    bad = dict(good, group=1, errors=errors)
    result = run.summarize([good, bad], trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_crashed_pass_and_disagreeing_pass_are_counted():
    base = {"traced": False, "errors": [], "packets": 10, "run_s": 1.0,
            "setup_s": 0.1, "peak_rss_mb": 30.0, "host_factor": 1.0}
    records = [
        dict(base, group=0, digest="a"),
        dict(base, group=1, digest="b", errors=[]),
        {"traced": False, "group": 2, "errors": ["exception: boom"]},
    ]
    result = run.summarize(records, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)
    assert result["metrics"]["pkts_per_s"]["value"] == 10.0


# -- seeds ---------------------------------------------------------------------------


def test_seed_reaches_generated_inputs():
    for name in ("fwd_event", "ids_flows", "rack_fluid"):
        workload = WORKLOADS[name]
        spec_a = workload.spec(workload.inputs(3))
        spec_b = workload.spec(workload.inputs(4))
        assert spec_a.traffic.seed_base == 3 and spec_b.traffic.seed_base == 4

    fwd = WORKLOADS["fwd_event"]
    frames = []
    for seed in (3, 4):
        spec = fwd.spec(fwd.inputs(seed))
        sources = spec.build_sources(spec.build_system())
        frames.append(sources[0].next_packet().data)
    assert frames[0] != frames[1]

    iss = WORKLOADS["iss_firewall"]
    a, b, a_again = iss.inputs(3), iss.inputs(4), iss.inputs(3)
    assert a["frames"] == a_again["frames"] and a["ports"] == a_again["ports"]
    assert a["frames"] != b["frames"]


def test_seed_argument_reaches_each_pass(monkeypatch):
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(cmd)
        raise subprocess.TimeoutExpired(cmd, 1)

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    record = run.run_pass("ids_flows", 1234, False, 0, 5.0)
    assert seen[0][seen[0].index("--seed") + 1] == "1234"
    assert record["errors"] and record["errors"][0].startswith("stalled")


# -- metric names ----------------------------------------------------------------------


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        bench,
    )


def test_printed_metrics_are_declared_with_their_units():
    end_to_end, per_layer, bench = _declared()
    assert run.END_TO_END == end_to_end
    assert run.PER_LAYER == per_layer
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)

    rec = SpanRecorder()
    rec.add_span("serve.session", 0, 10)
    layers = child.layer_metrics(rec, {}, packets=1, wall_s=1e-8, state=None)
    layers["trace.overhead_x"] = 1.0
    assert set(layers) == set(per_layer)

    untraced = {"traced": False, "group": 0, "digest": "a", "errors": [], "packets": 10,
                "run_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 30.0, "host_factor": 1.0}
    traced = dict(untraced, traced=True, layers=layers, run_s=3.0)
    for trace, records, expected in (
        (False, [untraced], end_to_end),
        (True, [untraced, traced], per_layer),
    ):
        printed = run.summarize(records, trace)["metrics"]
        assert {k: v["unit"] for k, v in printed.items()} == expected
    assert run.summarize([untraced, traced], True)["metrics"]["trace.overhead_x"]["value"] == 3.0


def test_times_are_scaled_by_the_host_factor():
    fast = {"traced": False, "group": 0, "digest": "a", "errors": [], "packets": 10,
            "run_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 30.0, "host_factor": 1.0}
    slow = dict(fast, group=1, run_s=2.0, setup_s=0.2, host_factor=2.0)
    metrics = run.summarize([fast, slow, dict(slow, group=2)], trace=False)["metrics"]
    assert metrics["pkts_per_s"]["value"] == pytest.approx(10.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert child.reference_job(1000) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fwd_event", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
