"""One measured pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass so no process-level cache
(warm replay caches, the verifier's analysis cache, translated blocks)
carries from one pass into the next.  It prints one JSON record as its
last line of standard output::

    python3 perfbench/child.py --workload fwd_event --seed 1 --trace 0

The record carries the pass's raw wall times and its host factor: how
much slower than nominal a fixed reference job ran just before set-up
and just after the run (``run.py`` scales the times by it).

With ``--trace 1`` the layers are wrapped in spans first (see
``spans.py``); the spans are written to ``.perfbench/`` and the record
carries the per-layer figures derived from them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench")

#: layers whose self time the traced run reports as ``<layer>.self_s``
SELF_LAYERS = (
    "sim.kernel", "sim.stats", "sim.resources", "serve.session",
    "core.mac", "core.switch", "core.lb", "core.rpu", "core.funccluster",
    "firmware", "accel.pigasus", "traffic", "packet", "fluid", "cluster",
    "riscv", "verify",
)


def load_goldens(path: str = GOLDENS) -> Dict[str, Dict[str, Any]]:
    with open(path) as fh:
        return json.load(fh)


def golden_mismatches(expected: Any, actual: Any, where: str = "") -> List[str]:
    """Every field where ``actual`` differs from ``expected``, exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{where}{key}: present on one side only")
            else:
                out.extend(golden_mismatches(expected[key], actual[key], f"{where}{key}."))
        return out
    if expected != actual or type(expected) is not type(actual):
        return [f"{where.rstrip('.')}: expected {expected!r}, got {actual!r}"]
    return []


def check_outputs(workload, seed: int, inputs, outputs, goldens) -> List[str]:
    """Invariant violations plus, where a golden is recorded for this
    workload and seed, every field that differs from it."""
    errors = list(workload.violations(inputs, outputs))
    golden = goldens.get(workload.name, {}).get(str(seed))
    if golden is not None:
        errors.extend(f"golden {e}" for e in golden_mismatches(golden, outputs))
    return errors


#: reference-job samples taken before set-up and again after the run
REF_SAMPLES = 4
#: the reference job's time, in seconds, on the fast state of the 2-core
#: host the benchmark was written on; pass times are scaled to this speed
REF_NOMINAL_S = 0.028


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def reference_job(n: int = 60_000) -> float:
    """Seconds a fixed pure-Python job takes on this host right now.

    The job does the kind of work the simulator's hot path does (dict,
    list, heap and attribute traffic, small calls), so a host that runs
    it slower runs the simulator slower by about the same factor.
    """
    import heapq

    table: Dict[int, int] = {}
    heap: List[int] = []
    cell = _Cell()
    bump = lambda v: v & 7  # noqa: E731
    t0 = time.perf_counter()
    for i in range(n):
        table[i & 1023] = i
        heapq.heappush(heap, i ^ 0x5A5)
        cell.value += bump(table[i & 511])
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def _preimport() -> None:
    """Import every module a workload reaches lazily, so module import
    time stays out of ``setup_s``."""
    import repro.analysis  # noqa: F401
    import repro.cluster.engine  # noqa: F401
    import repro.core.funccluster  # noqa: F401
    import repro.fluid  # noqa: F401
    import repro.replay  # noqa: F401
    import repro.serve.session  # noqa: F401
    import repro.verify  # noqa: F401
    import repro.verify.fluidgate  # noqa: F401


def layer_metrics(recorder, outputs, packets: int, wall_s: float, state) -> Dict[str, float]:
    """The traced run's per-layer figures, from the recorded spans."""
    from spans import EVENT_SUFFIX, self_times

    arrays = recorder.arrays()
    selfs = self_times(recorder.names, **arrays)
    calls = dict(zip(recorder.names, recorder.calls))
    m: Dict[str, float] = {}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m["analysis.build_s"] = selfs.get("analysis.build", 0.0)
    fired = sum(n for name, n in calls.items() if name.endswith(EVENT_SUFFIX))
    m["sim.kernel.events"] = outputs.get("events_processed", 0)
    m["sim.kernel.fired"] = fired
    m["sim.kernel.events_per_pkt"] = fired / packets if packets else 0.0
    m["sim.stats.calls"] = calls.get("sim.stats", 0)
    m["core.mac.rx_drops"] = outputs.get("rx_drops", 0)
    m["core.funccluster.slot_ops"] = calls.get("core.funccluster.slot_ops", 0)
    m["firmware.calls"] = calls.get("firmware", 0)
    m["accel.pigasus.calls"] = calls.get("accel.pigasus", 0)
    m["accel.pigasus.bytes"] = _pigasus_bytes(state)
    m["accel.firewall.lookups"] = outputs.get("lookups", 0)
    m["packet.builds"] = calls.get("packet", 0)
    fluid = outputs.get("fluid")
    m["fluid.event_share"] = 1.0 - fluid["occupancy"] if fluid else 1.0
    m["fluid.warps"] = fluid["warps"] if fluid else 0
    m["fluid.periods_warped"] = fluid["periods_warped"] if fluid else 0
    m["fluid.deopts"] = sum(fluid["deopts"]) + fluid["cross_deopts"] if fluid else 0
    cluster = outputs.get("cluster")
    m["cluster.horizons"] = cluster["horizons"] if cluster else 0
    m["cluster.xboard_pkts"] = cluster["cross_board"]["packets"] if cluster else 0
    instret = outputs.get("instret", 0)
    m["riscv.instret"] = instret
    m["riscv.ips"] = instret / m["riscv.self_s"] if m["riscv.self_s"] > 0 else 0.0
    covered = sum(selfs.values())
    m["trace.unattributed_share"] = max(0.0, wall_s - covered) / wall_s
    m["trace.spans"] = len(recorder)
    return m


def _pigasus_bytes(state) -> int:
    """Payload bytes the IDS string matcher scanned (shared by all RPUs)."""
    system = getattr(state, "system", None)
    if system is None:
        return 0
    matchers = {id(m): m for m in (getattr(r.firmware, "matcher", None) for r in system.rpus) if m}
    return sum(m.bytes_scanned for m in matchers.values())


def measure(name: str, seed: int, trace: bool, run_id: int = 0) -> Dict[str, Any]:
    """One pass: inputs, set-up, run, output check (and spans if traced)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, digest

    _preimport()
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    recorder = None
    if trace:
        from spans import SpanRecorder, instrument

        recorder = SpanRecorder(run_id)
        instrument(recorder)
    refs = [reference_job() for _ in range(REF_SAMPLES)]
    t0 = time.perf_counter()
    state = workload.setup(inputs)
    t1 = time.perf_counter()
    packets = workload.run(state)
    t2 = time.perf_counter()
    refs += [reference_job() for _ in range(REF_SAMPLES)]
    outputs = workload.outputs(state)
    errors = check_outputs(workload, seed, inputs, outputs, load_goldens())
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        # how much slower than nominal the host ran during this pass
        "host_factor": sum(refs) / len(refs) / REF_NOMINAL_S,
        "packets": packets,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(outputs),
        "outputs": outputs,
        "errors": errors,
    }
    if recorder is not None:
        record["layers"] = layer_metrics(recorder, outputs, packets, t2 - t0, state)
        os.makedirs(SPANS_DIR, exist_ok=True)
        # one file per workload, overwritten by its next traced pass
        recorder.save(os.path.join(SPANS_DIR, f"spans-{name}.npz"))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, bool(args.trace), args.run_id)
    except Exception:  # the pass failed: report it, the parent counts it
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "traced": bool(args.trace),
            "errors": ["exception: " + traceback.format_exc(limit=8)],
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
