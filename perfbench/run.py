"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fwd_event --seed 1 --seconds 20 --trace 0

Each pass runs in a fresh interpreter (``child.py``), one at a time,
for as many passes as fit in ``--seconds`` (at least ``MIN_PASSES``).  Every
pass of a run uses the same seed, so every pass must produce the same
outputs; each is also checked against the workload's invariants and,
where one is recorded, its golden.  A pass that raises, stalls, breaks
an invariant or differs counts as failed.

Times are scaled to a reference host speed: around each pass the child
times a fixed reference job, and the pass's wall times are divided by
how much slower than nominal that job ran (see ``scaled``).  The shared
host this was written on switches between speeds about 1.8x apart for
seconds to minutes at a time; scaling takes that drift out, and the
pass lines still print the raw wall figures.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` alternates an untraced pass with a traced one and reports
the per-layer metrics (medians over the traced passes) plus the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: a run ends within this many seconds whatever ``--seconds`` says
HARD_LIMIT_S = 170.0
#: untraced passes per run, at least (setup_s and pkts_per_s are medians)
MIN_PASSES = 3

END_TO_END = {
    "pkts_per_s": "pkt/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "sim.kernel.events": "count",
    "sim.kernel.fired": "count",
    "sim.kernel.events_per_pkt": "count/pkt",
    "sim.kernel.self_s": "s",
    "sim.stats.calls": "count",
    "sim.stats.self_s": "s",
    "sim.resources.self_s": "s",
    "serve.session.self_s": "s",
    "core.mac.self_s": "s",
    "core.switch.self_s": "s",
    "core.lb.self_s": "s",
    "core.rpu.self_s": "s",
    "core.mac.rx_drops": "count",
    "core.funccluster.self_s": "s",
    "core.funccluster.slot_ops": "count",
    "firmware.calls": "count",
    "firmware.self_s": "s",
    "accel.pigasus.calls": "count",
    "accel.pigasus.bytes": "B",
    "accel.pigasus.self_s": "s",
    "accel.firewall.lookups": "count",
    "traffic.self_s": "s",
    "packet.builds": "count",
    "packet.self_s": "s",
    "fluid.event_share": "ratio",
    "fluid.warps": "count",
    "fluid.periods_warped": "count",
    "fluid.deopts": "count",
    "fluid.self_s": "s",
    "cluster.horizons": "count",
    "cluster.xboard_pkts": "count",
    "cluster.self_s": "s",
    "riscv.instret": "count",
    "riscv.self_s": "s",
    "riscv.ips": "inst/s",
    "verify.self_s": "s",
    "analysis.build_s": "s",
    "trace.spans": "count",
    "trace.overhead_x": "ratio",
    "trace.unattributed_share": "ratio",
}


def run_pass(workload: str, seed: int, trace: bool, run_id: int, timeout: float) -> Dict[str, Any]:
    """One pass in a fresh interpreter; a crash or stall becomes an error."""
    cmd = [
        sys.executable, CHILD,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--run-id", str(run_id),
    ]
    base = {"workload": workload, "seed": seed, "traced": trace}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, timeout)
        )
    except subprocess.TimeoutExpired:
        return {**base, "errors": [f"stalled: no result within {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {**base, "errors": [f"pass exited {proc.returncode}: {' | '.join(tail)}"]}
    if proc.returncode != 0:
        record.setdefault("errors", []).append(f"pass exited {proc.returncode}")
    return record


def check_agreement(records: List[Dict[str, Any]]) -> None:
    """Every pass of one run has the same inputs, so the same outputs:
    a pass whose digest differs from the first one gets an error."""
    digests = [r["digest"] for r in records if "digest" in r]
    if not digests:
        return
    for record in records:
        if "digest" in record and record["digest"] != digests[0]:
            record["errors"].append("outputs differ from the run's first pass")


def scaled(record: Dict[str, Any], key: str) -> float:
    """A pass's wall time scaled to the reference host speed: divided by
    how much slower than nominal the host ran the reference job around
    that pass (``child.reference_job``)."""
    return record[key] / record["host_factor"]


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(records: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The result object: pass counts and the metrics' medians."""
    check_agreement(records)
    failed = sum(1 for r in records if r.get("errors"))
    ok = [r for r in records if not r.get("errors")]
    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        untraced = [r for r in ok if not r["traced"]]
        values = {
            "pkts_per_s": [r["packets"] / scaled(r, "run_s") for r in untraced],
            "setup_s": [scaled(r, "setup_s") for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": _median(values[name]), "unit": unit}
    else:
        traced = [r for r in ok if r["traced"]]
        untraced = [r for r in ok if not r["traced"]]
        untraced_by_group = {r["group"]: r for r in untraced}
        overhead = [
            scaled(t, "run_s") / scaled(untraced_by_group[t["group"]], "run_s")
            for t in traced
            if t["group"] in untraced_by_group
        ]
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_x":
                value = _median(overhead)
            else:
                value = _median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": failed == 0 and bool(ok),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def describe(record: Dict[str, Any]) -> str:
    kind = "traced  " if record.get("traced") else "untraced"
    if record.get("errors"):
        return f"  {kind} pass FAILED: {record['errors'][0].splitlines()[-1]}"
    rate = record["packets"] / record["run_s"]
    return (
        f"  {kind} pass: setup {record['setup_s']:.4f} s, run {record['run_s']:.3f} s, "
        f"{rate:,.0f} pkt/s wall, host {record['host_factor']:.2f}x nominal "
        f"({rate * record['host_factor']:,.0f} pkt/s scaled), "
        f"peak RSS {record['peak_rss_mb']:.1f} MiB"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    # a group is one untraced pass, plus its traced partner with --trace 1
    plan = (False, True) if trace else (False,)
    min_groups = 1 if trace else MIN_PASSES
    started = time.perf_counter()
    records: List[Dict[str, Any]] = []
    groups = 0
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - started
        # start another group only if it is expected to end in time
        expected_end = elapsed + (elapsed / groups if groups else 0.0)
        if groups >= min_groups and expected_end > args.seconds:
            break
        if groups and elapsed + longest > HARD_LIMIT_S:
            break
        for traced in plan:
            left = HARD_LIMIT_S - (time.perf_counter() - started)
            record = run_pass(args.workload, args.seed, traced, len(records), left)
            record["group"] = groups
            records.append(record)
            print(describe(record), flush=True)
        groups += 1
        longest = max(longest, (time.perf_counter() - started - elapsed))
    print(json.dumps(summarize(records, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
