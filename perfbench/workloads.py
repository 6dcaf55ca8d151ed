"""The benchmark's four workloads.

Each workload splits one measured pass into the phases the benchmark
times separately:

* ``inputs(seed)`` — generate the inputs from the seed.  This is the
  benchmark's side: the program under test only ever sees the result.
* ``setup(inputs)`` — everything from the spec to the first event
  (timed as ``setup_s``).
* ``run(state)`` — the simulation itself (timed for ``pkts_per_s``).
* ``outputs(state)`` — the simulated outputs, as plain JSON data, that
  the output check compares exactly.
* ``violations(inputs, outputs)`` — invariants that must hold for any
  seed, so a seed without a recorded golden is still checked.

Sizes are fixed per workload: a run is always the full length below,
never a short run scaled up.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List

# -- fwd_event ----------------------------------------------------------------

FWD_WARMUP = 2_000
FWD_MEASURE = 20_000

# -- ids_flows ----------------------------------------------------------------

IDS_WARMUP = 1_000
IDS_MEASURE = 5_000
IDS_FLOWS = 4096

# -- rack_fluid ---------------------------------------------------------------

RACK_BOARDS = 2
RACK_WARMUP = 500
RACK_MEASURE = 600_000
RACK_HORIZON_CYCLES = 100_000.0

# -- iss_firewall -------------------------------------------------------------

ISS_RPUS = 8
ISS_FRAME = 256
ISS_PACKETS = 60_000
ISS_BACKGROUND_FLOWS = 1024
ISS_ATTACK_EVERY = 20
ISS_BLACKLIST_RULES = 1050


def _throughput_outputs(result, events: int) -> Dict[str, Any]:
    tp = result.throughput
    return {
        "counters": dict(sorted(result.counters.items())),
        "achieved_gbps": tp.achieved_gbps,
        "achieved_mpps": tp.achieved_mpps,
        "rx_drops": tp.rx_drops,
        "rpu_packet_counts": list(tp.rpu_packet_counts),
        "events_processed": events,
    }


def _completions(counters: Dict[str, int]) -> int:
    return sum(counters.get(k, 0) for k in ("delivered", "to_host", "dropped_by_firmware"))


class _SessionWorkload:
    """A single-board spec driven by ``SimSession.run_to_completion``."""

    name = ""
    window_packets = 0

    def spec(self, inputs):
        raise NotImplementedError

    def setup(self, inputs):
        from repro.serve.session import SimSession

        return SimSession(self.spec(inputs))

    def run(self, session) -> int:
        session.run_to_completion()
        return self.window_packets

    def outputs(self, session) -> Dict[str, Any]:
        return _throughput_outputs(session.result(), session.sim.events_processed)


class FwdEvent(_SessionWorkload):
    """Fig 7 forwarder: 16 RPUs, 512 B, 200 Gbps over 2 ports, event tier."""

    name = "fwd_event"
    window_packets = FWD_WARMUP + FWD_MEASURE

    def inputs(self, seed: int) -> Dict[str, Any]:
        return {"seed_base": seed}

    def spec(self, inputs):
        from repro.analysis import ExperimentSpec, MeasurementWindow, TrafficProfile
        from repro.core import RosebudConfig
        from repro.firmware import ForwarderFirmware

        return ExperimentSpec(
            config=RosebudConfig(n_rpus=16),
            firmware=ForwarderFirmware,
            traffic=TrafficProfile(
                packet_size=512,
                offered_gbps=200.0,
                n_ports=2,
                seed_base=inputs["seed_base"],
            ),
            window=MeasurementWindow(
                warmup_packets=FWD_WARMUP, measure_packets=FWD_MEASURE
            ),
            verify="fail",
        )

    def violations(self, inputs, out) -> List[str]:
        bad = []
        if out["rx_drops"] != 0:
            bad.append(f"uncontended forwarder dropped {out['rx_drops']} packets")
        if _completions(out["counters"]) < self.window_packets:
            bad.append("fewer completions than the measurement window")
        if not 0 < out["achieved_gbps"] <= 200.0:
            bad.append(f"achieved {out['achieved_gbps']} Gbps outside (0, 200]")
        return bad


class IdsFlows(_SessionWorkload):
    """Fig 8 SW-reorder Pigasus IDS on flow traffic, about 2x overloaded."""

    name = "ids_flows"
    window_packets = IDS_WARMUP + IDS_MEASURE

    def inputs(self, seed: int) -> Dict[str, Any]:
        from repro.accel.pigasus import generate_ruleset, parse_rules

        rules = parse_rules(generate_ruleset())
        return {"seed_base": seed, "rules": rules}

    def spec(self, inputs):
        from repro.analysis import ExperimentSpec, MeasurementWindow, TrafficProfile
        from repro.core import RosebudConfig
        from repro.firmware import PigasusSwReorderFirmware

        rules = inputs["rules"]
        return ExperimentSpec(
            config=RosebudConfig(n_rpus=8, slots_per_rpu=32),
            firmware=PigasusSwReorderFirmware,
            firmware_args=(rules,),
            traffic=TrafficProfile(
                packet_size=800,
                offered_gbps=200.0,
                n_ports=2,
                source="flows",
                seed_base=inputs["seed_base"],
                respect_generator_cap=False,
                source_kwargs={
                    "attack_fraction": 0.01,
                    "attack_payloads": tuple(r.content for r in rules),
                    "reorder_fraction": 0.003,
                    "n_flows": IDS_FLOWS,
                },
            ),
            window=MeasurementWindow(
                warmup_packets=IDS_WARMUP, measure_packets=IDS_MEASURE
            ),
            lb="hash",
            verify="warn",
        )

    def violations(self, inputs, out) -> List[str]:
        bad = []
        if out["rx_drops"] <= 0:
            bad.append("overloaded IDS shows no rx drops")
        if _completions(out["counters"]) < self.window_packets:
            bad.append("fewer completions than the measurement window")
        if not 0 < out["achieved_gbps"] <= 200.0:
            bad.append(f"achieved {out['achieved_gbps']} Gbps outside (0, 200]")
        return bad


class RackFluid:
    """2-board rack at fluid fidelity with a long sync horizon."""

    name = "rack_fluid"
    window_packets = RACK_WARMUP + RACK_MEASURE

    def inputs(self, seed: int) -> Dict[str, Any]:
        return {"seed_base": seed}

    def spec(self, inputs):
        from repro.analysis import ExperimentSpec, MeasurementWindow, TrafficProfile
        from repro.cluster import ClusterSpec
        from repro.core import RosebudConfig

        return ExperimentSpec(
            config=RosebudConfig(n_rpus=8),
            traffic=TrafficProfile(
                packet_size=512,
                offered_gbps=40.0,
                n_ports=2,
                seed_base=inputs["seed_base"],
            ),
            window=MeasurementWindow(
                warmup_packets=RACK_WARMUP, measure_packets=RACK_MEASURE
            ),
            fidelity="fluid",
            cluster=ClusterSpec(
                boards=RACK_BOARDS,
                link_gbps=100.0,
                link_latency_cycles=RACK_HORIZON_CYCLES,
                affinity="local",
                watchdog_horizons=8,
            ),
        )

    def setup(self, inputs):
        from repro.cluster.engine import ClusterEngine

        engine = ClusterEngine(self.spec(inputs), shards=1)
        engine.start()
        # the boards' simulators, kept before run_to_completion closes
        # the shard (shards=1 is one InlineShard holding every board)
        sims = [h.session.sim for h in engine._shards[0].harnesses]
        return engine, sims

    def run(self, state) -> int:
        engine, _sims = state
        engine.run_to_completion()
        return self.window_packets

    def outputs(self, state) -> Dict[str, Any]:
        engine, sims = state
        result = engine.result()
        events = sum(sim.events_processed for sim in sims)
        out = _throughput_outputs(result, events)
        cluster = result.cluster
        fluid = cluster["fluid"]
        out["cluster"] = {
            "horizons": cluster["horizons"],
            "cross_board": cluster["cross_board"],
            "per_board": [
                {k: b[k] for k in ("completions", "tx_packets", "tx_bytes", "rx_drops")}
                for b in cluster["per_board"]
            ],
        }
        out["fluid"] = {
            "boards_engaged": fluid["boards_engaged"],
            "warps": fluid["warps"],
            "periods_warped": fluid["periods_warped"],
            "warped_cycles": fluid["warped_cycles"],
            "cross_deopts": fluid["cross_deopts"],
            "occupancy": fluid["occupancy"]["fluid"],
            "deopts": [
                len(b["fluid"]["deopts"]) for b in cluster["per_board"]
            ],
        }
        return out

    def violations(self, inputs, out) -> List[str]:
        bad = []
        if out["fluid"]["boards_engaged"] != RACK_BOARDS:
            bad.append(f"fluid engaged on {out['fluid']['boards_engaged']} boards")
        if out["rx_drops"] != 0:
            bad.append(f"uncontended rack dropped {out['rx_drops']} packets")
        if _completions(out["counters"]) < self.window_packets:
            bad.append("fewer completions than the measurement window")
        return bad


class IssFirewall:
    """§7.2 firewall on 8 instruction-set-simulated RPUs (translated ISS)."""

    name = "iss_firewall"

    def inputs(self, seed: int) -> Dict[str, Any]:
        from repro.accel import generate_blacklist, parse_blacklist
        from repro.packet import build_tcp
        from repro.traffic import firewall_trace

        text = generate_blacklist(ISS_BLACKLIST_RULES)
        rng = random.Random(seed)
        attack = [p.data for p in firewall_trace(
            parse_blacklist(text), packet_size=ISS_FRAME, safe_packets=0, seed=seed
        )]
        rng.shuffle(attack)
        background = [
            build_tcp(
                src_ip=f"10.{64 + i // 250}.{rng.randrange(256)}.{i % 250 + 1}",
                dst_ip="10.201.0.1",
                src_port=1024 + rng.randrange(60000),
                dst_port=rng.choice((80, 443, 8080, 25)),
                pad_to=ISS_FRAME,
            ).data
            for i in range(ISS_BACKGROUND_FLOWS)
        ]
        frames, ports, blocked = [], [], []
        for i in range(ISS_PACKETS):
            if i % ISS_ATTACK_EVERY == ISS_ATTACK_EVERY - 1:
                frames.append(attack[(i // ISS_ATTACK_EVERY) % len(attack)])
                blocked.append(True)
            else:
                frames.append(rng.choice(background))
                blocked.append(False)
            ports.append(rng.randrange(2))
        return {
            "blacklist": text,
            "frames": frames,
            "ports": ports,
            "blocked": blocked,
        }

    def setup(self, inputs):
        from repro.accel import IpBlacklistMatcher, parse_blacklist
        from repro.core.funccluster import FunctionalCluster
        from repro.firmware import FIREWALL_ASM

        prefixes = parse_blacklist(inputs["blacklist"])
        cluster = FunctionalCluster(
            ISS_RPUS,
            FIREWALL_ASM,
            accelerator_factory=lambda: IpBlacklistMatcher(prefixes),
            cpu_backend="translated",
            replay_cache=False,
        )
        return cluster, inputs

    def run(self, state) -> int:
        cluster, inputs = state
        frames, ports = inputs["frames"], inputs["ports"]
        burst = ISS_RPUS * cluster.config.slots_per_rpu
        for start in range(0, len(frames), burst):
            for i in range(start, min(start + burst, len(frames))):
                cluster.push_packet(frames[i], port=ports[i])
            cluster.run_until_all_sent()
        return cluster.total_sent()

    def outputs(self, state) -> Dict[str, Any]:
        cluster, _inputs = state
        stream = hashlib.sha256()
        sent = forwarded = dropped = 0
        for index, rpu in enumerate(cluster.rpus):
            for s in rpu.sent:
                stream.update(
                    b"%d %d %d %d %d|" % (index, s.tag, s.port, s.cycle, len(s.data))
                )
                stream.update(s.data)
                sent += 1
                if s.dropped:
                    dropped += 1
                else:
                    forwarded += 1
        return {
            "send_stream_sha256": stream.hexdigest(),
            "sent": sent,
            "forwarded": forwarded,
            "dropped": dropped,
            "per_rpu": cluster.per_rpu_counts(),
            "lookups": sum(rpu.accelerator.lookups for rpu in cluster.rpus),
            "instret": sum(rpu.cpu.instret for rpu in cluster.rpus),
        }

    def violations(self, inputs, out) -> List[str]:
        bad = []
        n = len(inputs["frames"])
        n_blocked = sum(inputs["blocked"])
        if out["sent"] != n:
            bad.append(f"firmware sent {out['sent']} of {n} frames")
        if out["dropped"] != n_blocked:
            bad.append(f"dropped {out['dropped']} frames, blacklist says {n_blocked}")
        if out["lookups"] != n:
            bad.append(f"{out['lookups']} accelerator lookups for {n} IPv4 frames")
        return bad


WORKLOADS = {w.name: w for w in (FwdEvent(), IdsFlows(), RackFluid(), IssFirewall())}


def digest(outputs: Dict[str, Any]) -> str:
    """A stable digest of a workload's outputs (exact, floats by repr)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
