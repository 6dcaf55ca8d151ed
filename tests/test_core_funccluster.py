"""Tests for the full-Rosebud functional simulation (multi-RPU ISS)."""

import pytest

from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.core.funccluster import ClusterError, FunctionalCluster
from repro.firmware import FIREWALL_ASM, FORWARDER_ASM
from repro.packet import build_tcp, int_to_ip


def _data(sport=1, src="10.0.0.1", size=64):
    return build_tcp(src, "10.9.9.9", sport, 80, pad_to=size).data


class TestRoundRobinCluster:
    def test_packets_spread_evenly(self):
        cluster = FunctionalCluster(4, FORWARDER_ASM)
        for i in range(16):
            cluster.push_packet(_data(sport=i + 1))
        cluster.run_until_all_sent()
        assert cluster.per_rpu_counts() == [4, 4, 4, 4]

    def test_all_forwarded_with_port_swap(self):
        cluster = FunctionalCluster(2, FORWARDER_ASM)
        for i in range(6):
            cluster.push_packet(_data(sport=i + 1), port=i % 2)
        cluster.run_until_all_sent()
        by_port = cluster.sent_by_port()
        assert len(by_port[0]) == 3 and len(by_port[1]) == 3

    def test_payloads_intact_across_cores(self):
        cluster = FunctionalCluster(4, FORWARDER_ASM)
        datas = [_data(sport=i + 1, size=256) for i in range(8)]
        for data in datas:
            cluster.push_packet(data)
        cluster.run_until_all_sent()
        sent = {bytes(s.data) for rpu in cluster.rpus for s in rpu.sent}
        assert sent == set(datas)

    def test_slot_exhaustion_detected(self):
        from repro.core import RosebudConfig

        config = RosebudConfig(n_rpus=1, slots_per_rpu=2)
        cluster = FunctionalCluster(1, FORWARDER_ASM, config=config)
        cluster.push_packet(_data(sport=1))
        cluster.push_packet(_data(sport=2))
        with pytest.raises(ClusterError):
            cluster.push_packet(_data(sport=3))

    def test_slots_recycle_after_run(self):
        from repro.core import RosebudConfig

        config = RosebudConfig(n_rpus=1, slots_per_rpu=2)
        cluster = FunctionalCluster(1, FORWARDER_ASM, config=config)
        for round_ in range(3):
            cluster.push_packet(_data(sport=round_ * 2 + 1))
            cluster.push_packet(_data(sport=round_ * 2 + 2))
            cluster.run_until_all_sent()
        assert cluster.total_sent() == 6

    def test_drain_slot_work_is_per_burst(self, monkeypatch):
        # each drain returns one credit per packet it saw sent, so slot
        # bookkeeping stays O(burst) however many packets came before
        from repro.core.descriptors import SlotTable

        calls = {"occupancy": 0, "release": 0}
        for name in calls:
            original = getattr(SlotTable, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(SlotTable, name, counted)
        cluster = FunctionalCluster(2, FORWARDER_ASM)
        burst = 2 * cluster.config.slots_per_rpu
        per_drain = []
        for round_ in range(5):
            for i in range(burst):
                cluster.push_packet(_data(sport=round_ * burst + i + 1))
            before = calls["occupancy"]
            cluster.run_until_all_sent()
            per_drain.append(calls["occupancy"] - before)
        assert cluster.total_sent() == 5 * burst
        assert calls["release"] == cluster.total_sent()
        assert per_drain == [burst] * 5

    def test_hartid_distinct(self):
        cluster = FunctionalCluster(3, FORWARDER_ASM)
        assert [rpu.cpu.hartid for rpu in cluster.rpus] == [0, 1, 2]


class TestHashCluster:
    def test_same_flow_same_rpu(self):
        cluster = FunctionalCluster(4, FORWARDER_ASM, policy="hash")
        chosen = {cluster.push_packet(_data(sport=7)) for _ in range(8)}
        assert len(chosen) == 1

    def test_flows_spread(self):
        cluster = FunctionalCluster(4, FORWARDER_ASM, policy="hash")
        chosen = {cluster.push_packet(_data(sport=i + 1)) for i in range(32)}
        assert len(chosen) >= 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            FunctionalCluster(2, FORWARDER_ASM, policy="magic")


class TestFirewallCluster:
    def test_distributed_firewall_verdicts(self):
        """Every RPU gets its own accelerator instance (its own PR
        region) and they all agree with the blacklist."""
        prefixes = parse_blacklist(generate_blacklist(300))
        cluster = FunctionalCluster(
            4, FIREWALL_ASM,
            accelerator_factory=lambda: IpBlacklistMatcher(prefixes),
        )
        bad = [int_to_ip(p.network) for p in prefixes[:6]]
        good = [f"10.44.0.{i + 1}" for i in range(6)]
        for i, src in enumerate(bad + good):
            cluster.push_packet(_data(sport=i + 1, src=src, size=128))
        cluster.run_until_all_sent()
        dropped = sum(s.dropped for rpu in cluster.rpus for s in rpu.sent)
        forwarded = sum(not s.dropped for rpu in cluster.rpus for s in rpu.sent)
        assert dropped == 6 and forwarded == 6
        # the work really was distributed
        assert sum(1 for c in cluster.per_rpu_counts() if c > 0) >= 3
