"""Watchdog deadlines: stragglers are abandoned, not waited for.

The reader's round loop enforces the budgets in every execution mode,
so each reader-level test runs under ``parallel=0`` and ``"batch"``.
"""

import threading
import time

import pytest

from repro.net import Command
from repro.resilience import WatchdogPolicy, campaign_digest

from .conftest import FlakyNode, build_fleet

pytestmark = pytest.mark.resilience

MODES = (0, "batch")


class TestPolicy:
    def test_deadlines_must_be_positive(self):
        with pytest.raises(ValueError):
            WatchdogPolicy(transaction_deadline_s=0.0)
        with pytest.raises(ValueError):
            WatchdogPolicy(round_deadline_s=-1.0)

    def test_enabled_flag(self):
        assert not WatchdogPolicy().enabled
        assert WatchdogPolicy(transaction_deadline_s=1.0).enabled
        assert WatchdogPolicy(round_deadline_s=1.0).enabled


class _HangingNode(FlakyNode):
    """Good node whose transport hangs (not fails) on scheduled rounds.

    Counts calls and the most threads ever inside it at once.
    """

    def __init__(self, address, seed, hang_rounds, clock, hang_s=0.3):
        super().__init__(address, seed, p_fail=0.0)
        self.hang_rounds = frozenset(hang_rounds)
        self.clock = clock
        self.hang_s = hang_s
        self.calls = 0
        self.max_inside = 0
        self._inside = 0
        self._lock = threading.Lock()

    def __call__(self, query):
        with self._lock:
            self.calls += 1
            self._inside += 1
            self.max_inside = max(self.max_inside, self._inside)
        try:
            if self.clock() in self.hang_rounds:
                time.sleep(self.hang_s)
            return super().__call__(query)
        finally:
            with self._lock:
                self._inside -= 1


def _hang(reader, addr, rounds, hang_s=0.3):
    node = _HangingNode(
        addr, 11, hang_rounds=rounds, clock=lambda: reader._round,
        hang_s=hang_s,
    )
    reader._macs[addr].transact = node
    return node


def _timeouts(log):
    return [
        (e.node, dict(e.detail))
        for e in log.events
        if e.kind == "fault"
        and dict(e.detail).get("injector") == "watchdog_timeout"
    ]


class TestEngineDeadlines:
    def test_transaction_budget_abandons_the_straggler(self):
        for mode in MODES:
            reader, log, _ = build_fleet(
                n=3, p_fail=0.0, parallel=mode,
                watchdog=WatchdogPolicy(transaction_deadline_s=0.05),
            )
            _hang(reader, 0x21, rounds=(0,))
            out = reader.poll_round(Command.READ_TEMPERATURE)
            assert out[0x21] is None, mode
            assert out[0x20] is not None and out[0x22] is not None, mode
            assert _timeouts(log) == [
                (0x21, {
                    "budget": "transaction", "deadline_s": "0.05",
                    "injector": "watchdog_timeout",
                }),
            ], mode

    def test_round_budget_covers_the_whole_round(self):
        for mode in MODES:
            reader, log, _ = build_fleet(
                n=3, p_fail=0.0, parallel=mode,
                watchdog=WatchdogPolicy(
                    transaction_deadline_s=5.0, round_deadline_s=0.1
                ),
            )
            _hang(reader, 0x20, rounds=(0,), hang_s=0.25)
            later = [_hang(reader, a, rounds=()) for a in (0x21, 0x22)]
            out = reader.poll_round(Command.READ_TEMPERATURE)
            assert all(out[a] is None for a in (0x20, 0x21, 0x22)), mode
            timeouts = _timeouts(log)
            assert [node for node, _ in timeouts] == [0x20, 0x21, 0x22], mode
            assert all(d["budget"] == "round" for _, d in timeouts), mode
            assert all(d["deadline_s"] == "0.1" for _, d in timeouts), mode
            # Nodes after the spent budget are booked, not polled.
            assert [node.calls for node in later] == [0, 0], mode

    def test_no_watchdog_waits_forever(self):
        for mode in MODES:
            reader, log, _ = build_fleet(n=2, p_fail=0.0, parallel=mode)
            _hang(reader, 0x21, rounds=(0,), hang_s=0.15)
            out = reader.poll_round(Command.READ_TEMPERATURE)
            assert out[0x21] is not None, mode
            assert _timeouts(log) == [], mode

    def test_campaign_continues_after_timeouts(self):
        for mode in MODES:
            reader, log, _ = build_fleet(
                n=3, p_fail=0.0, parallel=mode,
                watchdog=WatchdogPolicy(transaction_deadline_s=0.05),
            )
            _hang(reader, 0x22, rounds=(1,), hang_s=0.2)
            report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=4)
            assert report["rounds"] == 4, mode
            assert _timeouts(log), mode
            assert report["nodes"][0x20]["readings"] == 4, mode
            assert report["nodes"][0x21]["readings"] == 4, mode


class TestHungNode:
    def test_hung_node_is_never_entered_twice(self):
        for mode in MODES:
            reader, log, _ = build_fleet(
                n=2, p_fail=0.0, parallel=mode,
                watchdog=WatchdogPolicy(transaction_deadline_s=0.05),
            )
            node = _hang(reader, 0x21, rounds=(0,), hang_s=0.3)
            reader.poll_round(Command.READ_TEMPERATURE)   # abandoned
            reader.poll_round(Command.READ_TEMPERATURE)   # still hung
            assert node.calls == 1, mode
            assert [n for n, _ in _timeouts(log)] == [0x21, 0x21], mode
            assert reader.nodes[0x21].health.consecutive_failures == 2, mode
            time.sleep(0.4)                               # it returns
            out = reader.poll_round(Command.READ_TEMPERATURE)
            assert out[0x21] is not None, mode
            assert node.calls > 1, mode
            assert node.max_inside == 1, mode

    def test_tripless_watchdog_matches_no_watchdog(self):
        digests = []
        for mode in MODES:
            for watchdog in (None, WatchdogPolicy(
                transaction_deadline_s=30.0, round_deadline_s=60.0
            )):
                reader, log, metrics = build_fleet(
                    seed=5, parallel=mode, watchdog=watchdog
                )
                report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=8)
                digests.append(campaign_digest(report, log, metrics))
        assert len(set(digests)) == 1


class TestReaderIntegration:
    def test_watchdog_breach_is_a_fault_not_a_hang(self):
        for mode in MODES:
            reader, log, metrics = build_fleet(
                n=3, p_fail=0.0, parallel=mode,
                watchdog=WatchdogPolicy(transaction_deadline_s=0.05),
            )
            slow = 0x21
            node = _hang(reader, slow, rounds=(2,))
            report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=5)
            breaches = _timeouts(log)
            assert breaches and breaches[0][0] == slow
            assert metrics.counter(
                "pab_watchdog_timeouts_total", node=slow
            ).value >= 1
            assert any(
                pm.fault == "watchdog_timeout" and pm.node == slow
                for pm in reader.postmortems
            )
            # The campaign completed all rounds and reported every node.
            assert report["rounds"] == 5
            # The breach fed the health machine and the shard books (even
            # though later clean rounds let the node recover).
            assert reader._shard_crashes[slow] >= 1
            assert report["shards"]["crashed_rounds"][slow] >= 1
            assert node.max_inside == 1
