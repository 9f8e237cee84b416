"""The reader's round loop: per-poll staging, merge primitives, modes."""

import json

import numpy as np
import pytest

from repro.faults import EventLog
from repro.net import Command, HealthPolicy, ReaderController, RetryPolicy
from repro.net.mac import MacStats
from repro.node.node import Environment, PABNode
from repro.obs import MetricsRegistry, metrics_to_prometheus
from repro.sensing.pressure import WaterColumn


class TestRetryPolicyForNode:
    def test_seeded_streams_are_per_node_deterministic(self):
        policy = RetryPolicy(base_backoff_s=0.1, jitter=0.5, seed=42)
        a1 = [policy.for_node(3).backoff_s(i) for i in range(4)]
        a2 = [policy.for_node(3).backoff_s(i) for i in range(4)]
        b = [policy.for_node(4).backoff_s(i) for i in range(4)]
        assert a1 == a2
        assert a1 != b

    def test_unseeded_policy_returned_unchanged(self):
        policy = RetryPolicy(base_backoff_s=0.1, jitter=0.5)
        assert policy.for_node(3) is policy


class StubResult:
    def __init__(self, success, packet=None):
        self.success = success

        class D:
            pass

        self.demod = D()
        self.demod.packet = packet


class SeededFlakyTransport:
    """Real firmware, no waveform physics, seeded per-call failures."""

    def __init__(self, address, fail_rate=0.3, seed=0):
        self.node = PABNode(
            address=address,
            environment=Environment(
                water=WaterColumn(depth_m=0.4, temperature_c=19.0),
                true_ph=7.2,
            ),
        )
        self.node.force_power(True)
        self.fail_rate = fail_rate
        self._rng = np.random.default_rng((seed, address))

    def __call__(self, query):
        if self._rng.random() < self.fail_rate:
            return StubResult(False)
        response = self.node.respond(query)
        if response is None:
            return StubResult(False)
        self.node.firmware.response_sent()
        return StubResult(True, response.to_packet())


def _campaign_blob(parallel, *, rounds=12, n=6, seed=11):
    log = EventLog()
    metrics = MetricsRegistry()
    reader = ReaderController(
        {a: SeededFlakyTransport(a, seed=seed) for a in range(1, n + 1)},
        retry_policy=RetryPolicy(
            max_retries=2, base_backoff_s=0.05, jitter=0.25, seed=seed
        ),
        health_policy=HealthPolicy(
            degrade_after=2, quarantine_after=4, recover_after=2,
            probe_backoff_rounds=2,
        ),
        log=log,
        metrics=metrics,
        parallel=parallel,
    )
    report = reader.run_campaign(Command.READ_PH, rounds=rounds)
    return (
        json.dumps(report, sort_keys=True, default=str)
        + "\n" + log.dump()
        + "\n" + metrics_to_prometheus(metrics)
    )


class TestParallelReaderIdentity:
    def test_parallel_campaign_repeatable(self):
        # Stub links: the batch planner declines them, but its per-round
        # prepass still runs and must leave the campaign repeatable.
        assert _campaign_blob("batch") == _campaign_blob("batch")


def _injector_campaign_blob(parallel, *, rounds=14, n=5, seed=13):
    """A campaign whose fault injectors hold the SHARED event log.

    Injectors write fault events from inside the transaction, so their
    log references must be staged with the rest of the poll
    (``ReaderController._poll_staged``) or their events jump
    ahead of the MAC events the same poll booked before them — which
    is exactly how chaos fleets (``repro fleet-report``) wire them.
    """
    from repro.faults import BrownoutInjector, NoiseBurstInjector

    log = EventLog()
    metrics = MetricsRegistry()
    transports = {}
    for a in range(1, n + 1):
        inner = SeededFlakyTransport(a, fail_rate=0.15, seed=seed)
        if a % 2:
            inner = NoiseBurstInjector(
                inner, start=2 + a, duration=5, node=a, log=log, seed=seed + a
            )
        else:
            inner = BrownoutInjector(
                inner, at=4, dark_for=7, node=a, log=log, seed=seed + a
            )
        transports[a] = inner
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=2, base_backoff_s=0.05, jitter=0.25, seed=seed
        ),
        health_policy=HealthPolicy(
            degrade_after=2, quarantine_after=4, recover_after=2,
            probe_backoff_rounds=2,
        ),
        log=log,
        metrics=metrics,
        parallel=parallel,
    )
    report = reader.run_campaign(Command.READ_PH, rounds=rounds)
    return (
        json.dumps(report, sort_keys=True, default=str)
        + "\n" + log.dump()
        + "\n" + metrics_to_prometheus(metrics)
    )


class TestParallelInjectorIdentity:
    """Shared-log fault injectors keep their place in the event order."""

    def test_injector_chain_logs_staged_per_worker(self):
        sequential = _injector_campaign_blob(0)
        assert "injector=" in sequential  # the chaos actually fired
        # Node 1's first noise-burst poll: each attempt's injected fault
        # precedes the MAC's retry/backoff for that attempt.  Unstaged
        # injectors would book all three faults ahead of the retries.
        node1 = [
            line.split()[3] for line in sequential.splitlines()
            if line[:6].isdigit() and " node=1 " in line
        ]
        assert node1[:7] == [
            "fault", "retry", "backoff", "fault", "retry", "backoff", "fault",
        ]
        assert _injector_campaign_blob("batch") == sequential

    def test_injector_chain_restored_after_round(self):
        from repro.faults import NoiseBurstInjector

        log = EventLog()
        inner = NoiseBurstInjector(
            SeededFlakyTransport(1, seed=3), start=1, duration=2, node=1,
            log=log, seed=3,
        )
        reader = ReaderController(
            {1: inner}, log=log,
            retry_policy=RetryPolicy(
                max_retries=1, base_backoff_s=0.05, jitter=0.25, seed=3
            ),
        )
        reader.poll_round(Command.READ_PH)
        # After the replay, the injector points at the shared log again.
        assert inner.log is log


class TestExecutionModes:
    @pytest.mark.parametrize(
        "parallel", [-2, 1, 2, "auto", "thread", "0", 0.0, None, True]
    )
    def test_rejected_values(self, parallel):
        with pytest.raises(ValueError, match="parallel must be 0 or 'batch'"):
            ReaderController({1: SeededFlakyTransport(1)}, parallel=parallel)

    @pytest.mark.parametrize("parallel", [0, "batch"])
    def test_accepted_values(self, parallel):
        reader = ReaderController({1: SeededFlakyTransport(1)}, parallel=parallel)
        assert (reader._batch_engine is not None) == (parallel == "batch")


class TestMergePrimitives:
    def test_macstats_merge_is_order_independent(self):
        a = MacStats(attempts=5, successes=4, retries=1,
                     payload_bits_delivered=64, airtime_s=1.5,
                     backoff_s=0.2, exceptions=0)
        b = MacStats(attempts=3, successes=1, retries=2,
                     payload_bits_delivered=16, airtime_s=0.9,
                     backoff_s=0.4, exceptions=1)
        c = MacStats(attempts=1, successes=1, retries=0,
                     payload_bits_delivered=8, airtime_s=0.3,
                     backoff_s=0.0, exceptions=0)
        assert a.merge(b, c) == c.merge(b, a)
        # Operands untouched.
        assert a.attempts == 5 and b.attempts == 3

    def test_registry_absorb_counters_accumulate(self):
        target = MetricsRegistry()
        target.counter("pab_x_total").inc(2)
        other = MetricsRegistry()
        other.counter("pab_x_total").inc(3)
        other.gauge("pab_g").set(7.0)
        target.absorb(other)
        assert target.value("pab_x_total") == 5
        assert target.value("pab_g") == 7.0

    def test_registry_absorb_gauges_last_write_wins(self):
        target = MetricsRegistry()
        first = MetricsRegistry()
        first.gauge("pab_g").set(1.0)
        second = MetricsRegistry()
        second.gauge("pab_g").set(2.0)
        target.absorb(first, second)
        assert target.value("pab_g") == 2.0
