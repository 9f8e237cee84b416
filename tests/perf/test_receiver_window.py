"""The receiver window: an exchange builds and draws noise only over the
span the hydrophone decodes.

The uplink leg starts at the carrier turn-on and ambient noise is drawn
over ``recording[analysis_start:]`` alone.  These tests pin the contract
every way an exchange runs shares — computed legs (caching disabled,
or probes enabled), memoized legs, and the batched engine's hints — so
that the noise stream, and with it every campaign digest, stays
identical across execution modes.
"""

import contextlib
import copy

import numpy as np
import pytest

from repro.cli import _build_bench_fleet
from repro.faults import (
    BrownoutInjector,
    EventLog,
    NoiseBurstInjector,
    TransportExceptionInjector,
)
from repro.net import Command, Query, ReaderController, RetryPolicy
from repro.obs import (
    MetricsRegistry,
    ProbeRegistry,
    Tracer,
    use_probes,
    use_tracer,
)
from repro.perf.batch import resolve_link
from repro.perf.cache import caching_disabled
from repro.resilience import campaign_digest

SEED = 2019
BITRATE = 2_000.0
ADDR = 0x10
QUERY = Query(destination=ADDR, command=Command.READ_PH)


def _bench_links(n, seed=SEED):
    return {
        addr: resolve_link(transact)
        for addr, transact in sorted(_build_bench_fleet(n, seed, BITRATE).items())
    }


def _decoded_span(link, query, n_chips, bitrate):
    """``len(recording) - analysis_start`` of the full-length recording.

    Computed from the whole query + carrier transmission and the channel
    lengths, independently of the windowed code under test.
    """
    fs = link.sample_rate
    uplink_s = n_chips / (2.0 * bitrate) + link.UPLINK_MARGIN_S
    tx, uplink_start = link.projector.query_then_carrier(query, uplink_s, fs)
    n_direct = len(tx) + len(link.ch_projector_hydrophone._impulse) - 1
    n_uplink = (
        len(tx)
        + len(link.ch_projector_node._impulse) - 1
        + len(link.ch_node_hydrophone._impulse) - 1
    )
    delay_ph = int(round(link.ch_projector_hydrophone.direct_path.delay_s * fs))
    analysis_start = uplink_start + delay_ph + int(0.3 * link.UPLINK_MARGIN_S * fs)
    return max(n_direct, n_uplink) - analysis_start


def _exchange_span(link, result):
    assert result.demod is not None
    chips = link.node.uplink_chips(result.response)
    return _decoded_span(link, QUERY, len(chips), link.node.bitrate)


def _assert_advanced_by(noise_before, link, span):
    twin = copy.deepcopy(noise_before)
    twin.generate(span, link.sample_rate)
    assert twin.snapshot_state() == link.noise.snapshot_state()


class TestNoiseStreamContract:
    """One exchange advances the noise RNG by exactly the decoded span."""

    def _run(self, link, run):
        before = copy.deepcopy(link.noise)
        result = run()
        span = _exchange_span(link, result)
        _assert_advanced_by(before, link, span)
        return span

    @pytest.mark.parametrize(
        "context",
        [
            caching_disabled,
            lambda: use_tracer(Tracer()),
            lambda: use_probes(ProbeRegistry()),
        ],
        ids=["uncached", "traced", "probed"],
    )
    def test_uncached_stages(self, context):
        link = _bench_links(1)[ADDR]

        def run():
            with context():
                return link.run_query(QUERY)

        span = self._run(link, run)
        assert 7_000 < span < 10_000     # not the ~88k-sample recording

    def test_cached_path_cold_and_warm(self):
        link = _bench_links(1)[ADDR]
        misses = link._leg_memo.misses
        self._run(link, lambda: link.run_query(QUERY))
        assert link._leg_memo.misses > misses
        hits = link._leg_memo.hits
        self._run(link, lambda: link.run_query(QUERY))
        assert link._leg_memo.hits > hits

    def test_batch_hint_path(self):
        links = _bench_links(2)
        link = links[ADDR]
        reader = ReaderController(
            {addr: lnk.run_query for addr, lnk in links.items()},
            parallel="batch",
        )
        assert reader._batch_engine.prewarm_round(Command.READ_PH) > 0
        hints = len(link._batch_hints)
        before = copy.deepcopy(link.noise)
        draws = []
        generate = link.noise.generate
        link.noise.generate = lambda *a, **k: draws.append(a) or generate(*a, **k)
        try:
            row = reader.poll_round(Command.READ_PH)
        finally:
            del link.noise.generate
        assert row[ADDR] is not None                # delivered on the first try
        assert draws == []                          # the hint replaced the draw
        assert len(link._batch_hints) == hints - 1
        reference = _bench_links(1)[ADDR]
        span = _exchange_span(reference, reference.run_query(QUERY))
        _assert_advanced_by(before, link, span)


class TestLegMemoFootprint:
    def test_uplink_entry_is_the_decoded_segment(self):
        link = _bench_links(1)[ADDR]
        span = _exchange_span(link, link.run_query(QUERY))
        entries = {key[0]: value for key, value in link._leg_memo._data.items()}
        segment = entries["uplink"]
        assert isinstance(segment, np.ndarray)
        assert segment.shape == (span,)
        analytic, direct, _reply_start, analysis_start = entries["carrier"]
        assert len(analytic) <= span + analysis_start
        assert len(direct) <= span + analysis_start


def _churn_campaign(parallel, *, traced=False, nodes=10, rounds=8):
    """A churn-shaped bench fleet: injectors, retries, a bitrate wave.

    Three nodes in four sit behind a noise-burst, brownout or transport
    exception injector; one MAC retry; halfway through, every fifth node
    is commanded to 1 kbps.
    """
    log = EventLog()
    metrics = MetricsRegistry()
    transports = {}
    for addr, transact in sorted(_build_bench_fleet(nodes, SEED, BITRATE).items()):
        index = addr - ADDR
        kwargs = {"node": addr, "log": log, "seed": 7919 * SEED + addr}
        if addr % 4 == 1:
            transact = NoiseBurstInjector(
                transact, start=1 + index % 3, duration=3, **kwargs
            )
        elif addr % 4 == 2:
            transact = BrownoutInjector(
                transact, at=2 + index % 3, dark_for=3, **kwargs
            )
        elif addr % 4 == 3:
            transact = TransportExceptionInjector(
                transact, at=(1 + index % 3, 5 + index % 2), **kwargs
            )
        transports[addr] = transact
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=SEED
        ),
        log=log,
        metrics=metrics,
        parallel=parallel,
    )

    with use_tracer(Tracer()) if traced else contextlib.nullcontext():
        reader.run_campaign(Command.READ_PH, rounds=rounds // 2)
        acks = [
            reader.set_bitrate(addr, 1_000.0) for addr in sorted(reader.nodes)[::5]
        ]
        # ``rounds`` counts from the campaign's start: this runs the rest.
        report = reader.run_campaign(Command.READ_PH, rounds=rounds)
    # The digest carries no SNR or BER, and at 35 dB the noise never
    # changes a decode, so each link's final noise-stream position is
    # compared alongside it.
    noise = {
        addr: resolve_link(transact).noise.snapshot_state()
        for addr, transact in transports.items()
    }
    return (campaign_digest(report, log, metrics), noise), acks, log, reader


class TestCrossModeIdentity:
    def test_churn_fleet_identical_across_modes(self):
        sequential, acks, log, _ = _churn_campaign(0)
        kinds = {str(event.kind) for event in log}
        assert any(acks)                      # the bitrate wave took effect
        assert {"fault", "retry"} <= kinds    # injectors fired, the MAC retried

        batch, _, _, reader = _churn_campaign("batch")
        assert batch == sequential
        stats = reader._batch_engine.stats
        assert stats.windows >= 2             # replanned after the wave
        assert stats.demods_precomputed > 0

        traced, _, _, _ = _churn_campaign(0, traced=True)
        assert traced == sequential
