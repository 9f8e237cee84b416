"""Identity tests for the batched PHY engine (``parallel="batch"``).

The engine precomputes waveform work across a window of upcoming
rounds, so every shortcut it takes must collapse to the sequential
arithmetic exactly: the campaign report, event log, and metrics
exposition are compared byte-for-byte (via ``campaign_digest``) against
the plain loop.  The risky paths get their own tests — mid-campaign
``SET_BITRATE``/``SET_RESONANCE_MODE`` churn invalidates window hints,
fault injectors interpose on the transport chain, worker crashes tear
the window down, and checkpoint/resume rebuilds it mid-flight.
"""

import json

import numpy as np
import scipy.fft

from repro.faults import BrownoutInjector, EventLog, NoiseBurstInjector
from repro.net import Command, ReaderController, Response, RetryPolicy
from repro.obs import MetricsRegistry, metrics_to_prometheus
from repro.perf.batch import resolve_link
from repro.perf.kernels import (
    _OVERLAP_ADD_MIN_LEN,
    batched_convolve,
    batched_correlate,
    smart_convolve,
    smart_correlate,
)
from repro.resilience import campaign_digest, checkpoint_path, install_worker_crash

SEED = 5
BITRATE = 2_000.0


def _waveform_transports(n=4, seed=SEED, bitrate=BITRATE, modes=1):
    """Real waveform fleet: per-node geometry and seeded ambient noise.

    ``modes > 1`` gives every node a recto-piezo bank with that many
    resonance channels, so ``SET_RESONANCE_MODE`` churn is a genuine
    waveform change rather than a rejected argument.
    """
    from repro.acoustics import POOL_A, Position
    from repro.acoustics.noise import AmbientNoiseModel
    from repro.core import BackscatterLink, Projector
    from repro.node.node import PABNode
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    channels = tuple(f * (1.0 - 0.04 * m) for m in range(modes))
    transports = {}
    for i in range(n):
        addr = 0x30 + i
        projector = Projector(
            transducer=transducer, drive_voltage_v=60.0, carrier_hz=f
        )
        node = PABNode(
            address=addr, channel_frequencies_hz=channels, bitrate=bitrate
        )
        link = BackscatterLink(
            POOL_A,
            projector,
            Position(0.5, 1.5, 0.6),
            node,
            Position(0.9 + 0.07 * i, 1.6, 0.62),
            Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat",
                flat_level_db=35.0,
                seed=9_000 + 100 * seed + addr,
            ),
        )
        transports[addr] = link.run_query
    return transports


def _reader(transports, *, parallel, seed=SEED):
    log = EventLog()
    metrics = MetricsRegistry()
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=seed
        ),
        log=log,
        metrics=metrics,
        parallel=parallel,
    )
    return reader, log, metrics


def _campaign_digest(parallel, *, rounds=8, n=4, kill_at=None,
                     transports=None):
    """Digest of one fresh-fleet campaign in the given execution mode."""
    if transports is None:
        transports = _waveform_transports(n=n)
    reader, log, metrics = _reader(transports, parallel=parallel)
    if kill_at is not None:
        kill_round, kill_node = kill_at
        install_worker_crash(reader, kill_node, rounds=(kill_round,), crashes=1)
    report = reader.run_campaign(Command.READ_PH, rounds=rounds)
    return campaign_digest(report, log, metrics)


class TestBatchIdentity:
    """``parallel="batch"`` is byte-identical to the sequential loop."""

    def test_batch_matches_sequential(self):
        # Each link's final noise-stream position too: the digest
        # carries no SNR or BER, so it cannot see a shifted noise draw.
        runs = {}
        for parallel in (0, "batch"):
            transports = _waveform_transports()
            digest = _campaign_digest(parallel, transports=transports)
            noise = {
                addr: resolve_link(transact).noise.snapshot_state()
                for addr, transact in transports.items()
            }
            runs[parallel] = digest, noise
        assert runs["batch"] == runs[0]

    def test_worker_crash_containment_identical(self):
        """A contained worker crash mid-window tears the plan down;
        the containment telemetry must still match the plain loop."""
        addr = 0x30 + 1
        sequential = _campaign_digest(0, n=3, kill_at=(4, addr))
        assert _campaign_digest("batch", n=3, kill_at=(4, addr)) == sequential


def _injected_campaign_blob(parallel, *, rounds=12, n=4, seed=SEED):
    """Fault injectors between the MAC and the waveform links.

    The injector chain holds the shared event log (like the chaos
    fleets in ``repro fleet-report``), and the batch engine must
    resolve links *through* the chain without disturbing when each
    injector fires.
    """
    log = EventLog()
    metrics = MetricsRegistry()
    transports = {}
    for addr, transact in sorted(_waveform_transports(n=n).items()):
        if addr % 2:
            transact = NoiseBurstInjector(
                transact, start=2, duration=4, node=addr, log=log,
                seed=seed + addr,
            )
        else:
            transact = BrownoutInjector(
                transact, at=5, dark_for=4, node=addr, log=log,
                seed=seed + addr,
            )
        transports[addr] = transact
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=seed
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


class TestBatchInjectorIdentity:
    def test_injected_faults_identical(self):
        sequential = _injected_campaign_blob(0)
        assert "injector=" in sequential  # the chaos actually fired
        assert _injected_campaign_blob("batch") == sequential


def _churn_blob(parallel, *, rounds=12, seed=SEED):
    """Campaign with live reconfiguration between rounds.

    ``SET_BITRATE`` changes the uplink leg memo key and the demod
    parameters for every hint the engine planned ahead;
    ``SET_RESONANCE_MODE`` changes the reflection states behind the
    carrier leg.  Both must invalidate cleanly — the engine may only
    lose speed, never bits.
    """
    transports = _waveform_transports(n=3, modes=2)
    addrs = sorted(transports)
    reader, log, metrics = _reader(transports, parallel=parallel, seed=seed)
    rows = []
    for rnd in range(rounds):
        if rnd == 3:
            rows.append({"set_bitrate": reader.set_bitrate(addrs[0], 1_000.0)})
        if rnd == 5:
            rows.append({"set_mode": reader.set_resonance_mode(addrs[1], 1)})
        if rnd == 8:
            rows.append({
                "set_bitrate": reader.set_bitrate(addrs[0], BITRATE),
                "set_mode": reader.set_resonance_mode(addrs[1], 0),
            })
        rows.append(reader.poll_round(Command.READ_PH))
    return (
        json.dumps(rows, sort_keys=True, default=str)
        + "\n" + log.dump()
        + "\n" + metrics_to_prometheus(metrics)
    )


class TestBatchReconfigurationIdentity:
    def test_mid_campaign_bitrate_and_mode_churn_identical(self):
        sequential = _churn_blob(0)
        # The reconfigurations actually took effect (acked over the
        # real waveform link) — otherwise this test proves nothing.
        assert '"set_bitrate": true' in sequential
        assert '"set_mode": true' in sequential
        assert _churn_blob("batch") == sequential


class TestBatchCheckpointResume:
    def test_resume_into_batch_mode_matches_clean(self, tmp_path):
        """Checkpoint sequentially, resume batched: the engine starts
        with an empty window mid-campaign and must still replay the
        remaining rounds bit-for-bit."""
        clean = _campaign_digest(0, rounds=10, n=3)
        reader, _, _ = _reader(_waveform_transports(n=3), parallel=0)
        reader.run_campaign(
            Command.READ_PH, rounds=10,
            checkpoint_every=4, checkpoint_dir=tmp_path,
        )
        twin, tlog, tmetrics = _reader(
            _waveform_transports(n=3), parallel="batch"
        )
        report = twin.run_campaign(
            Command.READ_PH, rounds=10,
            resume_from=checkpoint_path(tmp_path, 4),
        )
        assert campaign_digest(report, tlog, tmetrics) == clean

    def test_checkpoint_in_batch_mode_resumes_sequentially(self, tmp_path):
        clean = _campaign_digest(0, rounds=10, n=3)
        reader, _, _ = _reader(_waveform_transports(n=3), parallel="batch")
        reader.run_campaign(
            Command.READ_PH, rounds=10,
            checkpoint_every=6, checkpoint_dir=tmp_path,
        )
        twin, tlog, tmetrics = _reader(_waveform_transports(n=3), parallel=0)
        report = twin.run_campaign(
            Command.READ_PH, rounds=10,
            resume_from=checkpoint_path(tmp_path, 6),
        )
        assert campaign_digest(report, tlog, tmetrics) == clean


class _StubResult:
    def __init__(self, packet):
        self.success = True
        self.demod = type("Demod", (), {})()
        self.demod.packet = packet
        self.demod.success = True


class _StubTransport:
    """Deterministic waveform-free transport; the engine must skip it."""

    def __init__(self, address):
        self.address = int(address)

    def __call__(self, query):
        raw = int((15.0 + self.address) * 100.0 + 10_000)
        data = bytes([(raw >> 8) & 0xFF, raw & 0xFF])
        response = Response(
            source=self.address, command=query.command, data=data
        )
        return _StubResult(response.to_packet())


class TestEngineEngagement:
    def test_engine_engages_on_waveform_fleet(self):
        reader, _, _ = _reader(_waveform_transports(n=3), parallel="batch")
        reader.run_campaign(Command.READ_PH, rounds=10)
        stats = reader._batch_engine.stats.as_dict()
        assert stats["planned"] > 0
        assert stats["demods_precomputed"] > 0
        assert stats["windows"] >= 1

    def test_retry_surplus_and_hint_carry_over(self):
        """The planner over-provisions for retries and re-adopts
        leftover hints at the next replan — while staying
        byte-identical to the sequential loop."""
        sequential = _campaign_digest(0, rounds=16)
        transports = _waveform_transports(n=4)
        reader, log, metrics = _reader(transports, parallel="batch")
        report = reader.run_campaign(Command.READ_PH, rounds=16)
        assert campaign_digest(report, log, metrics) == sequential
        stats = reader._batch_engine.stats.as_dict()
        assert stats["windows"] >= 2
        assert stats["retries_planned"] > 0
        assert stats["demods_carried"] > 0

    def test_engine_noops_on_stub_fleet(self):
        def blob(parallel):
            log = EventLog()
            metrics = MetricsRegistry()
            reader = ReaderController(
                {a: _StubTransport(a) for a in (1, 2, 3)},
                log=log, metrics=metrics, parallel=parallel,
            )
            report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=6)
            return reader, campaign_digest(report, log, metrics)

        _, sequential = blob(0)
        reader, batched = blob("batch")
        assert batched == sequential
        assert reader._batch_engine.stats.as_dict()["planned"] == 0

    def test_resolve_link_through_injector_chain(self):
        from repro.core import BackscatterLink

        transact = next(iter(_waveform_transports(n=1).values()))
        link = resolve_link(transact)
        assert isinstance(link, BackscatterLink)
        wrapped = NoiseBurstInjector(transact, start=0, duration=1, node=1)
        assert resolve_link(wrapped) is link
        assert resolve_link(_StubTransport(1)) is None
        assert resolve_link(lambda q: None) is None


class TestBatchedKernelIdentity:
    """Row-wise bit-identity of the batched kernels, across the
    strategy-dispatch boundaries they share with the sequential path."""

    def test_fft_regime_matches_per_row(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(5, 9_000))
        kernel = rng.normal(size=768)
        per_row = np.stack([smart_convolve(r, kernel) for r in xs])
        assert np.array_equal(batched_convolve(xs, kernel), per_row)

    def test_overlap_add_regime_matches_per_row(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(3, _OVERLAP_ADD_MIN_LEN))
        kernel = rng.normal(size=512)
        per_row = np.stack([smart_convolve(r, kernel) for r in xs])
        assert np.array_equal(batched_convolve(xs, kernel), per_row)

    def test_direct_regime_matches_per_row(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(4, 200))
        kernel = rng.normal(size=16)
        per_row = np.stack([smart_convolve(r, kernel) for r in xs])
        assert np.array_equal(batched_convolve(xs, kernel), per_row)

    def test_correlate_matches_per_row(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(4, 6_000))
        template = rng.normal(size=384)
        per_row = np.stack(
            [smart_correlate(r, template, mode="valid") for r in xs]
        )
        got = batched_correlate(xs, template, mode="valid")
        assert np.array_equal(got, per_row)

    def test_dispatch_boundary_strategies_agree(self):
        """Either side of ``_OVERLAP_ADD_MIN_LEN`` the two FFT
        strategies compute the same convolution to rounding."""
        rng = np.random.default_rng(11)
        kernel = rng.normal(size=512)
        for n in (_OVERLAP_ADD_MIN_LEN - 1, _OVERLAP_ADD_MIN_LEN):
            x = rng.normal(size=n)
            got = smart_convolve(x, kernel)
            reference = np.convolve(x[: 4_096], kernel)
            np.testing.assert_allclose(
                got[: len(reference) - len(kernel)],
                reference[: len(reference) - len(kernel)],
                rtol=1e-9, atol=1e-9,
            )

    def test_scipy_rfft_bit_identical_to_numpy(self):
        """Both are pocketfft; the engine leans on exact agreement even
        at awkward (prime) transform lengths."""
        rng = np.random.default_rng(12)
        for n in (9_973, 8_192, 12_000):
            x = rng.normal(size=n)
            spectrum = scipy.fft.rfft(x)
            assert np.array_equal(spectrum, np.fft.rfft(x)), n
            assert np.array_equal(
                scipy.fft.irfft(spectrum, n=n), np.fft.irfft(spectrum, n=n)
            ), n

    def test_batched_preamble_correlation_matches_rows(self):
        from repro.dsp.sync import (
            batched_preamble_correlation,
            preamble_correlation,
        )

        rng = np.random.default_rng(13)
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        chip_rate, fs = 4_000.0, 96_000.0
        rows = rng.normal(size=(4, 6_000))
        batched = batched_preamble_correlation(rows, bits, chip_rate, fs)
        for i, row in enumerate(rows):
            expected = preamble_correlation(row, bits, chip_rate, fs)
            assert np.array_equal(batched[i], expected), i


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n > 1 and n % p == 0:
            n //= p
    return n == 1


class TestPaddedTransforms:
    """Link transforms run at ``fast_length`` in both execution modes.

    The batched tail stacks exactly the per-row transforms of
    :func:`~repro.core.link.apply_reradiation_filter` and
    :func:`~repro.core.link.analytic_signal`, at the same padded
    lengths, so its rows must equal the sequential results bit for bit.
    """

    FS = 96_000.0

    def _filter_setup(self):
        from repro.piezo import Transducer

        transducer = Transducer.from_cylinder_design()
        return transducer, transducer.resonance_hz

    def test_stacked_padded_reradiation_matches_per_row(self):
        from repro.core.link import (
            apply_reradiation_filter,
            fast_length,
            reradiation_response,
        )

        transducer, f = self._filter_setup()
        rng = np.random.default_rng(14)
        for n in (9_973, 12_001):            # prime / non-smooth lengths
            m = fast_length(n)
            assert m > n and _is_5_smooth(m)
            xs = rng.normal(size=(4, n))
            response = reradiation_response(transducer, n, f, self.FS)
            assert len(response) == m // 2 + 1
            # The stacked pass of ``BatchedLinkEngine._batch_uplink_tails``.
            stacked = scipy.fft.irfft(
                scipy.fft.rfft(xs, n=m, axis=-1) * np.stack([response] * 4),
                n=m, axis=-1,
            )[:, :n]
            per_row = np.stack(
                [apply_reradiation_filter(x, transducer, f, self.FS) for x in xs]
            )
            assert np.array_equal(stacked, per_row), n

    def test_analytic_rows_match_per_row(self):
        from scipy.signal import fftconvolve, hilbert

        from repro.core.link import analytic_signal, fast_length

        rng = np.random.default_rng(15)
        tx = rng.normal(size=(3, 9_000))
        irs = rng.normal(size=(3, 974))
        incidents = fftconvolve(tx, irs, axes=-1)       # rows of 9_973
        n = incidents.shape[-1]
        for row in incidents:
            # The per-row expression of ``_batch_carrier_legs``.
            batched = hilbert(row, N=fast_length(n))[:n]
            assert np.array_equal(batched, analytic_signal(row))
            assert len(batched) == n

    def test_bench_fleet_transform_lengths_are_5_smooth(self, monkeypatch):
        """Record every transform the uplink leg runs, at each distinct
        incident length of the 100-node bench fleet."""
        import repro.core.link as link_module
        from repro.cli import _build_bench_fleet
        from repro.net import Command, Query

        lengths = []

        def recording(fn, key):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                lengths.append(kwargs.get(key, np.shape(args[0])[-1]))
                return out
            return wrapped

        monkeypatch.setattr(
            link_module, "hilbert", recording(link_module.hilbert, "N")
        )
        monkeypatch.setattr(scipy.fft, "rfft", recording(scipy.fft.rfft, "n"))

        links = [
            resolve_link(t)
            for _a, t in sorted(_build_bench_fleet(100, 2019, BITRATE).items())
        ]
        first = links[0]
        query = Query(destination=int(first.node.address), command=Command.READ_PH)
        first.node.force_power(True)
        chips = first.node.uplink_chips(first.node.respond(query))
        uplink_s = len(chips) / (2.0 * BITRATE) + first.UPLINK_MARGIN_S
        tx, start = first.projector.query_then_carrier(
            query, uplink_s, first.sample_rate
        )
        by_length = {
            len(tx) + len(link.ch_projector_node._impulse) - 1: link
            for link in links
        }
        raw = sorted(by_length)
        assert not all(_is_5_smooth(n) for n in raw)
        for n, link in sorted(by_length.items()):
            link._backscatter_waveform(np.zeros(n), chips, start)
        assert len(lengths) == 2 * len(raw)              # one hilbert, one rfft
        assert all(_is_5_smooth(int(n)) for n in lengths), sorted(set(lengths))

    def test_windowed_vs_full_length_in_analysis_window(self):
        """The numerical change of the receiver window, on record.

        On every 7th node of the 100-node bench fleet, the uplink leg
        built from the carrier turn-on is compared with the same leg
        built from the whole query + carrier transmission, over the
        analysis window: the direct carrier agrees to rounding and the
        backscatter moves by well under 1e-2 of its RMS (≤ 3.6e-3
        measured)."""
        from repro.cli import _build_bench_fleet
        from repro.core.link import decoded_segment
        from repro.net import Command, Query

        links = [
            resolve_link(t)
            for _a, t in sorted(_build_bench_fleet(100, 2019, BITRATE).items())
        ]
        for link in links[::7]:
            query = Query(destination=int(link.node.address), command=Command.READ_PH)
            link.node.force_power(True)
            chips = link.node.uplink_chips(link.node.respond(query))
            leg = link._carrier_leg(len(chips), BITRATE)
            analytic, direct, reply_start, analysis_start = leg
            uplink = link.ch_node_hydrophone.apply(
                link._backscatter_waveform(
                    analytic, chips, reply_start, analytic=analytic, bitrate=BITRATE
                ),
                include_noise=False,
            ).waveform
            assert np.array_equal(
                link._finish_uplink_leg(leg, chips, BITRATE),
                decoded_segment(direct, uplink, analysis_start),
            )

            # The full-length reference: the query stays in front.
            uplink_s = len(chips) / (2.0 * BITRATE) + link.UPLINK_MARGIN_S
            tx, start = link.projector.query_then_carrier(
                query, uplink_s, link.sample_rate
            )
            full_direct = link.beam_gain_hydrophone * link.ch_projector_hydrophone.apply(
                tx, include_noise=False
            ).waveform
            full_uplink = link.ch_node_hydrophone.apply(
                link._backscatter_waveform(
                    link._node_incident(tx), chips, start + reply_start, bitrate=BITRATE
                ),
                include_noise=False,
            ).waveform

            window = slice(start + analysis_start, None)
            ref_direct, ref_uplink = full_direct[window], full_uplink[window]
            got_direct = direct[analysis_start:]
            got_uplink = uplink[analysis_start:]
            assert len(got_direct) == len(ref_direct)
            assert len(got_uplink) == len(ref_uplink)
            peak = np.max(np.abs(ref_direct))
            assert np.max(np.abs(got_direct - ref_direct)) < 1e-12 * peak
            scale = np.sqrt(np.mean(ref_uplink**2))
            diff = np.max(np.abs(got_uplink - ref_uplink))
            assert 0 < diff < 1e-2 * scale, (link.node.address, diff, scale)
