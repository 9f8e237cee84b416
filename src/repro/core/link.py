"""Waveform-level simulation of one projector -> node -> hydrophone link.

This is the heart of the reproduction: a sample-accurate simulation of
the paper's physical loop.

1. The projector emits a PWM query followed by a continuous carrier.
2. The waveform propagates through the tank (multipath image-source
   channel) to the node.
3. The node harvests (power-up check), envelope-detects and decodes the
   query, executes the command, and backscatters its FM0 response by
   switching its reflection coefficient while the carrier illuminates it.
4. The reflected waveform propagates to the hydrophone, where it adds to
   the direct projector arrival and ambient noise.
5. The hydrophone's DSP chain decodes the response.

The reflection is applied to the *analytic* incident signal so that both
the magnitude and phase of the complex reflection coefficient act on the
carrier, multipath distortion included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.signal import hilbert

from repro.acoustics.channel import AcousticChannel
from repro.acoustics.geometry import Position, Tank
from repro.acoustics.noise import AmbientNoiseModel
from repro.dsp.demod import DemodResult
from repro.dsp.filters import butter_bandpass, envelope_detect
from repro.dsp.metrics import bit_error_rate
from repro.dsp.spectral import band_snr_db
from repro.core.hydrophone import Hydrophone
from repro.core.projector import Projector
from repro.net.messages import Query, Response
from repro.node.node import PABNode
from repro.obs.probe import get_probes
from repro.obs.trace import get_tracer
from repro.perf.cache import LRUCache, cache_enabled
from repro.piezo.transducer import Transducer


def fast_length(n_samples: int) -> int:
    """The transform length every link-path FFT of ``n_samples`` runs at.

    The smallest 5-smooth length ``>= n_samples``.  A node's waveform
    lengths follow its impulse-response length (88k–90k samples) and
    are almost never smooth; pocketfft then falls back to a Bluestein
    transform that costs ~4x more per call and caches a plan of ~9 MB
    per distinct length.  Each link transform zero-pads its input to
    this length and trims the result back, so the sequential path and
    the batched engine (:mod:`repro.perf.batch`) agree bit for bit.
    """
    return scipy.fft.next_fast_len(int(n_samples), True)


def analytic_signal(x) -> np.ndarray:
    """``hilbert(x)`` computed at :func:`fast_length` and trimmed to ``len(x)``.

    This is the analytic signal of the zero-extended waveform; it
    differs from the unpadded transform only through the wrap-around
    at the waveform's edges.
    """
    x = np.asarray(x, dtype=float)
    return hilbert(x, N=fast_length(len(x)))[: len(x)]


def reradiation_response(
    transducer: Transducer,
    n_samples: int,
    carrier_hz: float,
    sample_rate: float,
) -> np.ndarray:
    """The rfft-bin gain vector of the transducer's re-radiation filter.

    The bins are those of the padded transform an ``n_samples``-long
    waveform is filtered at (:func:`fast_length`).  A pure function of
    (transducer, length, carrier, rate), split out of
    :func:`apply_reradiation_filter` so callers that filter many
    same-length waveforms — the leg memo and the batched fleet engine —
    can compute it once per length instead of once per waveform.
    """
    freqs = np.fft.rfftfreq(fast_length(n_samples), 1.0 / sample_rate)
    response = np.ones_like(freqs)
    positive = freqs > 0
    response[positive] = transducer.response(freqs[positive])
    at_carrier = float(transducer.response(carrier_hz))
    if at_carrier > 0:
        response = np.minimum(response / at_carrier, 1.0)
    return response


def apply_reradiation_filter(
    waveform,
    transducer: Transducer,
    carrier_hz: float,
    sample_rate: float,
    *,
    response: np.ndarray | None = None,
) -> np.ndarray:
    """Filter a backscattered waveform through the transducer's resonance.

    The re-radiated wave physically passes through the resonator, so
    modulation sidebands beyond the mechanical bandwidth are attenuated —
    the reason "the SNR significantly drops for bitrates higher than
    3 kbps ... the efficiency of the recto-piezo reduces as the frequency
    moves from its resonance" (Sec. 6.1b).  The response is normalised to
    unity at the carrier so the (already applied) reflection coefficient
    is not double-counted.

    The waveform is zero-padded to :func:`fast_length`, filtered in the
    frequency domain and trimmed back to its own length, so the filter's
    tails spill into the discarded padding instead of wrapping around
    the reply.  ``response`` may carry a precomputed
    :func:`reradiation_response` for this waveform length; passing it
    changes nothing numerically.
    """
    x = np.asarray(waveform, dtype=float)
    n = len(x)
    if n == 0:
        return x.copy()
    m = fast_length(n)
    if response is None:
        response = reradiation_response(transducer, n, carrier_hz, sample_rate)
    return scipy.fft.irfft(scipy.fft.rfft(x, n=m) * response, n=m)[:n]


@dataclass
class LinkBudget:
    """Narrowband link budget summary (fast, no waveforms).

    Attributes
    ----------
    source_pressure_pa:
        Projector pressure at 1 m.
    incident_pressure_pa:
        Pressure amplitude at the node.
    modulation_depth:
        |Gamma_r - Gamma_a| at the carrier.
    uplink_pressure_pa:
        Backscatter modulation amplitude at the hydrophone.
    noise_rms_pa:
        In-band ambient noise RMS at the hydrophone.
    predicted_snr_db:
        Rough post-matched-filter SNR prediction.
    """

    source_pressure_pa: float
    incident_pressure_pa: float
    modulation_depth: float
    uplink_pressure_pa: float
    noise_rms_pa: float
    predicted_snr_db: float

    @classmethod
    def empty(cls) -> "LinkBudget":
        """An all-zero budget for fabricated (fault-injected) results."""
        return cls(
            source_pressure_pa=0.0,
            incident_pressure_pa=0.0,
            modulation_depth=0.0,
            uplink_pressure_pa=0.0,
            noise_rms_pa=0.0,
            predicted_snr_db=float("-inf"),
        )


@dataclass
class LinkResult:
    """Everything one query/response exchange produced.

    Attributes
    ----------
    powered_up:
        Whether the node could power up from the downlink.
    query_decoded:
        Whether the node recovered the query.
    response:
        The node's response (ground truth), if any.
    demod:
        The hydrophone's decode result, if the exchange got that far.
    ber:
        Bit error rate of the uplink frame (vs the true transmitted
        bits); ``nan`` when no frame was detected.
    snr_db:
        Receiver SNR estimate.
    budget:
        The narrowband link budget for this geometry.
    """

    powered_up: bool
    query_decoded: bool
    response: Response | None
    demod: DemodResult | None
    ber: float
    snr_db: float
    budget: LinkBudget
    fault: str | None = None
    #: Autopsy of a failed exchange (assembled only when signal probes
    #: are enabled; see :mod:`repro.obs.postmortem`).
    postmortem: object | None = None

    @property
    def success(self) -> bool:
        """Whether the reader got a CRC-clean reply."""
        return self.demod is not None and self.demod.success

    @classmethod
    def faulted(cls, fault: str, *, powered_up: bool = False) -> "LinkResult":
        """A physically-shaped failure fabricated by a fault injector.

        Hook for :mod:`repro.faults`: injectors wrapping a
        :class:`BackscatterLink` can return results that look exactly
        like a real failed exchange (``success`` is ``False``, no
        demod) while carrying the injected-fault label for diagnosis.
        """
        return cls(
            powered_up=powered_up,
            query_decoded=False,
            response=None,
            demod=None,
            ber=float("nan"),
            snr_db=float("nan"),
            budget=LinkBudget.empty(),
            fault=fault,
        )


class BackscatterLink:
    """A single PAB link inside a tank.

    Parameters
    ----------
    tank:
        Geometry/boundaries.
    projector, projector_position:
        The downlink source.
    node, node_position:
        The battery-free node.
    hydrophone_position:
        Receiver location; the :class:`Hydrophone` itself is created
        internally at the link's sample rate.
    noise:
        Ambient noise at the hydrophone (flat 60 dB tank floor default).
    sample_rate:
        Simulation rate [Hz].
    max_order:
        Image-source reflection order.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when omitted the
        process-global tracer is consulted per transaction (disabled by
        default, so the hot path pays only no-op span checks).  Spans
        cover the five stages of an exchange: ``link.pwm_synthesis``,
        ``link.downlink_propagation``, ``link.node``,
        ``link.uplink_propagation``, ``link.hydrophone_dsp``.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; records
        transaction/CRC counters and SNR/BER histograms.
    probes:
        Optional :class:`~repro.obs.probe.ProbeRegistry`; when omitted
        the process-global registry is consulted (disabled by default,
        so the hot path pays one enabled check per stage).  Enabled
        probes capture intermediate waveforms and stage diagnostics,
        and a failed exchange is autopsied into a
        :class:`~repro.obs.postmortem.DecodePostmortem` (filed in the
        registry, attached to the result and the active span).
    """

    #: The five per-exchange stage span names, in pipeline order.
    STAGES = (
        "link.pwm_synthesis",
        "link.downlink_propagation",
        "link.node",
        "link.uplink_propagation",
        "link.hydrophone_dsp",
    )

    #: Guard time appended after the expected reply [s].
    UPLINK_MARGIN_S = 0.05

    #: Preamble-correlation threshold for the uplink decoder.  Multipath
    #: and the reradiation filter round the chip edges, so the normalised
    #: correlation peaks below the clean-signal value; the CRC guards
    #: against false detections.
    DETECTION_THRESHOLD = 0.12

    def __init__(
        self,
        tank: Tank,
        projector: Projector,
        projector_position: Position,
        node: PABNode,
        node_position: Position,
        hydrophone_position: Position,
        *,
        noise: AmbientNoiseModel | None = None,
        sample_rate: float = 96_000.0,
        max_order: int = 2,
        node_velocity_mps: float = 0.0,
        tracer=None,
        metrics=None,
        probes=None,
    ) -> None:
        self.tank = tank
        self.projector = projector
        self.node = node
        self.sample_rate = sample_rate
        self.node_velocity_mps = node_velocity_mps
        self.tracer = tracer
        self.metrics = metrics
        self.probes = probes
        self.noise = (
            noise
            if noise is not None
            else AmbientNoiseModel(spectrum="flat", flat_level_db=60.0, seed=0)
        )
        f = projector.carrier_hz
        # Horizontal beam-pattern gains of the projector towards each
        # endpoint (unity for the default omni cylinder).
        import math as _math

        self.beam_gain_node = projector.gain_towards(
            _math.atan2(
                node_position.y - projector_position.y,
                node_position.x - projector_position.x,
            )
        )
        self.beam_gain_hydrophone = projector.gain_towards(
            _math.atan2(
                hydrophone_position.y - projector_position.y,
                hydrophone_position.x - projector_position.x,
            )
        )
        self.ch_projector_node = AcousticChannel(
            tank, projector_position, node_position,
            sample_rate=sample_rate, frequency_hz=f, max_order=max_order,
        )
        self.ch_node_hydrophone = AcousticChannel(
            tank, node_position, hydrophone_position,
            sample_rate=sample_rate, frequency_hz=f, max_order=max_order,
        )
        self.ch_projector_hydrophone = AcousticChannel(
            tank, projector_position, hydrophone_position,
            sample_rate=sample_rate, frequency_hz=f, max_order=max_order,
        )
        self.hydrophone = Hydrophone(sample_rate)
        # Per-link memo for the deterministic waveform legs of an
        # exchange (see _run_stages_cached).  A polling campaign repeats
        # the same few query/response shapes, so the expensive synthesis
        # and propagation convolutions hit after the first round.  The
        # size accommodates the split carrier/uplink entries plus the
        # handful of reply payloads a drifting sensor cycles through.
        self._leg_memo = LRUCache("link_legs", maxsize=16)
        # Demodulations precomputed by the batched fleet engine's
        # prepass, keyed (uplink leg key, noise stream position); see
        # repro.perf.batch.  Always empty outside batch mode.
        self._batch_hints: dict = {}

    # -- checkpointing ---------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-ready mutable state: the noise RNG stream and the node.

        Geometry, channels, and the leg memo are deterministic functions
        of construction parameters (the memo is a pure cache), so only
        the stochastic noise stream and the node's books need saving.
        """
        return {
            "noise": self.noise.snapshot_state(),
            "node": self.node.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state`.

        Pending batch hints are dropped: they were computed for the
        timeline being replaced.  (Their noise-token keys would refuse
        to match a diverged stream anyway — this just frees the memory.)
        """
        self.noise.restore_state(state["noise"])
        self.node.restore_state(state["node"])
        self._batch_hints.clear()

    def _noise_token(self):
        """A hashable token for the ambient-noise RNG's exact position.

        The batched prepass keys its precomputed demodulations by this
        token so a hint is consumed only when the live exchange is about
        to draw the very same noise samples the prepass drew (a retry,
        an injected fault, or a mid-round reconfiguration makes the
        streams diverge, and the hint is then simply ignored).
        """
        state = self.noise.snapshot_state()["rng"]

        def _hashable(value):
            if isinstance(value, dict):
                return tuple(
                    (k, _hashable(v)) for k, v in sorted(value.items())
                )
            return value

        return _hashable(state)

    # -- diagnostics ----------------------------------------------------------------------

    def channel_report(self) -> dict:
        """Multipath statistics of each leg (delay spread, coherence, K).

        The quantities that explain receiver behaviour at this geometry:
        delay spread in chips predicts inter-chip interference, and the
        coherence bandwidth predicts how frequency-selective the channels
        are relative to the recto-piezo bandwidth.
        """
        from repro.acoustics.stats import channel_stats

        report = {}
        for name, channel in (
            ("projector_to_node", self.ch_projector_node),
            ("node_to_hydrophone", self.ch_node_hydrophone),
            ("projector_to_hydrophone", self.ch_projector_hydrophone),
        ):
            stats = channel_stats(self.tank, channel.source, channel.receiver)
            report[name] = {
                "rms_delay_spread_s": stats.rms_delay_spread_s,
                "delay_spread_chips": stats.delay_spread_chips(self.node.bitrate),
                "coherence_bandwidth_hz": stats.coherence_bandwidth_hz,
                "k_factor_db": stats.k_factor_db,
                "n_paths": stats.n_paths,
            }
        return report

    # -- narrowband budget -------------------------------------------------------------

    def budget(self) -> LinkBudget:
        """Analytic link budget at the carrier."""
        f = self.projector.carrier_hz
        p_src = self.projector.source_pressure_pa
        p_node = (
            p_src * self.beam_gain_node * self.ch_projector_node.magnitude_gain(f)
        )
        depth = self.node.bank.modulation_depth(
            self.node.firmware.config.resonance_mode, f
        )
        p_up = p_node * depth * self.ch_node_hydrophone.magnitude_gain(f)
        chip_rate = 2.0 * self.node.bitrate
        noise_rms = self.noise.band_pressure_rms(
            max(f - chip_rate, 10.0), f + chip_rate
        )
        # The modulation toggles by p_up around its mean: matched-filter
        # amplitude is p_up/2 per chip; noise power in the chip band.
        signal_power = (p_up / 2.0) ** 2 / 2.0
        noise_power = max(noise_rms**2, 1e-30)
        snr = 10.0 * np.log10(max(signal_power / noise_power, 1e-30))
        return LinkBudget(
            source_pressure_pa=p_src,
            incident_pressure_pa=p_node,
            modulation_depth=depth,
            uplink_pressure_pa=p_up,
            noise_rms_pa=noise_rms,
            predicted_snr_db=float(snr),
        )

    # -- waveform helpers ---------------------------------------------------------------

    def _node_band(self) -> tuple[float, float]:
        """The node's receive band around its channel."""
        f0 = self.node.channel_frequency_hz
        half = max(self.node.transducer.bandwidth_hz, 1_000.0)
        return f0 - half, f0 + half

    def _node_incident(self, tx_waveform) -> np.ndarray:
        """Incident pressure waveform at the node [Pa]."""
        return (
            self.beam_gain_node
            * self.ch_projector_node.apply(tx_waveform, include_noise=False).waveform
        )

    def _node_selective(self, incident) -> np.ndarray:
        """Incident waveform as the node's resonant element senses it."""
        lo, hi = self._node_band()
        hi = min(hi, self.sample_rate / 2.0 - 1.0)
        lo = max(lo, 1.0)
        return butter_bandpass(incident, lo, hi, self.sample_rate, order=2)

    def _reradiation_response(self, n_samples: int) -> np.ndarray:
        """Memoized re-radiation gain vector for one waveform length.

        The vector is a pure function of the (fixed) transducer, carrier,
        and rate, so the memo is keyed by length alone; with caching
        globally disabled it is recomputed per call, exactly as before.
        """
        return self._leg_memo.get_or_compute(
            ("rerad_response", n_samples),
            lambda: reradiation_response(
                self.node.transducer,
                n_samples,
                self.projector.carrier_hz,
                self.sample_rate,
            ),
        )

    def _gamma_trajectory(
        self, n_samples: int, chips, uplink_start_at_node: int, bitrate: float
    ) -> np.ndarray:
        """Per-sample complex reflection gain over an uplink waveform."""
        gamma_a, _gamma_r, trajectory = self.node.reflection_trajectory(
            chips, self.projector.carrier_hz
        )
        chip_rate = 2.0 * bitrate
        spc = self.sample_rate / chip_rate
        gamma_t = np.full(n_samples, complex(gamma_a))
        for k, g in enumerate(trajectory):
            a = uplink_start_at_node + int(round(k * spc))
            b = uplink_start_at_node + int(round((k + 1) * spc))
            if a >= n_samples:
                break
            gamma_t[a : min(b, n_samples)] = g
        return gamma_t

    def _backscatter_waveform(
        self,
        incident,
        chips,
        uplink_start_at_node: int,
        *,
        analytic=None,
        bitrate: float | None = None,
    ) -> np.ndarray:
        """Reflected pressure (at 1 m from the node) given incident waveform.

        The reflection coefficient trajectory multiplies the analytic
        incident signal; outside the reply the node idles in the
        absorptive state, whose (static) reflection carries no modulation
        and is dropped — only the *difference* between states matters to
        the decoder, and the constant term merely adds to the carrier.

        ``analytic`` may carry a precomputed ``analytic_signal(incident)``
        (the carrier-leg memo and the batched engine reuse it across
        reply payloads); supplying it changes nothing numerically.
        """
        gamma_t = self._gamma_trajectory(
            len(incident),
            chips,
            uplink_start_at_node,
            self.node.bitrate if bitrate is None else bitrate,
        )
        if analytic is None:
            analytic = analytic_signal(incident)
        reflected = np.real(gamma_t * analytic)
        reflected = apply_reradiation_filter(
            reflected,
            self.node.transducer,
            self.projector.carrier_hz,
            self.sample_rate,
            response=self._reradiation_response(len(reflected)),
        )
        if self.node_velocity_mps:
            # A drifting node Doppler-dilates its reflection (the direct
            # carrier is unaffected).  One-way Doppler is applied here;
            # the downlink leg's shift is second-order for the envelope.
            from repro.acoustics.doppler import apply_doppler

            moved = apply_doppler(
                reflected, self.node_velocity_mps, self.sample_rate
            )
            if len(moved) < len(reflected):
                moved = np.pad(moved, (0, len(reflected) - len(moved)))
            reflected = moved[: len(reflected)]
        return reflected

    def _carrier_leg(
        self, query: Query, n_chips: int, bitrate: float
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The reply-payload-independent half of the uplink leg.

        Everything here depends only on the query, the reply *length*,
        and the bitrate — not on which chips the node actually sends:
        the transmit waveform, its propagation to the node (as the
        analytic signal the reflection modulates, computed at the padded
        :func:`fast_length`) and to the hydrophone (the direct carrier),
        and the timing offsets.  Splitting this out of the uplink memo
        means a node whose sensor reading drifts between rounds only
        recomputes the chip-dependent tail, not the Hilbert transform
        and two channel convolutions.  The batched engine computes the
        same tuple row by row (``_batch_carrier_legs``).

        Returns ``(analytic, direct, reply_start, analysis_start)``.
        """
        fs = self.sample_rate
        chip_rate = 2.0 * bitrate
        uplink_s = n_chips / chip_rate + self.UPLINK_MARGIN_S
        tx, uplink_start = self.projector.query_then_carrier(query, uplink_s, fs)
        incident = self._node_incident(tx)
        delay_pn = int(round(self.ch_projector_node.direct_path.delay_s * fs))
        reply_start = (
            uplink_start + delay_pn + int(self.UPLINK_MARGIN_S / 2 * fs)
        )
        analytic = analytic_signal(incident)
        direct = (
            self.beam_gain_hydrophone
            * self.ch_projector_hydrophone.apply(tx, include_noise=False).waveform
        )
        delay_ph = int(
            round(self.ch_projector_hydrophone.direct_path.delay_s * fs)
        )
        analysis_start = (
            uplink_start + delay_ph + int(0.3 * self.UPLINK_MARGIN_S * fs)
        )
        return analytic, direct, reply_start, analysis_start

    def _finish_uplink_leg(
        self,
        leg: tuple[np.ndarray, np.ndarray, int, int],
        chips,
        bitrate: float,
    ) -> tuple[np.ndarray, int]:
        """The chip-dependent tail of the uplink leg.

        Modulates the memoized analytic incident with this reply's
        reflection trajectory, re-radiates it, propagates it to the
        hydrophone, and mixes it with the direct carrier — the same
        operations, in the same order, on the same inputs as the
        original single-shot leg computation, so the resulting quiet
        mixture is byte-identical.
        """
        analytic, direct, reply_start, analysis_start = leg
        reflected = self._backscatter_waveform(
            analytic, chips, reply_start, analytic=analytic, bitrate=bitrate
        )
        uplink = self.ch_node_hydrophone.apply(
            reflected, include_noise=False
        ).waveform
        n = max(len(direct), len(uplink))
        mixture = np.zeros(n)
        mixture[: len(direct)] += direct
        mixture[: len(uplink)] += uplink
        return mixture, analysis_start

    # -- the exchange ----------------------------------------------------------------------

    def transact(self, query: Query) -> LinkResult:
        """Alias for :meth:`run_query`.

        This is the hook the MAC/reader stack and the fault injectors
        in :mod:`repro.faults` wrap: anything shaped
        ``transact(query) -> LinkResult`` is a valid transport.
        """
        return self.run_query(query)

    def _tracer(self):
        """The link's tracer, falling back to the process-global one."""
        return self.tracer if self.tracer is not None else get_tracer()

    def _probes(self):
        """The link's probe registry, falling back to the global one."""
        return self.probes if self.probes is not None else get_probes()

    def _observe(self, result: LinkResult) -> None:
        """Record the exchange outcome into the metrics registry."""
        mr = self.metrics
        if mr is None:
            return
        from repro.obs.metrics import BER_BUCKETS, SNR_DB_BUCKETS

        mr.counter("pab_link_transactions_total").inc()
        if result.powered_up:
            mr.counter("pab_link_powerups_total").inc()
        if result.query_decoded:
            mr.counter("pab_link_query_decodes_total").inc()
        if result.success:
            mr.counter("pab_link_successes_total").inc()
        elif result.demod is not None:
            mr.counter("pab_link_crc_failures_total").inc()
        if result.demod is not None:
            mr.histogram("pab_link_snr_db", buckets=SNR_DB_BUCKETS).observe(
                result.snr_db
            )
            mr.histogram("pab_link_ber", buckets=BER_BUCKETS).observe(result.ber)

    def run_query(self, query: Query) -> LinkResult:
        """Simulate one full query/response exchange.

        The exchange is traced as a ``link.transact`` root span with the
        five pipeline stages (:attr:`STAGES`) as children; a stage the
        exchange revisits (PWM synthesis runs once for the node-decode
        leg and once for the full transmission) simply emits another
        span with the same name, and per-stage reports aggregate by
        name.

        When signal probes are enabled the stages additionally publish
        waveform taps, and a failed exchange is autopsied into a
        :class:`~repro.obs.postmortem.DecodePostmortem` attached to the
        returned result, the probe registry, and the root span.
        """
        tracer = self._tracer()
        probes = self._probes()
        if probes.enabled:
            txn = probes.begin_transaction()
        with tracer.span("link.transact", destination=int(query.destination)) as root:
            result = self._run_stages(query, tracer, probes)
            if probes.enabled and not result.success:
                from repro.obs.postmortem import DecodePostmortem

                pm = DecodePostmortem.from_link(result, probes, txn=txn)
                result.postmortem = pm
                probes.record_postmortem(pm)
                root.set(
                    postmortem_verdict=pm.verdict,
                    failing_stage=pm.failing_stage,
                )
        self._observe(result)
        return result

    def _memo_active(self, tracer, probes) -> bool:
        """Whether the leg memo may shortcut waveform synthesis.

        Only when nothing observes the intermediate signals: tracing
        wants true per-stage timings and probes want the actual
        waveforms.  An energy ledger does not gate it: the only firmware
        step the memo skips is the query decode's ``DECODING -> IDLE``
        state pair, which advances no time, so the ledger's books are
        the same either way.  The memo never changes outputs — the gates
        protect observability, not correctness.
        """
        return cache_enabled() and not tracer.enabled and not probes.enabled

    def _run_stages_cached(self, query: Query) -> LinkResult:
        """The exchange with memoized deterministic legs.

        Every waveform between the projector and the hydrophone is a
        pure function of (query, reply chips, node config) except the
        ambient noise, which is added after the memoized pre-noise
        mixture is retrieved.  Node firmware still executes for real
        where it mutates state — power-up, command handling, and reply
        framing — and the noise stream advances exactly once per
        exchange, as in the uncached path, so a cached campaign is
        byte-identical to an uncached one.
        """
        fs = self.sample_rate
        f = self.projector.carrier_hz
        mode = self.node.firmware.config.resonance_mode
        bitrate = self.node.bitrate
        budget = self._leg_memo.get_or_compute(
            ("budget", mode, bitrate), self.budget
        )

        powered = self.node.try_power_up(budget.incident_pressure_pa, f)
        if not powered:
            return LinkResult(
                powered_up=False, query_decoded=False, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"), budget=budget,
            )

        def compute_query_env() -> np.ndarray:
            query_wave = self.projector.query_waveform(query, fs)
            incident_query = self._node_incident(query_wave)
            return envelope_detect(self._node_selective(incident_query), f, fs)

        env = self._leg_memo.get_or_compute(
            ("downlink", query, mode), compute_query_env
        )
        # The PWM decode is pure DSP on the memoized envelope (the node
        # is powered here, and the PWM code is fixed at construction), so
        # its result is memoized under the same key.  A hit skips only the
        # decode's DECODING -> IDLE ledger pair, which books no time.
        decoded_query = self._leg_memo.get_or_compute(
            ("downlink_decode", query, mode),
            lambda: self.node.receive_query(env, fs),
        )
        if decoded_query is None:
            return LinkResult(
                powered_up=True, query_decoded=False, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"), budget=budget,
            )

        response = self.node.respond(decoded_query)
        if response is None:
            return LinkResult(
                powered_up=True, query_decoded=True, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"),
                budget=budget,
            )
        chips = self.node.uplink_chips(response)
        # Re-read after respond(): SET_BITRATE / SET_RESONANCE_MODE take
        # effect mid-exchange, and the reply already ships under the new
        # setting (the uncached path reads both inside the uplink stage),
        # so the uplink leg must be keyed by the post-command values.
        bitrate = self.node.bitrate
        mode = self.node.firmware.config.resonance_mode

        uplink_key = ("uplink", query, chips.tobytes(), bitrate, mode)
        quiet_mixture, analysis_start = self._leg_memo.get_or_compute(
            uplink_key,
            lambda: self._finish_uplink_leg(
                self._leg_memo.get_or_compute(
                    ("carrier", query, len(chips), bitrate),
                    lambda: self._carrier_leg(query, len(chips), bitrate),
                ),
                chips,
                bitrate,
            ),
        )
        self.node.firmware.response_sent()

        uplink_format = self.node.firmware.config.uplink_format
        demod = None
        hint = self._batch_hints.pop(
            (uplink_key, self._noise_token()), None
        ) if self._batch_hints else None
        if hint is not None:
            # The batched prepass already ran this exact exchange tail:
            # same quiet mixture, same noise-stream position.  Reuse its
            # demodulation verbatim and advance the noise RNG to where
            # drawing the samples would have left it — byte-identical to
            # the inline path, which the prepass computed with the same
            # primitives on the same inputs.
            noise_after, demod = hint
            self.noise.restore_state(noise_after)
        else:
            mixture = quiet_mixture + self.noise.generate(
                len(quiet_mixture), fs
            )
            recording = self.hydrophone.record(mixture)
            demod = self.hydrophone.demodulate(
                recording[analysis_start:],
                f,
                bitrate,
                packet_format=uplink_format,
                detection_threshold=self.DETECTION_THRESHOLD,
            )
        true_bits = response.to_packet().to_bits(uplink_format)
        ber = (
            bit_error_rate(demod.bits, true_bits)
            if len(demod.bits)
            else float("nan")
        )
        return LinkResult(
            powered_up=True,
            query_decoded=True,
            response=response,
            demod=demod,
            ber=ber,
            snr_db=demod.snr_db,
            budget=budget,
        )

    def _run_stages(self, query: Query, tracer, probes) -> LinkResult:
        if self._memo_active(tracer, probes):
            return self._run_stages_cached(query)
        fs = self.sample_rate
        f = self.projector.carrier_hz
        budget = self.budget()

        # 1. Power-up check from the downlink illumination.
        with tracer.span("link.node", phase="power_up") as sp:
            powered = self.node.try_power_up(budget.incident_pressure_pa, f)
            sp.set(powered_up=powered)
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "power_up",
                incident_pressure_pa=budget.incident_pressure_pa,
                powered=powered,
                predicted_snr_db=budget.predicted_snr_db,
            )
        if not powered:
            return LinkResult(
                powered_up=False, query_decoded=False, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"), budget=budget,
            )

        # 2. Node-side query decode (waveform level).
        with tracer.span("link.pwm_synthesis", segment="query") as sp:
            query_wave = self.projector.query_waveform(query, fs)
            sp.set(samples=len(query_wave))
        if probes.wants("link.pwm_synthesis"):
            probes.capture(
                "link.pwm_synthesis", "query_waveform",
                waveform=query_wave, sample_rate=fs, segment="query",
            )
        with tracer.span(
            "link.downlink_propagation", segment="query", samples=len(query_wave)
        ):
            incident_query = self._node_incident(query_wave)
        if probes.wants("link.downlink_propagation"):
            lo, hi = self._node_band()
            probes.capture(
                "link.downlink_propagation", "incident_query",
                waveform=incident_query, sample_rate=fs, segment="query",
                band_snr_db=band_snr_db(incident_query, fs, lo, hi),
            )
        with tracer.span("link.node", phase="decode_query") as sp:
            env = envelope_detect(
                self._node_selective(incident_query), f, fs
            )
            decoded_query = self.node.receive_query(env, fs)
            sp.set(decoded=decoded_query is not None)
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "query_envelope",
                waveform=env, sample_rate=fs,
                decoded=decoded_query is not None,
            )
        if decoded_query is None:
            return LinkResult(
                powered_up=True, query_decoded=False, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"), budget=budget,
            )

        # 3. Execute the command; build the reply.
        with tracer.span("link.node", phase="respond") as sp:
            response = self.node.respond(decoded_query)
            if response is None:
                return LinkResult(
                    powered_up=True, query_decoded=True, response=None,
                    demod=None, ber=float("nan"), snr_db=float("nan"),
                    budget=budget,
                )
            chips = self.node.uplink_chips(response)
            sp.set(chips=len(chips))
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "uplink_chips",
                waveform=np.asarray(chips, dtype=float),
                chips=len(chips),
            )
        chip_rate = 2.0 * self.node.bitrate
        uplink_s = len(chips) / chip_rate + self.UPLINK_MARGIN_S

        # 4. Full transmission and physical propagation.
        with tracer.span("link.pwm_synthesis", segment="query_then_carrier") as sp:
            tx, uplink_start = self.projector.query_then_carrier(
                query, uplink_s, fs
            )
            sp.set(samples=len(tx))
        if probes.wants("link.pwm_synthesis"):
            probes.capture(
                "link.pwm_synthesis", "tx_waveform",
                waveform=tx, sample_rate=fs, segment="query_then_carrier",
                uplink_start=int(uplink_start),
            )
        with tracer.span(
            "link.downlink_propagation", segment="carrier", samples=len(tx)
        ):
            incident = self._node_incident(tx)
        if probes.wants("link.downlink_propagation"):
            lo, hi = self._node_band()
            probes.capture(
                "link.downlink_propagation", "incident_carrier",
                waveform=incident, sample_rate=fs, segment="carrier",
                band_snr_db=band_snr_db(incident, fs, lo, hi),
            )
        with tracer.span("link.node", phase="backscatter", chips=len(chips)):
            delay_pn = int(round(self.ch_projector_node.direct_path.delay_s * fs))
            # The node waits half the margin after the query before replying.
            reply_start = (
                uplink_start + delay_pn + int(self.UPLINK_MARGIN_S / 2 * fs)
            )
            reflected = self._backscatter_waveform(incident, chips, reply_start)
            self.node.firmware.response_sent()
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "backscatter_reflected",
                waveform=reflected, sample_rate=fs,
                reply_start=int(reply_start), chips=len(chips),
            )

        # 5. Hydrophone mixture: direct + backscatter + noise.
        with tracer.span("link.uplink_propagation", samples=len(tx)):
            direct = self.beam_gain_hydrophone * self.ch_projector_hydrophone.apply(
                tx, include_noise=False
            ).waveform
            uplink = self.ch_node_hydrophone.apply(
                reflected, include_noise=False
            ).waveform
            n = max(len(direct), len(uplink))
            mixture = np.zeros(n)
            mixture[: len(direct)] += direct
            mixture[: len(uplink)] += uplink
            mixture += self.noise.generate(n, fs)
        if probes.wants("link.uplink_propagation"):
            chip_band = (
                max(f - chip_rate, 10.0),
                min(f + chip_rate, fs / 2.0 - 1.0),
            )
            probes.capture(
                "link.uplink_propagation", "hydrophone_mixture",
                waveform=mixture, sample_rate=fs,
                band_snr_db=band_snr_db(mixture, fs, *chip_band),
                uplink_rms_pa=float(np.sqrt(np.mean(uplink**2)))
                if len(uplink) else 0.0,
                direct_rms_pa=float(np.sqrt(np.mean(direct**2)))
                if len(direct) else 0.0,
            )

        # 6. Receiver decode: skip the query portion of the recording (the
        # PWM edges would confuse the modulation extractor), as the
        # paper's offline decoder does by segmenting on the FFT energy.
        with tracer.span("link.hydrophone_dsp", samples=len(mixture)) as sp:
            recording = self.hydrophone.record(mixture)
            # Analyse from after the carrier's turn-on edge has settled at
            # the hydrophone (the edge is a huge amplitude step that would
            # dominate the modulation-axis estimate) but before the node's
            # reply begins at margin/2.
            delay_ph = int(
                round(self.ch_projector_hydrophone.direct_path.delay_s * fs)
            )
            analysis_start = (
                uplink_start + delay_ph + int(0.3 * self.UPLINK_MARGIN_S * fs)
            )
            uplink_format = self.node.firmware.config.uplink_format
            demod = self.hydrophone.demodulate(
                recording[analysis_start:],
                f,
                self.node.bitrate,
                packet_format=uplink_format,
                detection_threshold=self.DETECTION_THRESHOLD,
            )

            true_bits = response.to_packet().to_bits(uplink_format)
            ber = (
                bit_error_rate(demod.bits, true_bits)
                if len(demod.bits)
                else float("nan")
            )
            sp.set(crc_ok=demod.success, snr_db=demod.snr_db)
        if probes.wants("link.hydrophone_dsp"):
            probes.capture(
                "link.hydrophone_dsp", "analysis_segment",
                analysis_start=int(analysis_start),
                samples=len(recording) - int(analysis_start),
                crc_ok=demod.success, snr_db=demod.snr_db, ber=ber,
                predicted_snr_db=budget.predicted_snr_db,
                error=demod.error or "",
            )
        return LinkResult(
            powered_up=True,
            query_decoded=True,
            response=response,
            demod=demod,
            ber=ber,
            snr_db=demod.snr_db,
            budget=budget,
        )

    def measure_uplink_snr(self, query: Query) -> float:
        """SNR of the uplink with ground-truth timing and bits (Fig. 8).

        Mirrors the paper's measurement methodology (Sec. 6.1a): the
        transmitted sequence is known to the experimenter, the channel is
        estimated against it, and the residual is the noise.  Using the
        true reply timing decouples the SNR metric from packet-detection
        failures at extreme bitrates.
        """
        fs = self.sample_rate
        f = self.projector.carrier_hz
        self.node.force_power(True)
        response = self.node.respond(query)
        if response is None:
            raise ValueError("query produced no response")
        chips = self.node.uplink_chips(response)
        chip_rate = 2.0 * self.node.bitrate
        uplink_s = len(chips) / chip_rate + self.UPLINK_MARGIN_S
        tx, uplink_start = self.projector.query_then_carrier(query, uplink_s, fs)
        incident = self._node_incident(tx)
        delay_pn = int(round(self.ch_projector_node.direct_path.delay_s * fs))
        reply_start = uplink_start + delay_pn + int(self.UPLINK_MARGIN_S / 2 * fs)
        reflected = self._backscatter_waveform(incident, chips, reply_start)
        self.node.firmware.response_sent()
        direct = self.ch_projector_hydrophone.apply(tx, include_noise=False).waveform
        uplink = self.ch_node_hydrophone.apply(reflected, include_noise=False).waveform
        n = max(len(direct), len(uplink))
        mixture = np.zeros(n)
        mixture[: len(direct)] += direct
        mixture[: len(uplink)] += uplink
        mixture += self.noise.generate(n, fs)
        recording = self.hydrophone.record(mixture)
        delay_ph = int(round(self.ch_projector_hydrophone.direct_path.delay_s * fs))
        analysis_start = (
            uplink_start + delay_ph + int(0.3 * self.UPLINK_MARGIN_S * fs)
        )
        fmt = self.node.firmware.config.uplink_format
        dem = self.hydrophone.demodulator(f, self.node.bitrate, packet_format=fmt)
        baseband, _cfo = dem.to_baseband(recording[analysis_start:])
        modulation = dem.extract_modulation(baseband)
        delay_nh = int(round(self.ch_node_hydrophone.direct_path.delay_s * fs))
        true_start = reply_start + delay_nh - analysis_start
        amps = dem.chip_matched_filter(modulation, max(true_start, 0))
        from repro.dsp.fm0 import fm0_expected_chips
        from repro.dsp.metrics import snr_db as snr_db_fn

        true_bits = response.to_packet().to_bits(fmt)
        true_chips = fm0_expected_chips(true_bits)
        m = min(len(true_chips), len(amps))
        if m < 8:
            return float("nan")
        rx = amps[:m] - np.mean(amps[:m])
        rx = dem.equalize_chips(rx, true_chips[: min(2 * len(fmt.preamble), m)])
        return snr_db_fn(rx, true_chips[:m])

    # -- the Fig. 2 demonstration --------------------------------------------------------

    def switching_demo(
        self,
        *,
        silence_s: float = 0.5,
        carrier_only_s: float = 0.6,
        switching_s: float = 1.2,
        switch_rate_hz: float = 10.0,
    ) -> dict:
        """Reproduce the Fig. 2 experiment.

        Silence, then the projector turns on a continuous carrier, then
        the node toggles reflective/absorptive at ``switch_rate_hz``.
        Returns the demodulated (downconverted + low-passed) envelope and
        its timebase, plus the segment boundaries.
        """
        fs = self.sample_rate
        f = self.projector.carrier_hz
        n_sil = int(silence_s * fs)
        carrier = self.projector.carrier_waveform(
            carrier_only_s + switching_s, fs
        )
        tx = np.concatenate([np.zeros(n_sil), carrier])
        incident = self._node_incident(tx)
        # Build the switching chip train (one chip per half switching period).
        n_toggles = int(switching_s * switch_rate_hz * 2.0)
        chips = np.arange(n_toggles) % 2
        switch_chip_rate = 2.0 * switch_rate_hz
        spc = fs / switch_chip_rate
        start = n_sil + int(carrier_only_s * fs)
        gamma_a, _g, trajectory = self.node.reflection_trajectory(chips, f)
        gamma_t = np.full(len(incident), complex(gamma_a))
        for k, g in enumerate(trajectory):
            a = start + int(round(k * spc))
            b = start + int(round((k + 1) * spc))
            if a >= len(incident):
                break
            gamma_t[a : min(b, len(incident))] = g
        reflected = np.real(gamma_t * analytic_signal(incident))
        direct = self.beam_gain_hydrophone * self.ch_projector_hydrophone.apply(
            tx, include_noise=False
        ).waveform
        uplink = self.ch_node_hydrophone.apply(reflected, include_noise=False).waveform
        n = max(len(direct), len(uplink))
        mixture = np.zeros(n)
        mixture[: len(direct)] += direct
        mixture[: len(uplink)] += uplink
        mixture += self.noise.generate(n, fs)
        envelope = envelope_detect(mixture, f, fs, cutoff_hz=8.0 * switch_rate_hz)
        return {
            "time_s": np.arange(len(envelope)) / fs,
            "envelope_pa": envelope,
            "carrier_on_s": silence_s,
            "backscatter_on_s": silence_s + carrier_only_s,
            "switch_rate_hz": switch_rate_hz,
        }
