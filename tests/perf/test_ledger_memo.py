"""The leg memo runs for ledgered nodes and leaves every energy book unchanged.

A firmware :class:`~repro.obs.ledger.EnergyLedger` no longer switches
the link's leg memo off.  A memo hit skips only the query decode's
``DECODING -> IDLE`` state pair, which books no time, so a cached run
must reproduce an uncached one exactly: every :class:`LinkResult`, every
ledger book, and at reader level the campaign digest and the telemetry
stream's bytes.
"""

import hashlib

from repro.acoustics import POOL_A, Position
from repro.acoustics.noise import AmbientNoiseModel
from repro.circuits.storage import Supercapacitor
from repro.core import BackscatterLink, Projector
from repro.faults import EventLog
from repro.net import Command, Query, ReaderController, RetryPolicy
from repro.net.messages import bitrate_code
from repro.node import PABNode
from repro.obs import (
    AnomalyMonitor,
    EnergyLedger,
    FlightRecorder,
    JsonlStreamSink,
    MetricsRegistry,
    NodeEnergyHarness,
    SLOTracker,
    TelemetryBus,
)
from repro.perf import caching_disabled, clear_all_caches
from repro.piezo import Transducer
from repro.resilience import campaign_digest

ADDR = 0x21
BITRATE = 2_000.0


def _link(addr=ADDR, *, x=0.84, seed=3, detuned_mode=False):
    """A ledgered link in the ``repro bench`` tank layout.

    ``detuned_mode`` gives the node a second resonance channel at 0.8x
    the carrier, where it cannot harvest enough to power up.
    """
    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    channels = (f, 0.8 * f) if detuned_mode else (f,)
    node = PABNode(
        address=addr,
        channel_frequencies_hz=channels,
        bitrate=BITRATE,
        ledger=EnergyLedger(node=addr),
    )
    return BackscatterLink(
        POOL_A,
        Projector(transducer=transducer, drive_voltage_v=60.0, carrier_hz=f),
        Position(0.5, 1.5, 0.6),
        node,
        Position(x, 1.5, 0.6),
        Position(1.0, 0.8, 0.6),
        noise=AmbientNoiseModel(spectrum="flat", flat_level_db=35.0, seed=seed),
    )


def _result_fields(result):
    """Every observable field of a LinkResult, exactly."""
    demod = result.demod
    return (
        result.powered_up,
        result.query_decoded,
        result.response,
        result.budget,
        result.fault,
        repr(result.ber),
        repr(result.snr_db),
        None if demod is None else (
            demod.bits.tobytes(), demod.success, repr(demod.snr_db),
            demod.error,
        ),
    )


def _ledger_books(ledger):
    return (
        ledger.state,
        dict(ledger.flows),
        dict(ledger.state_seconds),
        ledger.brownouts,
        list(ledger.soc_t),
        list(ledger.soc_v),
    )


#: Repeated READ_PH (memo hits), a SET_BITRATE, and a switch to the
#: detuned resonance channel whose next exchange misses power-up.
SCRIPT = (
    Query(ADDR, Command.READ_PH),
    Query(ADDR, Command.READ_PH),
    Query(ADDR, Command.SET_BITRATE, bitrate_code(1_000.0)),
    Query(ADDR, Command.READ_PH),
    Query(ADDR, Command.READ_PH),
    Query(ADDR, Command.SET_RESONANCE_MODE, 1),
    Query(ADDR, Command.READ_PH),
    Query(ADDR, Command.READ_PH),
    Query(ADDR, Command.READ_PH),
)


def _run_script():
    """Drive the script; book supercap flows in whatever state each
    exchange leaves the ledger, so a state the memo got wrong shows in
    ``flows``, ``state_seconds`` and the SoC series too."""
    clear_all_caches()
    link = _link(detuned_mode=True)
    ledger = link.node.ledger
    cap = Supercapacitor(initial_voltage_v=2.2)
    ledger.attach(cap)
    results = []
    for query in SCRIPT:
        result = link.run_query(query)
        results.append(_result_fields(result))
        if not result.powered_up:
            # A brownout resets the MCU: it reboots on the default channel.
            link.node.firmware.config.resonance_mode = 0
        for _ in range(3):
            cap.charge_from_source(0.01, 3.0, 2_000.0, i_load_a=1e-4)
    return link, results, _ledger_books(ledger)


class TestLinkLedgerMemo:
    def test_cached_matches_uncached_results_and_books(self):
        with caching_disabled():
            _, uncached, uncached_books = _run_script()
        link, cached, cached_books = _run_script()

        powered = [fields[0] for fields in cached]
        assert not all(powered) and any(powered)       # a power-up miss
        assert cached == uncached
        assert cached_books == uncached_books
        assert cached_books[3] >= 1                    # the miss browned out
        assert _memo_ran(link)


def _memo_ran(link) -> bool:
    """Whether the last exchange took the memoized path, the only one
    that stores a budget under the node's current mode and bitrate."""
    key = ("budget", link.node.firmware.config.resonance_mode, link.node.bitrate)
    return key in link._leg_memo


def _observed_campaign(tmp_path, *, nodes=3, rounds=6, mode=0):
    """A small campaign shaped like perfbench's ``fleet-observed``."""
    clear_all_caches()
    links = {
        0x10 + i: _link(0x10 + i, x=0.8 + 0.04 * i, seed=2_019_000 + i)
        for i in range(nodes)
    }
    stream = tmp_path / "stream.jsonl"
    bus = TelemetryBus(sinks=[JsonlStreamSink(stream), FlightRecorder()])
    log, metrics = EventLog(), MetricsRegistry()
    reader = ReaderController(
        {a: link.run_query for a, link in links.items()},
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=2019
        ),
        log=log,
        metrics=metrics,
        parallel=mode,
        ledgers={
            a: NodeEnergyHarness(a, v_oc_v=3.4 + 0.15 * (a % 5), bitrate=BITRATE)
            for a in links
        },
        slo=SLOTracker(window=5),
        analytics=AnomalyMonitor(),
        bus=bus,
    )
    report = reader.run_campaign(
        Command.READ_PH, rounds=rounds,
        checkpoint_every=3, checkpoint_dir=tmp_path / "checkpoints",
    )
    bus.close()
    return (
        campaign_digest(report, log, metrics),
        hashlib.sha256(stream.read_bytes()).hexdigest(),
        sum(_memo_ran(link) for link in links.values()),
    )


class TestObservedCampaignLedgerMemo:
    def test_digest_and_stream_match_uncached(self, tmp_path):
        with caching_disabled():
            uncached = _observed_campaign(tmp_path / "uncached")
        cached = _observed_campaign(tmp_path / "cached")
        batched = _observed_campaign(tmp_path / "batch", mode="batch")
        assert cached[:2] == uncached[:2]
        assert batched[:2] == uncached[:2]
        assert uncached[2] == 0
        assert cached[2] == 3
