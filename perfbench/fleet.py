"""The benchmark's fleets and readers, built from public constructors.

Every workload (:mod:`workloads`) polls a fleet of waveform-level PAB
nodes in the ``repro bench`` tank layout (Pool A, 2 kbps, ``Command.READ_PH``, one
MAC retry).  A :class:`Campaign` owns one freshly built fleet and
reader; :meth:`Campaign.run` executes the polling campaign and returns
the reader's report, and :meth:`Campaign.check` reduces the outcome to
the values every run of the same inputs must reproduce exactly.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

from repro.acoustics import POOL_A, Position
from repro.acoustics.noise import AmbientNoiseModel
from repro.core import BackscatterLink, Projector
from repro.faults import (
    BrownoutInjector,
    EventLog,
    NoiseBurstInjector,
    TransportExceptionInjector,
)
from repro.net import Command, HealthPolicy, ReaderController, RetryPolicy
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
from repro.piezo import Transducer
from repro.resilience import campaign_digest
from workloads import Workload

BITRATE = 2_000.0
COMMAND = Command.READ_PH
FIRST_ADDRESS = 0x10


def node_position(index: int) -> Position:
    """The ``repro bench`` tank layout: ranks of 70 along x, then y, then z."""
    rank, col = divmod(index, 70)
    return Position(
        0.8 + 0.04 * col, 1.5 + 0.25 * (rank % 5), 0.6 + 0.05 * (rank // 5)
    )


def build_links(nodes: int, seed: int, *, ledgers: bool = False) -> dict:
    """``{address: BackscatterLink}`` with per-node geometry and noise seed."""
    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    links = {}
    for i in range(nodes):
        addr = FIRST_ADDRESS + i
        node = PABNode(
            address=addr,
            channel_frequencies_hz=(f,),
            bitrate=BITRATE,
            ledger=EnergyLedger(node=addr) if ledgers else None,
        )
        links[addr] = BackscatterLink(
            POOL_A,
            Projector(transducer=transducer, drive_voltage_v=60.0, carrier_hz=f),
            Position(0.5, 1.5, 0.6),
            node,
            node_position(i),
            Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat", flat_level_db=35.0, seed=1000 * seed + addr
            ),
        )
    return links


def churn_transport(link, seed: int, log):
    """Wrap three nodes in four (by address) in a fault injector."""
    addr = int(link.node.address)
    index = addr - FIRST_ADDRESS
    role = addr % 4
    inner = link.run_query
    kwargs = {"node": addr, "log": log, "seed": 7919 * seed + addr}
    if role == 1:
        return NoiseBurstInjector(inner, start=2 + index % 5, duration=3, **kwargs)
    if role == 2:
        return BrownoutInjector(inner, at=3 + index % 4, dark_for=4, **kwargs)
    if role == 3:
        return TransportExceptionInjector(
            inner, at=(2 + index % 3, 7 + index % 5), **kwargs
        )
    return inner


class Campaign:
    """One workload's fleet, reader and observers, ready to poll."""

    def __init__(self, workload: Workload, seed: int, mode, workdir: Path) -> None:
        self.workload = workload
        self.workdir = Path(workdir)
        self.log = EventLog()
        self.metrics = MetricsRegistry()
        self.bus = None
        self.checkpoint_dir = None
        self.stream_path = None
        observed = workload.name == "fleet-observed"
        links = build_links(workload.nodes, seed, ledgers=observed)
        kwargs = {}
        if workload.name == "fleet-steady":
            transports = {a: link.run_query for a, link in links.items()}
            kwargs["health_policy"] = HealthPolicy(
                degrade_after=10**6, quarantine_after=10**6 + 1
            )
        elif workload.name == "fleet-churn":
            transports = {
                a: churn_transport(link, seed, self.log) for a, link in links.items()
            }
        elif observed:
            transports = {a: link.run_query for a, link in links.items()}
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.checkpoint_dir = self.workdir / "checkpoints"
            self.stream_path = self.workdir / "stream.jsonl"
            self.bus = TelemetryBus(
                sinks=[JsonlStreamSink(self.stream_path), FlightRecorder()]
            )
            kwargs.update(
                ledgers={
                    a: NodeEnergyHarness(
                        a, v_oc_v=3.4 + 0.15 * (a % 5), bitrate=BITRATE
                    )
                    for a in links
                },
                slo=SLOTracker(window=5),
                analytics=AnomalyMonitor(),
                bus=self.bus,
            )
        else:
            raise KeyError(workload.name)
        self.reader = ReaderController(
            transports,
            retry_policy=RetryPolicy(
                max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=seed
            ),
            log=self.log,
            metrics=self.metrics,
            parallel=mode,
            **kwargs,
        )

    def run(self) -> dict:
        """Poll every node for the workload's rounds; return the report."""
        rounds = self.workload.rounds
        if self.workload.name == "fleet-churn":
            # Reconfiguration wave halfway: SET_BITRATE to every fifth
            # node, between two halves of one campaign.
            half = rounds // 2
            self.reader.run_campaign(COMMAND, rounds=half)
            for addr in sorted(self.reader.nodes)[::5]:
                self.reader.set_bitrate(addr, 1_000.0)
            return self.reader.run_campaign(COMMAND, rounds=rounds)
        if self.bus is not None:
            return self.reader.run_campaign(
                COMMAND, rounds=rounds,
                checkpoint_every=3, checkpoint_dir=self.checkpoint_dir,
            )
        return self.reader.run_campaign(COMMAND, rounds=rounds)

    def close(self) -> None:
        if self.bus is not None:
            self.bus.close()

    def check(self, report: dict) -> dict:
        """The deterministic outcome: digests, simulated statistics, counts."""
        counts = {"downgrades": 0, "quarantines": 0, "faults": 0}
        for event in self.log:
            detail = dict(event.detail)
            kind = str(event.kind)
            if kind == "bitrate" and detail.get("action") == "downgrade":
                counts["downgrades"] += 1
            elif kind == "state" and detail.get("to") == "quarantined":
                counts["quarantines"] += 1
            elif kind == "fault":
                counts["faults"] += 1
        network = report["network"]
        out = {
            "digest": campaign_digest(report, self.log, self.metrics),
            "operations": self.workload.nodes * report["rounds"],
            "sim": {
                "delivery_ratio": network["delivery_ratio"],
                "exchanges": network["attempts"],
                "retries": network["retries"],
                "downgrades": counts["downgrades"],
            },
            "quarantines": counts["quarantines"],
            "faults": counts["faults"],
        }
        if self.stream_path is not None:
            self.close()
            out["bus_events"] = self.bus.seq
            out["stream_digest"] = hashlib.sha256(
                self.stream_path.read_bytes()
            ).hexdigest()
            out["checkpoint_bytes"] = sum(
                p.stat().st_size for p in self.checkpoint_dir.iterdir()
            )
        return out

    def cleanup(self) -> None:
        self.close()
        if self.checkpoint_dir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
