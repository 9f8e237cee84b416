"""The benchmark's workloads: fleet shapes, the mode under test, and why.

Kept free of simulator imports so the runner can read it cheaply.  The
fleets themselves are built in :mod:`fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The shipped fast mode every measured campaign asks for.
MODE = "batch"
#: The reader's default path; the untimed witness runs it.
WITNESS_MODE = 0

DEFAULT_SEED = 2019


@dataclass(frozen=True)
class Workload:
    """A named fleet shape and the reason it is in the benchmark."""

    name: str
    nodes: int
    rounds: int
    why: str

    @property
    def operations(self) -> int:
        """Node-rounds in one campaign (the unit of work)."""
        return self.nodes * self.rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet-steady", 100, 4,
            "100 nodes under the pinned steady-state health policy: the "
            "speculative planner and stacked kernels do almost all the work",
        ),
        Workload(
            "fleet-churn", 30, 10,
            "30 nodes under the adaptive health policy with faults on 3 of 4 "
            "nodes and a mid-campaign bitrate wave that discards speculation",
        ),
        Workload(
            "fleet-observed", 10, 8,
            "10 ledgered nodes with SLO, anomaly, telemetry-bus and checkpoint "
            "observers: the planner is off and uncached stages do the work",
        ),
    )
}
