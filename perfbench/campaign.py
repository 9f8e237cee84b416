"""One benchmark campaign, run in the calling process.

The runner (``run.py``) imports this module once, then forks one child
per campaign and calls :func:`run_role` there.  Every child starts from
the same freshly imported interpreter, so caches, allocator state and
peak memory never carry over from another campaign, and the imports
are paid once per run instead of once per campaign.

Roles:

* ``measured`` — the shipped fast mode, untraced; times set-up, the
  first round (one clock read per round) and the whole campaign.
* ``witness`` — the reader's default sequential path on the same
  inputs; no metric uses its times, and its outcome must equal every
  measured one.
* ``traced`` — the fast mode with the outside-in layer trace bound
  before the fleet is built; adds the per-layer table.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups are repeated (caches cleared before each) until this much
#: time is spent, within the count limits; the last one builds the
#: fleet the campaign polls.  Small fleets set up in tens of
#: milliseconds, so one sample would be mostly timer noise.  The
#: untimed witness sets up once.
SETUP_SECONDS = 0.5
MIN_SETUPS = 3
MAX_SETUPS = 25

_t0 = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import fleet  # noqa: E402
import workloads  # noqa: E402
from repro.perf import clear_all_caches  # noqa: E402

#: Seconds spent importing the simulator, once per runner process.
IMPORT_S = time.perf_counter() - _t0


def run_role(workload_name: str, seed: int, role: str, workdir: Path) -> dict:
    """Set up and run one campaign; return its JSON-ready result."""
    trace = None
    if role == "traced":
        from layertrace import LayerTrace

        trace = LayerTrace()
        trace.install()

    workload = workloads.WORKLOADS[workload_name]
    mode = workloads.WITNESS_MODE if role == "witness" else workloads.MODE
    setups = []
    while True:
        clear_all_caches()
        start = time.perf_counter()
        campaign = fleet.Campaign(workload, seed, mode, workdir)
        setups.append(time.perf_counter() - start)
        if role == "witness" or len(setups) >= MAX_SETUPS or (
            len(setups) >= MIN_SETUPS and sum(setups) >= SETUP_SECONDS
        ):
            break
        campaign.cleanup()

    round_ends = []
    if role == "measured":
        poll_round = campaign.reader.poll_round

        def timed_round(command):
            out = poll_round(command)
            round_ends.append(time.perf_counter())
            return out

        campaign.reader.poll_round = timed_round
    if trace is not None:
        trace.reset()
    start = time.perf_counter()
    report = campaign.run()
    campaign_s = time.perf_counter() - start
    spans_in_campaign = len(trace.spans) if trace is not None else 0
    check = campaign.check(report)
    result = {
        "role": role,
        "import_s": IMPORT_S,
        "setup_s": setups,
        "campaign_s": campaign_s,
        "first_round_s": round_ends[0] - start if round_ends else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check": check,
    }
    if trace is not None:
        del trace.spans[spans_in_campaign:]    # the check's own calls
        result["per_layer"] = trace.per_layer(campaign_s, check)
        result["layers"] = trace.layers()
    campaign.cleanup()
    return result
