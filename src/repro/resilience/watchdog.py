"""Wall-clock watchdog budgets for polling rounds.

A hung transport (stuck modem, wedged serial line, a poll blocked in
I/O) must not hang an hours-long campaign.  The watchdog gives
:meth:`repro.net.reader.ReaderController.poll_round` two budgets:

* a **per-transaction** deadline — the longest a single node's poll may
  run before the reader gives up on it this round, and
* a **per-round** deadline — the longest the whole round may take; once
  it is spent, the running poll is abandoned and every node not yet
  polled this round is booked without being polled.

The reader enforces both in every execution mode (``parallel=0`` and
``"batch"``): with an armed policy each node's poll runs on a one-shot
daemon guard thread, joined for the smaller of the transaction budget
and what is left of the round budget.  A breached budget does not
raise: the reader books a :class:`WatchdogTimeout` as a
``watchdog_timeout`` fault event, a decode post-mortem, and a failure
fed to the node's health machine — the campaign keeps going.  The
abandoned thread cannot be killed; until it returns, the node is not
polled again (each round it would be is booked as the same timeout),
so no transport is ever entered by two threads at once.

Because breaches are triggered by *wall-clock* time, a campaign that
suffers one is not byte-reproducible — determinism guarantees apply
to crash containment (:mod:`repro.resilience.supervisor`) and
checkpoint/resume (:mod:`repro.resilience.checkpoint`), not to timeout
placement.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WatchdogPolicy:
    """Wall-clock budgets enforced by the reader's round loop.

    Parameters
    ----------
    transaction_deadline_s:
        Budget for one node's poll (``None`` disables).
    round_deadline_s:
        Budget for the whole polling round (``None`` disables).  The
        round clock starts after the batched prepass (``parallel=
        "batch"``), when the first node is polled; once it runs out the
        running poll times out and the rest of the round's nodes are
        booked as timeouts without being polled.

    Rounds observed by an enabled tracer or probe registry poll inline
    and unguarded: spans and probe taps keep a single-threaded stack,
    so the policy is not enforced while either is on.
    """

    transaction_deadline_s: float | None = None
    round_deadline_s: float | None = None

    def __post_init__(self) -> None:
        for label, value in (
            ("transaction_deadline_s", self.transaction_deadline_s),
            ("round_deadline_s", self.round_deadline_s),
        ):
            if value is not None and not value > 0:
                raise ValueError(f"{label} must be positive or None")

    @property
    def enabled(self) -> bool:
        return (
            self.transaction_deadline_s is not None
            or self.round_deadline_s is not None
        )


@dataclass(frozen=True)
class WatchdogTimeout:
    """A node's poll abandoned (or not started) past its deadline.

    ``budget`` names which budget ran out (``"transaction"`` or
    ``"round"``); ``deadline_s`` is the wall-clock allowance that was
    exceeded.
    """

    key: object
    budget: str
    deadline_s: float
