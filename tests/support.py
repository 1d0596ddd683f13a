"""Shared helpers for timing-sensitive tests.

Fixed ``time.sleep`` waits encode an assumption about machine speed; on a
loaded 1-2 core CI runner they either flake (too short) or waste wall
clock (too long).  :func:`wait_until` polls a predicate instead: it
returns as soon as the condition holds and only the *failure* case pays
the full timeout.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


def wait_until(
    predicate: Callable[[], bool],
    timeout: float = 5.0,
    interval: float = 0.005,
    message: Optional[str] = None,
) -> None:
    """Poll ``predicate`` until it is truthy; fail the test on timeout.

    ``interval`` is the polling period (seconds).  ``message`` names the
    awaited condition in the failure output.
    """
    deadline = time.monotonic() + timeout
    while True:
        if predicate():
            return
        if time.monotonic() >= deadline:
            raise AssertionError(
                message or f"condition not reached within {timeout}s"
            )
        time.sleep(interval)


def wait_for_value(
    supplier: Callable[[], object],
    timeout: float = 5.0,
    interval: float = 0.005,
    message: Optional[str] = None,
):
    """Poll ``supplier`` until it returns a truthy value; return that value."""
    deadline = time.monotonic() + timeout
    while True:
        value = supplier()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(
                message or f"no value produced within {timeout}s"
            )
        time.sleep(interval)


def logged_by(db, run: Callable[[], object]):
    """Run ``run()``; returns ``(result, counters, records)``.

    ``counters`` are the obs counters the call moved (absent: not moved),
    ``records`` the WAL records it appended — what one user action cost
    the log, by count.
    """
    from repro import obs

    mark = db._wal.next_lsn
    with obs.instrumentation() as (_tracer, metrics):
        result = run()
        counters = metrics.snapshot()["counters"]
    return result, counters, [r for r in db._wal.records() if r.lsn >= mark]
