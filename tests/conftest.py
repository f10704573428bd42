"""Shared pytest fixtures."""

import signal

import pytest


@pytest.fixture
def deadline():
    """``deadline(seconds)`` fails the calling test once that much wall time
    has passed, so a search that stops terminating fails with a message
    instead of hanging the suite.  It uses SIGALRM, so it works in the main
    thread of a POSIX process only."""
    limit = []

    def expire(signum, frame):
        pytest.fail(f"test ran past its deadline of {limit[0]} s", pytrace=False)

    def arm(seconds):
        limit[:] = [seconds]
        signal.setitimer(signal.ITIMER_REAL, seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    yield arm
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
