"""A deadline for tests that wait on forked workers."""

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block, rather than hang, once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
