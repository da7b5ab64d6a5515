import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Single-core box: generous deadlines, modest example counts.
settings.register_profile(
    "supfield",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("supfield")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def deadline():
    """Fail the test with TimeoutError once it has run 10 s, where a missing refusal
    would otherwise let a loop run forever and hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("no answer within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
