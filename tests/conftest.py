import os
import signal

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every process a test forks, directly or through ``score_batch``, is waited for before the test ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_file_descriptor_left():
    """No test ends with more open file descriptors than it began with, such as a training step's pipe ends."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = len(os.listdir("/proc/self/fd"))
    yield
    assert len(os.listdir("/proc/self/fd")) <= before, "a file descriptor opened in this test is still open"


# the modules whose tests fork workers that wait on pipes, and how long one of their tests may run
WORKER_TEST_MODULES = ("test_training_workers", "test_batching")
WORKER_TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def no_deadlocked_worker(request):
    """A worker test still running after ``WORKER_TEST_SECONDS`` fails, so a pipe deadlock cannot hang the suite.

    The alarm fails the test with ``pytest.fail``, which no ``except
    Exception`` in the program catches; forked children inherit no timer.
    """
    if request.module.__name__ not in WORKER_TEST_MODULES or not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("still running after %d s: a worker may be waiting on a pipe that no one writes"
                    % WORKER_TEST_SECONDS)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WORKER_TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
