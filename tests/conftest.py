import os

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
