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
