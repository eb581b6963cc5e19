import threading

import numpy as np
import pytest

from neonext.parallel import run_pieces


def test_an_error_in_a_started_thread_reaches_the_caller():
    # the helper runs in a copy of the caller's context, so numpy's error
    # state reaches it, and its error is raised in the caller once every
    # thread has been joined
    threads = threading.active_count()
    done = []

    def work(i):
        if i == 1:
            np.float64(1.0) / np.float64(0.0)
        done.append(i)

    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="divide by zero"):
        run_pieces(work, 2)
    assert done == [0]
    assert threading.active_count() == threads
