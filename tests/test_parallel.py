import threading
import time

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


def test_the_callers_error_waits_for_its_helpers():
    # piece 0 (the caller's) fails while piece 1 still runs: its error is
    # raised only after piece 1 has finished and its thread been joined
    threads = threading.active_count()
    started = threading.Event()
    done = []

    def work(i):
        if i == 0:
            assert started.wait(timeout=10)
            raise ValueError("piece 0 failed")
        started.set()
        time.sleep(0.05)
        done.append(i)

    with pytest.raises(ValueError, match="piece 0 failed"):
        run_pieces(work, 2)
    assert done == [1]
    assert threading.active_count() == threads
