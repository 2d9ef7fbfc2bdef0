import signal

import pytest

from hornlearn.generate import example_corpus

DEADLINE_S = 60  # 8x the slowest test, acceptance criterion 09


class DeadlineExceeded(BaseException):
    """Not an `Exception`, so that neither the code under test nor
    `hypothesis` takes it for a failing example to catch and run again."""


def _expire(signum, frame):
    if frame.f_lineno is None:
        # Python 3.11 can stop a loop on an instruction with no line
        # number, a traceback entry pytest cannot print: stop it again
        signal.setitimer(signal.ITIMER_REAL, 0.001)
        return
    raise DeadlineExceeded(f"the test ran past its {DEADLINE_S} s deadline")


@pytest.fixture(autouse=True)
def deadline():
    """A test that hangs fails under its own name instead of stalling the
    suite."""
    signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)


@pytest.fixture(scope="session")
def gd_example():
    return example_corpus()["gd-example"]


@pytest.fixture(scope="session")
def bullet_example():
    return example_corpus()["bullet-example"]
