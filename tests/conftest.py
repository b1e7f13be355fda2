import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """Fail a test after which a child process is still running or was never reaped.

    ``subprocess.run`` reaps its own children, so only a leak trips this.
    """
    yield
    if not hasattr(os, "WNOHANG"):  # no POSIX child processes to look for
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("a child process is still running" if pid == 0
                else f"child process {pid} was left unreaped")


@pytest.fixture
def forks(monkeypatch):
    """The pid of every caller of ``os.fork`` during the test, recorded by a wrapper."""
    calls, fork = [], getattr(os, "fork", None)
    if fork is None:  # nothing can fork here
        return calls

    def counting_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls
