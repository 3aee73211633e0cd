"""The worker pool on its own, driven with plain functions: results in
task order, the caller's own share, a worker's exception or death, and a
task whose socket pair or fork fails."""

import errno
import os
import signal
import socket

import numpy as np
import pytest

from hypmax import pool


def where(task):
    """The worker's pid, the task's label and twice its array; a worker
    raises or kills itself where the label says so."""
    label, arr = task
    if label == "raise":
        raise ValueError(f"no {label} wanted")
    if label == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return os.getpid(), label, 2 * arr


def tasks(*labels):
    return [(label, np.arange(5.0) + k) for k, label in enumerate(labels)]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_pool():
    pool._close_pool()
    yield
    pool._close_pool()
    assert_no_child()


def test_results_come_back_in_task_order_and_first_runs_in_the_caller():
    ran = []
    for n in (3, 2, 3):
        got = pool.run(where, tasks(*"abc"[:n]), lambda: ran.append(os.getpid()))
        assert [label for _, label, _ in got] == list("abc"[:n])
        for (_, _, doubled), (_, arr) in zip(got, tasks(*"abc"[:n])):
            assert doubled.tobytes() == (2 * arr).tobytes()
        # task k ran in worker k, never in the caller
        assert [pid for pid, _, _ in got] == [w.pid for w in pool._pool[:n]]
        assert os.getpid() not in [pid for pid, _, _ in got]
    # the first call forked three workers and the later ones reused them
    assert len(pool._pool) == 3
    assert ran == [os.getpid()] * 3


def test_no_task_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    ran = []
    assert pool.run(where, [], lambda: ran.append(None)) == []
    assert ran == [None]
    assert pool._pool == []


def test_a_worker_exception_raises_in_the_caller():
    with pytest.raises(RuntimeError, match="member-pass worker failed: ValueError: no raise wanted") as exc:
        pool.run(where, tasks("a", "raise"), lambda: None)
    assert "Traceback (most recent call last)" in str(exc.value)
    assert pool._pool == []
    assert_no_child()


def test_a_worker_killed_in_its_task_fails_the_call():
    pool.run(where, tasks("a", "b"), lambda: None)
    with pytest.raises(RuntimeError, match="member-pass worker died"):
        pool.run(where, tasks("a", "die"), lambda: None)
    assert pool._pool == []
    assert_no_child()
    # the next call forks a new pool
    assert [label for _, label, _ in pool.run(where, tasks("a", "b"), lambda: None)] == ["a", "b"]
    assert len(pool._pool) == 2


@pytest.mark.parametrize("fails", ["socketpair", "fork"])
def test_a_task_whose_socket_pair_or_fork_fails_runs_in_the_caller(fails, monkeypatch):
    target = socket if fails == "socketpair" else os
    real, calls = getattr(target, fails), []

    def first_fails():
        calls.append(None)
        if len(calls) == 1:
            raise OSError(errno.EMFILE, "Too many open files")
        return real()

    monkeypatch.setattr(target, fails, first_fails)
    fds = open_fds()
    got = pool.run(where, tasks("a", "b"), lambda: None)
    assert [label for _, label, _ in got] == ["a", "b"]
    # task 0 ran here, task 1 in the one worker the second attempt forked
    assert [pid for pid, _, _ in got] == [os.getpid(), pool._pool[0].pid]
    assert len(pool._pool) == 1
    # the failed attempt left no socket open: only the worker's end is new
    assert open_fds() == fds + 1
