"""The ordered fan-out that verify and compare run their tasks through."""

import multiprocessing
import os
import threading
import time
from functools import partial

import pytest

from kindep import parallel


def _slow_pid(index):
    time.sleep(0.05)  # long enough for every worker to take tasks from the front
    return index, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_task_order(monkeypatch, workers):
    monkeypatch.setattr(parallel, "_workers", lambda: workers)
    results = parallel.fan_out([partial(_slow_pid, i) for i in range(8)])
    assert multiprocessing.active_children() == []
    assert [index for index, _ in results] == list(range(8))
    pids = {pid for _, pid in results}
    assert os.getpid() in pids  # the parent is one of the processes
    assert len(pids) == workers


def test_no_task_is_no_work(monkeypatch):
    monkeypatch.setattr(parallel, "_workers", lambda: 2)
    assert parallel.fan_out([]) == []


def test_a_process_with_threads_does_not_fork(monkeypatch):
    monkeypatch.setattr(parallel, "_workers", lambda: 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        results = parallel.fan_out([partial(_slow_pid, i) for i in range(3)])
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert results == [(i, os.getpid()) for i in range(3)]


def _count_run(counter, index):
    with counter.get_lock():
        counter.value += 1
    return index


def test_each_task_runs_exactly_once_with_more_processes_than_cores(monkeypatch):
    monkeypatch.setattr(parallel, "_workers", lambda: 4)  # more than a small host's cores
    counter = multiprocessing.get_context("fork").Value("i", 0)
    start = time.perf_counter()
    results = parallel.fan_out([partial(_count_run, counter, i) for i in range(400)])
    assert time.perf_counter() - start < 60
    assert multiprocessing.active_children() == []
    assert results == list(range(400))
    assert counter.value == 400  # a task claimed twice would count twice
