"""Fixtures shared by the test modules."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import lanecast.lanes


class _WorkerLog(list):
    """Thread ids of the tasks the lane worker ran; `futures` holds their futures."""

    def __init__(self):
        super().__init__()
        self.futures = []


@pytest.fixture
def worker_log(monkeypatch):
    """Replace the lane worker with one that logs every task it runs."""
    executor = ThreadPoolExecutor(max_workers=1)
    log = _WorkerLog()

    class LoggedWorker:
        def submit(self, fn, *args):
            def logged():
                log.append(threading.get_ident())
                return fn(*args)

            log.futures.append(executor.submit(logged))
            return log.futures[-1]

    monkeypatch.setattr(lanecast.lanes, "_WORKER", LoggedWorker())
    yield log
    executor.shutdown()
