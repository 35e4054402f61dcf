"""Fixtures shared by the test modules."""

import concurrent.futures
from types import SimpleNamespace

import pytest


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for ``concurrent.futures.ProcessPoolExecutor`` and maps in
    this process, so no process starts.  Returns the record it keeps:
    ``sizes``, the ``max_workers`` of each pool built, and ``slices``, the
    (trial_lo, trial_hi) of each call mapped, in order."""
    record = SimpleNamespace(sizes=[], slices=[])

    class SerialPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            calls = list(zip(*iterables))
            record.slices.extend(calls)
            return [fn(*args) for args in calls]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return record
