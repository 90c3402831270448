import os

import pytest

from rffnet import numerics


@pytest.fixture
def split_everything(monkeypatch):
    """Make numerics.split_pays say yes to every array, on a 2-CPU affinity, so that
    every call site runs its two halves on the helper thread and here."""
    def split():
        monkeypatch.setattr(numerics, "SPLIT_MIN_VALUES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return split
