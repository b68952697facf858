"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def fft_counts(monkeypatch):
    """Route np.fft.rfft and irfft through counters; returns the live counts."""
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        fft = getattr(np.fft, name)

        def counted(*args, _fft=fft, _name=name, **kw):
            counts[_name] += 1
            return _fft(*args, **kw)

        monkeypatch.setattr(np.fft, name, counted)
    return counts
