"""Fixtures shared by the test modules."""

import numpy as np
import pytest


class FFTCounts(dict):
    """Calls of np.fft.rfft and irfft by name; calls lists each as (name, transform length) in call order."""

    def __init__(self):
        super().__init__(rfft=0, irfft=0)
        self.calls = []


@pytest.fixture
def fft_counts(monkeypatch):
    """Route np.fft.rfft and irfft through counters; returns the live FFTCounts.

    The length is the real side's: the samples rfft reads, after any cut or
    pad to its n, and the samples irfft writes.
    """
    counts = FFTCounts()
    for name in counts:
        fft = getattr(np.fft, name)

        def counted(a, n=None, axis=-1, *args, _fft=fft, _name=name, **kw):
            out = _fft(a, n, axis, *args, **kw)
            counts[_name] += 1
            length = out.shape[axis] if _name == "irfft" else n if n is not None else np.shape(a)[axis]
            counts.calls.append((_name, length))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return counts
