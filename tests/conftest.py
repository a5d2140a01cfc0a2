"""Shared test settings.

Property tests run under one deterministic hypothesis profile: examples are
derived from each test's own code, not from a random seed or a stored example
database, and their number is bounded, so every run of the suite checks the
same cases in about the same time.  The memory tests share transient_peak,
the grid tests meshgrid, the tests that need a divergence-free field leray,
and the tests that count a step's transforms count_transforms.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import settings

from thinspray.grid import VectorField, fft, ifft, project_spectrum

settings.register_profile("thinspray", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("thinspray")


def transient_peak(call) -> int:
    """Peak bytes one call of `call` allocates beyond what is alive before it.

    `call` runs once untraced first, so that caches it fills (the spectral
    tables) are alive before the traced call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def meshgrid(grid) -> list[np.ndarray]:
    """Coordinate arrays of shape grid.shape (ij indexing)."""
    x = grid.axis_points()
    return list(np.meshgrid(*([x] * grid.dim), indexing="ij"))


def leray(v):
    """The Leray projection of v through grid.project_spectrum, band-limited:
    the modes outside the resolved block are dropped."""
    return VectorField(v.grid, ifft(v.grid, project_spectrum(v.grid, fft(v.grid, v.values))))


def count_transforms(monkeypatch) -> list[str]:
    """A list that np.fft.rfft and np.fft.irfft extend from now on by their
    name, once per component transformed.  A forward transform is counted by
    np.fft.rfft, its first pass, and an inverse by np.fft.irfft, its last;
    each call counts the components it transforms, the product of its
    leading shape, whether it takes one component or all three (3-D fields)."""
    calls = []
    for name in ("rfft", "irfft"):
        def counted(a, *args, _real=getattr(np.fft, name), _name=name, **kw):
            calls.extend([_name] * math.prod(np.shape(a)[:-3]))
            return _real(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
