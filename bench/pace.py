"""The machine's pace: a fixed reference computation, timed in the same
process all through a measured run.

On a shared virtual machine the same code runs up to a quarter faster or
slower from one stretch of minutes to the next, and every kind of work
moves with it: interpreter loops, exact rationals, small and large numpy
calls, FFTs and dense linear algebra alike. The reference does about a
millisecond of each and uses nothing from wienerlab, so a change to the
library cannot move it. Latencies divided by the reference time of the
same run lose most of the machine's drift and keep every change of the
library's own speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_RNG = np.random.default_rng(20171111)
_FFT_IN = _RNG.standard_normal(1 << 14) + 1j * _RNG.standard_normal(1 << 14)
_LSQ_A = _RNG.standard_normal((64, 64))
_STREAM = np.ones(1 << 19)
_STREAM_OUT = np.empty_like(_STREAM)
_SMALL = _RNG.standard_normal(16)


def _interpreter():
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


def _rationals():
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i)
    return s


def _small_arrays():
    x = _SMALL
    for _ in range(150):
        x = np.abs(np.convolve(x[:8], _SMALL[:4])[:16]) * 0.5 + 0.1
    return x


def _fft():
    return np.fft.ifft(np.fft.fft(_FFT_IN))


def _lstsq():
    return np.linalg.lstsq(_LSQ_A, _LSQ_A[:, 0], rcond=None)


def _stream():
    np.multiply(_STREAM, 2.0, out=_STREAM_OUT)
    return _STREAM_OUT.sum()


PARTS = (_interpreter, _rationals, _small_arrays, _fft, _lstsq, _stream)


def sample():
    """Seconds taken by one reference computation."""
    t0 = time.perf_counter()
    for fn in PARTS:
        fn()
    return time.perf_counter() - t0
