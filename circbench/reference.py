"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the same code runs up to twice as slowly when other
tenants load the physical cores, and that state changes over seconds to
minutes.  CPU time then equals wall time, so the process is not being
descheduled; it simply runs slower.  The runner times this kernel next to
every job and scales each job's wall time by ``REF_S / <kernel time>``.
The scaled times read as seconds at the reference speed and keep every
change in the program's own speed, because the kernel never calls
circjoin and lives in the benchmark, not in the program.

The kernel mixes what the jobs do: a Python loop and dict inserts, many
small numpy calls, a complex matrix product and an FFT, and streaming
copies larger than the L2 cache.  Each part alone tracked the jobs'
slowdown worse than the mix.
"""

import time

import numpy as np

# Median of 100 probes, rounded, on the host the benchmark was
# written on (2-vCPU Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6
# with one OpenBLAS thread).  A constant, so scaled times are comparable
# between runs and commits; its value only sets the scale.
REF_S = 0.01
REPEATS = 3

_rng = np.random.default_rng(0)
_small = _rng.random(64)
_mat = _rng.random((96, 96)) + 1j * _rng.random((96, 96))
_vec = _rng.random(1 << 14) + 0j
_big = _rng.random(1 << 19)
_out = np.empty_like(_big)


def _kernel():
    s = 0
    for i in range(40000):
        s += i * i
    d = {}
    for i in range(5000):
        d[str(i)] = i
    for _ in range(400):
        np.abs(_small * _small + 1.0).sum()
    for _ in range(3):
        _mat @ _mat
        np.fft.fft(_vec)
    for _ in range(6):
        np.copyto(_out, _big)


def probe():
    """Seconds the kernel takes now: the mean of REPEATS runs back to back,
    since the host's speed also flickers within a second."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return (time.perf_counter() - t0) / REPEATS


probe()  # warm caches and numpy's FFT plan before the first timed probe
