"""Host-speed calibration for the timed metrics.

This host is a few cores of a shared machine. Its neighbours change how fast
the same code runs by up to half again, in spells that last a few seconds to
minutes, and they do not slow all code alike. A run of 26 seconds cannot
average that away.

So the workload process also times fixed reference kernels. They use no
qkinopt code, so no change to the program can change their work. A kernel's
time over its time on a quiet host (``REFERENCE_S``) is its host factor:
above 1 while the host runs slow. An op's time divided by the host factor
of the samples taken while it ran, or right before and after it, reads as
seconds on a host running at reference speed, and moves only when the
program's own work changes. The samples are taken in one of two ways:

- ``Sampler`` samples ``small_calls`` during the op, from a timer signal
  every ``SAMPLE_PERIOD_S``, and reports the time it took, which the op's
  time leaves out.
- Blocks of ``l3_passes`` and ``streamed_passes`` run between ops. These
  kernels work on up to 64 MiB, so they cannot run during an op without
  changing its peak RSS and its use of the shared cache.

``REFERENCE_S`` fixes the scale of every calibrated figure. Changing it, or a
kernel, changes every timed metric, which makes old and new figures
incomparable.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List, Sequence

import numpy as np

# Seconds each kernel takes at full size on this 2-vCPU host (Intel Xeon)
# when its neighbours are quiet: about the tenth percentile of 150 samples.
REFERENCE_S = {"small_calls": 0.0115, "l3_passes": 0.0165, "streamed_passes": 0.0126}
BETWEEN_KERNELS = ("l3_passes", "streamed_passes")
SAMPLE_PERIOD_S = 0.1  # between samples during an op
SAMPLE_SIZE = 0.1      # of a full-size small_calls, for a sample during an op: about 1 ms


class Calibrator:
    """Runs the named reference kernels, each at ``size`` times its full
    work. Creating one allocates the arrays its kernels work on."""

    def __init__(self, kernels: Sequence[str], size: float = 1.0):
        unknown = set(kernels) - set(REFERENCE_S)
        if unknown or not kernels:
            raise ValueError(f"unknown or no calibration kernels: {sorted(unknown)}")
        self.kernels = tuple(kernels)
        self.size = size
        self._small = np.linspace(0.0, 1.0, 64)
        if "l3_passes" in kernels:
            n = 1 << 20
            self._amps = np.full(n, 1.0 / 1024)
            self._signs = np.where(np.arange(n) % 7 == 0, -1.0, 1.0)
        if "streamed_passes" in kernels:
            n = 1 << 22  # 32 MiB per array
            self._stream = (np.linspace(0.0, 1.0, n), np.empty(n))

    def small_calls(self) -> float:
        """numpy calls on 64-element arrays: interpreter and per-call overhead,
        the work of the optimizers, the training loop and the search loop."""
        x = self._small
        for _ in range(round(3_000 * self.size)):
            x = np.cos(x) * 0.5 + x.sum() * 1e-3
        return float(x[0])

    def l3_passes(self) -> float:
        """Sign flips and reflections about the mean of a 2^20-element vector,
        with a fresh result array each pass: a 24 MiB working set, more than
        a core's own caches hold and less than the shared last-level cache."""
        amps = self._amps
        for _ in range(round(3 * self.size)):
            amps = amps * self._signs
            amps = 2.0 * amps.mean() - amps
        return float(amps[0])

    def streamed_passes(self) -> float:
        """Passes over 32 MiB arrays: memory bandwidth."""
        a, b = self._stream
        for _ in range(round(1 * self.size)):
            np.multiply(a, 0.5, out=b)
            np.add(b, a, out=b)
        return float(b[-1])

    def sample(self) -> Dict[str, float]:
        """Seconds each kernel takes now, scaled to its full size."""
        times = {}
        for name in self.kernels:
            kernel = getattr(self, name)
            start = time.perf_counter()
            kernel()
            times[name] = (time.perf_counter() - start) / self.size
        return times


class Sampler:
    """Samples ``small_calls`` every SAMPLE_PERIOD_S while it is entered,
    from a SIGALRM handler, which runs in the main thread between bytecodes.
    ``samples`` and ``spent``, the seconds the handler took, cover the last
    time it was entered."""

    def __init__(self):
        self._calibrator = Calibrator(("small_calls",), size=SAMPLE_SIZE)
        self.samples: List[Dict[str, float]] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._calibrator.sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def host_factor(self) -> float:
        """Host factor over the samples of the last op; an op shorter than
        the sampling period is given one sample taken right after it."""
        return host_factor(self.samples or [self._calibrator.sample()])


def host_factor(samples: Sequence[Dict[str, float]]) -> float:
    """How much slower than reference speed the host ran: the mean, over the
    sampled kernels, of the kernel's mean sample over its reference time."""
    kernels = samples[0].keys()
    return float(np.mean([np.mean([s[k] for s in samples]) / REFERENCE_S[k] for k in kernels]))
