"""Machine-speed calibration for timings on a shared virtual machine.

The host of the 2-vCPU reference machine slows every instruction of the VM
by up to 2x for tens of seconds at a time, with no steal time to show for
it.  Measured there over 100 s, 5-second medians of one ``check`` call
spread by 47% (interquartile distance over median) and those of the kernel
below by 44%, while their ratio spread by 4.7%.  So the workload process
times the kernel every ``SAMPLE_EVERY_S`` seconds from a SIGALRM handler,
also in the middle of long CLI calls, and the benchmark reports each call
at the reference speed: its wall time, less the handler's time, times
``NOMINAL_S`` over the mean kernel time during and around the call.  The
kernel mixes what switchctrl spends its time on: small dense LAPACK calls
and interpreted Python.  Raw times stay in the run record.
"""

import bisect
import signal
import time

import numpy as np

#: Kernel time on the reference machine (Xeon VM, 2.0 GHz, 2 vCPUs) at its
#: undisturbed speed; about the fastest tenth of its samples there.
NOMINAL_S = 0.0025

#: Period of the kernel samples.
SAMPLE_EVERY_S = 0.2

_M = np.eye(6) + np.arange(36.0).reshape(6, 6) / 36.0


def kernel_seconds() -> float:
    """Time one run of the fixed calibration kernel."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(200):
        acc += float(np.linalg.svd(_M + i * 1e-3, compute_uv=False)[0])
        acc += sum(j * 0.5 for j in range(20))
    return time.perf_counter() - t0


class SpeedLog:
    """Kernel samples on the ``time.perf_counter`` axis, taken by a timer."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.kernel_s.append(kernel_seconds())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        """Start sampling; returns after the first sample."""
        signal.signal(signal.SIGALRM, self._sample)
        self.resume()

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self) -> None:
        """Take a sample now, then one every ``SAMPLE_EVERY_S``."""
        n = len(self.ends)
        signal.setitimer(signal.ITIMER_REAL, 1e-3, SAMPLE_EVERY_S)
        while len(self.ends) == n:
            time.sleep(1e-3)

    def wait_for_sample(self) -> None:
        """Sleep until the timer has taken one more sample."""
        n = len(self.ends)
        while len(self.ends) == n:
            time.sleep(0.01)

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, t0: float, t1: float) -> range:
        return range(bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1))

    def busy(self, t0: float, t1: float) -> float:
        """Time the sampler itself took inside [t0, t1]."""
        return sum(self.ends[i] - self.starts[i] for i in self._inside(t0, t1))

    def factor(self, t0: float, t1: float) -> float:
        """Reference speed over the machine's speed in [t0, t1], from the
        samples inside it, the last one before and the first one after."""
        inside = self._inside(t0, t1)
        before, after = inside.start - 1, inside.stop
        if before < 0 or after >= len(self.starts):
            raise ValueError("the interval needs a kernel sample on each side")
        used = self.kernel_s[before:after + 1]
        return NOMINAL_S * len(used) / sum(used)
