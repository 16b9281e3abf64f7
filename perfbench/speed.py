"""A speed probe that turns wall seconds into reference-host seconds.

A vCPU of a shared host changes speed by up to 1.8x from one second to the
next, as the work of other tenants on the same physical core comes and
goes.  Timed whole, the same pass then reads anywhere in that range.  The
probe samples the speed while the pass runs: every INTERVAL_S of wall time
a timer signal interrupts the pass, and the handler times one fixed
reference kernel.  The kernel uses only the standard library, so no change
to fibcat can move it, and it mixes the kinds of work fibcat does: walking
a tree of frozen dataclasses, Fraction and big-integer arithmetic, and
Decimal arithmetic.

The handler's own time is taken out of the pass's clock (`clock()`), and a
span of that clock is converted to reference seconds by integrating
REF_KERNEL_S / (kernel time) over it (`reference_seconds`), using the median
of the PROBE_WINDOW samples around each moment.  On a host whose speed does
not change, reference seconds are wall seconds times a constant.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

INTERVAL_S = 0.01
PROBE_WINDOW = 5
# Kernel seconds on the reference host: about what `kernel()` takes on one
# vCPU of a 2.1 GHz Xeon VM whose physical core is shared.
REF_KERNEL_S = 0.0011


@dataclass(frozen=True)
class _Lit:
    value: int


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


def _tree(depth: int):
    if depth == 0:
        return _Var("n")
    return _Bin("+*"[depth % 2], _tree(depth - 1), _Bin("-", _Lit(depth), _Var("n")))


def _eval(e, env):
    if isinstance(e, _Lit):
        return Fraction(e.value)
    if isinstance(e, _Var):
        return env[e.name]
    a, b = _eval(e.left, env), _eval(e.right, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    return a * b


_TREE = _tree(6)


def kernel() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    total = Fraction(0)
    for n in range(1, 16):
        total += 1 / (_eval(_TREE, {"n": Fraction(n, 7)}) ** 2 + 1)
    fib = [0, 1]
    for _ in range(100):
        fib.append(fib[-1] + fib[-2])
    with localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(0)
        term = Decimal(1)
        for k in range(1, 100):
            term = term * Decimal(k % 7 + 1) / Decimal(k + 3)
            s += term.sqrt() if k % 5 == 0 else term
    return hash((total, fib[-1] % 1000003, str(s)[:40]))


class SpeedProbe:
    """Samples the host's speed from a timer signal while code runs.

    `samples` holds (clock time, kernel seconds) pairs in clock order.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.paused = 0.0  # wall seconds spent in the handler
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def clock(self) -> float:
        """Wall seconds, less the time the probe itself took."""
        return time.perf_counter() - self.paused

    def _handler(self, signum, frame):
        entered = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            kernel()
            took = time.perf_counter() - started
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append((entered - self.paused, took))
        self.paused += time.perf_counter() - entered

    def start(self) -> None:
        # a first sample now, so that even a span shorter than the
        # interval has one to convert it by
        self._handler(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


def scale_points(samples) -> tuple[list, list]:
    """(times, scales): from times[i] on, one clock second is scales[i]
    reference seconds; scales[i] uses the median kernel time of the
    PROBE_WINDOW samples centred on sample i."""
    times = [t for t, _ in samples]
    took = [d for _, d in samples]
    half = PROBE_WINDOW // 2
    scales = []
    for i in range(len(took)):
        lo, hi = max(0, i - half), min(len(took), i + half + 1)
        scales.append(REF_KERNEL_S / statistics.median(took[lo:hi]))
    return times, scales


def reference_seconds(points, start: float, end: float) -> float:
    """Reference seconds in the clock span [start, end].

    Before the first sample the first sample's scale holds; with no
    samples at all, the span cannot be converted.
    """
    times, scales = points
    if not times:
        raise ValueError("no speed samples")
    if end <= start:
        return 0.0
    i = max(0, bisect.bisect_right(times, start) - 1)
    total = 0.0
    at = start
    while at < end:
        upto = min(times[i + 1], end) if i + 1 < len(times) else end
        total += (upto - at) * scales[i]
        at = upto
        i += 1
    return total
