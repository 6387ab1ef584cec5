"""Host-speed reference: a fixed kernel timed five times a second while an
operation runs.

On a shared host the same code runs faster or slower by 20% or more for
seconds to tens of seconds at a time, as neighbours come and go, and
process CPU time moves with it. A run cannot average that out, but it can
measure it. While a ``Meter`` is open, a timer (SIGALRM) interrupts the
program every ``PERIOD_S`` seconds and the handler times one call of a
reference kernel that never changes, chosen to resemble the workload's
work:

- ``python``: interpreted Python (dicts, string methods, a regular
  expression, a filtering list comprehension), like the text layers;
- ``blas``: matrix products at the shapes of the pretraining MLM head;
- ``mixed``: the ``python`` kernel, then small-array NumPy (attention,
  softmax, GELU, layer norm) at fine-tuning batch shapes, like
  fine-tuning, which encodes text in Python between small model calls.

The kernel's CPU time over its time on the reference machine
(``NOMINAL_S``) is the host's slowness at that moment. A span between two
``stamp()`` readings leaves out the kernel calls inside it, and its CPU
time divided by the median slowness around it is its time at reference
speed. Work like the kernel's slows with it, while a change to farsilm
leaves the kernel alone, so it moves the scaled time as much as the
measured one. A ``Meter`` built with ``probe=False`` sets no timer and
scales nothing.
"""

from __future__ import annotations

import bisect
import gc
import re
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

# median CPU seconds of one kernel call on the reference machine, a 2-vCPU
# x86_64 Intel Xeon guest with one BLAS thread
NOMINAL_S = {"python": 0.0065, "blas": 0.0090, "mixed": 0.0128}
# wall seconds between kernel calls; a CPU-time timer (ITIMER_PROF) would
# coarsen the process CPU clock to scheduler ticks while it is armed
PERIOD_S = 0.2
REACH_S = 0.5  # how far around a span its slowness is taken from
MIN_MARKS = 3

# the python kernel's data is as large as a prep corpus's sentence list,
# so it feels the host's cache pressure as the text layers do
_WORDS = [f"w{(i * 7919) % 5003}x{(i * 31) % 17}" for i in range(12000)]
_TEXT = " ".join(_WORDS)
_OWNER = [i % 37 for i in range(len(_WORDS))]
_PATTERN = re.compile(r"x1[0-6]\b")
_rng = np.random.default_rng(20050512)
_X = _rng.standard_normal((4, 24, 64))
_W = _rng.standard_normal((64, 64)) * 0.1
_W_FFN = _rng.standard_normal((64, 256)) * 0.1
_EMB = _rng.standard_normal((1000, 64)) * 0.1
_HIDDEN = _rng.standard_normal((1024, 64))
_GRAD = _rng.standard_normal((1024, 1000))


def python_kernel() -> int:
    counts: dict[str, int] = {}
    for word in _TEXT.split():
        counts[word] = counts.get(word, 0) + 1
    best = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
    cleaned = _PATTERN.sub("", _TEXT.replace("w1", "W1"))
    pool = [j for j in range(len(_WORDS)) if _OWNER[j] != 3 and _WORDS[j] != best[0]]
    return len(cleaned) + len(pool)


def mixed_kernel() -> float:
    return python_kernel() + numpy_kernel()


def blas_kernel() -> float:
    logits = _HIDDEN @ _EMB.T
    return float((_GRAD.T @ _HIDDEN).sum() + logits[0, 0])


def _norm(x):
    mu = x.mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(((x - mu) ** 2).mean(-1, keepdims=True) + 1e-12)


def numpy_kernel() -> float:
    x = _X
    for _ in range(2):
        q, k = x @ _W, x @ _W.T
        scores = q @ k.transpose(0, 2, 1) / 8.0
        scores = np.exp(scores - scores.max(-1, keepdims=True))
        x = _norm(x + (scores / scores.sum(-1, keepdims=True)) @ x)
        h = x @ _W_FFN
        h = 0.5 * h * (1.0 + np.tanh(0.7978845608 * (h + 0.044715 * h**3)))
        x = _norm(x + h @ _W_FFN.T)
    logits = x.reshape(-1, 64) @ _EMB.T
    return float(np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1)).sum())


KERNELS = {"python": python_kernel, "blas": blas_kernel, "mixed": mixed_kernel}


Stamp = tuple[float, float]  # (wall, CPU) seconds


def stamp() -> Stamp:
    return perf_counter(), process_time()


@dataclass(frozen=True)
class Mark:
    """One kernel call: when it ran and how slow the host was."""

    wall0: float
    cpu0: float
    wall1: float
    cpu1: float
    slowness: float  # 1.0 is reference speed


@dataclass(frozen=True)
class Span:
    """Time between two stamps, kernel calls left out."""

    scaled: float  # CPU seconds at reference speed
    cpu: float
    wall: float


class Meter:
    def __init__(self, kind: str, probe: bool = True):
        self.kind = kind
        self.probe = probe
        self.marks: list[Mark] = []
        self._starts: list[float] = []  # cpu0 of each mark, for bisect
        self._previous = None
        self._busy = False

    def __enter__(self) -> "Meter":
        if self.probe:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, _signum, _frame) -> None:
        if self._busy:  # the host is so slow the timer fired again mid-call
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's heap, not the host
        try:
            wall0, cpu0 = stamp()
            KERNELS[self.kind]()
            wall1, cpu1 = stamp()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.marks.append(Mark(wall0, cpu0, wall1, cpu1, (cpu1 - cpu0) / NOMINAL_S[self.kind]))
        self._starts.append(cpu0)

    def slowness(self, lo: float, hi: float) -> float:
        """Median slowness of the kernel calls from REACH_S before CPU time
        ``lo`` to REACH_S after ``hi``, or of the nearest MIN_MARKS."""
        if not self.marks:
            return 1.0
        first = bisect.bisect_left(self._starts, lo - REACH_S)
        last = bisect.bisect_right(self._starts, hi + REACH_S)
        while last - first < min(MIN_MARKS, len(self.marks)):
            before = first > 0 and (last == len(self.marks) or lo - self._starts[first - 1] <= self._starts[last] - hi)
            if before:
                first -= 1
            else:
                last += 1
        return statistics.median(m.slowness for m in self.marks[first:last])

    def span(self, start: Stamp, end: Stamp) -> Span:
        """The time from ``start`` to ``end`` without the kernel calls in it."""
        first = bisect.bisect_left(self._starts, start[1])
        last = bisect.bisect_left(self._starts, end[1])
        inside = self.marks[first:last]
        cpu = end[1] - start[1] - sum(m.cpu1 - m.cpu0 for m in inside)
        wall = end[0] - start[0] - sum(m.wall1 - m.wall0 for m in inside)
        return Span(cpu / self.slowness(start[1], end[1]), cpu, wall)

    def median_slowness(self) -> float:
        return statistics.median(m.slowness for m in self.marks) if self.marks else 1.0
