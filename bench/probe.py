"""A probe of how fast the machine runs Python, sampled while the CLI runs.

On a shared virtual machine a core runs slower or faster by up to half, in
spells from under a second to minutes, as other tenants load the host; the
CPU time of a CLI process follows.  The probe runs a fixed pure-Python task
(``task``) every ``PERIOD_S`` on a thread of the benchmark, on the same core
as the CLI processes (the caller pins both), so its samples see the same
spells as the process they interleave with.  A process's CPU seconds times
``REF_S / task_s(start, end)`` are seconds on a core that runs the task in
``REF_S``.

The task does not use lexgram: a change to the program moves the CPU time
of its processes, never the probe.
"""

from __future__ import annotations

import bisect
import random
import statistics
import threading
import time

PERIOD_S = 0.02  # pause between two samples
REF_S = 0.0005  # task time the reported seconds are scaled to
MIN_SAMPLES = 25  # a window with fewer samples is widened to its nearest ones

_RNG = random.Random(20111115)
_WORDS = ["".join(_RNG.choice("abcdefghijklmnopqrstuvwxyzéè") for _ in range(_RNG.randint(2, 12)))
          for _ in range(600)]


def task() -> float:
    """Thread CPU seconds of a fixed task of the kind lexgram does: a dict
    keyed by strings, formatting, joining, splitting, sorting."""
    start = time.thread_time()
    index: dict[str, list[str]] = {}
    for i, word in enumerate(_WORDS):
        index.setdefault(word[:2], []).append(f"{word}\t{word.upper()}\t{i}")
    sorted("\n".join("|".join(lines) for lines in index.values()).split("\n"))
    return time.thread_time() - start


class Probe:
    """Samples ``task`` on a background thread while in a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time.perf_counter() at start, task s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            self.samples.append((start, task()))
            self._stop.wait(PERIOD_S)

    def task_s(self, start: float, end: float) -> float:
        """Mean task time of the samples taken between ``start`` and ``end``
        (``time.perf_counter`` values), widened to the nearest samples when
        fewer than ``MIN_SAMPLES`` fall inside."""
        samples = list(self.samples)
        times = [at for at, _ in samples]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(samples)):
            lo, hi = max(0, lo - 1), min(len(samples), hi + 1)
        return statistics.mean(duration for _, duration in samples[lo:hi])
