"""How fast the machine ran: a fixed probe timed next to each operation.

This machine's speed drifts by up to 2x within minutes, because other
tenants share its cores, and every operation slows with it. SpeedProbe runs
`probe_work` after each operation, for a set share of the operation's own
time, and scales the operation's times by PROBE_REF_S over the mean probe
time of the bursts just before and just after it. The result is seconds at
the speed at which the probe takes PROBE_REF_S. When the operations run on
a worker pool, the probe runs on as many processes at once, so that it
meets the same contention between cores as the pool does.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

PROBE_REF_S = 0.015


def _probe_walk(depth: int, point: tuple[int, ...], moduli: tuple[int, ...]) -> tuple[int, ...]:
    if depth == 0:
        return point
    step = tuple((c * 3 + depth) % m for c, m in zip(point, moduli))
    return _probe_walk(depth - 1, step, moduli)


def probe_work() -> int:
    """A fixed piece of pure-Python work with the program's kind of mix:
    recursive calls, tuples of residues, dict counting, small sorts and
    shifts of a few-hundred-bit mask. It shares no code with zerosum."""
    moduli = (7, 11, 13)
    counts: dict[tuple[int, ...], int] = {}
    full = (1 << 256) - 1
    mask = 1
    total = 0
    for j in range(1200):
        point = _probe_walk(8, (j, j + 1, j + 2), moduli)
        counts[point] = counts.get(point, 0) + 1
        mask = ((mask << 3) & full) | (mask >> 7) | j
        total += sorted(point)[0]
    return total + len(counts) + mask.bit_count()


def timed_probe(_=None) -> float:
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


class SpeedProbe:
    """Probe bursts after operations; see the module docstring."""

    def __init__(self, share: float, workers: int):
        self.share = share
        self.workers = workers
        self.samples: list[float] = []
        self.scaled: dict[str, dict[str, list[float]]] = {"wall": {}, "cpu": {}}
        self._pending: list[tuple[str, float, float]] = []
        self._last_burst: list[float] = []
        self._debt = 0.0
        self._pool = None
        if workers > 1:
            # Fork, as the program's own pool does: a spawn context would
            # start multiprocessing's resource tracker, a process that
            # nothing waits for and that outlives the run.
            self._pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))

    def after(self, name: str, wall: float, cpu: float) -> None:
        self._pending.append((name, wall, cpu))
        self._debt += self.share * wall
        if self._debt > 0:
            self.burst()

    def burst(self) -> None:
        """Probe until the debt is paid (at least once); scale pending times."""
        start = len(self.samples)
        while self._debt > 0 or len(self.samples) == start:
            t0 = time.perf_counter()
            if self._pool is None:
                self.samples.append(timed_probe())
            else:
                self.samples.extend(self._pool.map(timed_probe, range(self.workers)))
            self._debt -= time.perf_counter() - t0
        burst = self.samples[start:]
        factor = PROBE_REF_S / statistics.fmean(self._last_burst + burst)
        self._last_burst = burst
        for name, wall, cpu in self._pending:
            self.scaled["wall"].setdefault(name, []).append(wall * factor)
            self.scaled["cpu"].setdefault(name, []).append(cpu * factor)
        self._pending.clear()

    def flush(self) -> None:
        """Scale the operations that no burst has followed yet."""
        if self._pending:
            self.burst()

    def total(self, kind: str) -> float:
        """Sum over operations of the median of their scaled times."""
        return sum(statistics.median(v) for v in self.scaled[kind].values())

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
