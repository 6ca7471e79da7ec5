"""How fast the host runs at a given moment.

The benchmark runs on shared hosts whose speed drifts by a quarter and more
within seconds, which moves every timing alike. So each timing is taken
next to reference tasks that run no spernerlib code, and is scaled by a
fixed reference time over the time of the nearby tasks: it then reads as on
a host where the task takes the reference time. There are two tasks, one
for each kind of work the benchmark times:

- a round of in-process work of the kinds the library does (big-integer
  arithmetic, dict lookups, faulting in fresh memory) that allocates no
  object the garbage collector tracks, so that its time depends on the host
  and not on what the library holds in memory; it scales in-process
  queries;
- a start: a fresh interpreter that imports numpy, the library's one
  dependency, and exits. It scales work made of starting interpreters
  (set-up, `sperner` commands), whose speed moves with process creation,
  file access and the second core (numpy's BLAS starts threads) rather
  than with in-process work.
"""

from __future__ import annotations

import math
import mmap
import subprocess
import sys
import time

ROUND_REFERENCE_S = 0.004
START_REFERENCE_S = 0.150


def _round_task() -> int:
    x = 0
    for n in range(1200, 1300, 10):
        x ^= math.comb(n, n // 2) // (n + 1)
    counts: dict[int, int] = {}
    for i in range(6000):
        key = i * 131 % 997
        counts[key] = counts.get(key, 0) + i
    # fresh pages from the kernel whatever the allocator holds, faulted in
    # one byte each
    with mmap.mmap(-1, 2 << 20) as block:
        for offset in range(0, len(block), mmap.PAGESIZE):
            block[offset] = 1
        x += block.find(b"\0")
    return x + len(counts)


def warm_up():
    """Run the round until it no longer gets faster, as it does in the
    first rounds of a process."""
    for _ in range(3):
        _round_task()


def round_s() -> float:
    """Seconds of one round of in-process work."""
    t0 = time.perf_counter()
    _round_task()
    return time.perf_counter() - t0


def start_s(env: dict, cwd: str) -> float:
    """Seconds for a fresh interpreter, started as the timed ones are, to
    import numpy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   check=True)
    return time.perf_counter() - t0


def scale(times: list[float], tasks: list[float],
          reference_s: float) -> list[float]:
    """Scale each of `times` by the reference tasks timed just before and
    just after it. `tasks` has one task time before each of `times` and one
    after the last; time i is scaled by `reference_s` over the mean of tasks
    i and i+1."""
    return [t * reference_s / ((tasks[i] + tasks[i + 1]) / 2)
            for i, t in enumerate(times)]
