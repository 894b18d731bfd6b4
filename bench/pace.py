"""Pace of the processor during one run, sampled from inside the run.

On a host shared with other tenants the speed of a vCPU changes by up to
1.8x within seconds, as other tenants come and go on the same cores, and
the same ``analyze-hub600`` run takes anywhere from 6.4 to 13.7 s.  A
:class:`Pace` thread in the child times a fixed reference loop every
``INTERVAL_S`` (CPU time of the sampling thread, so waiting for the GIL
does not count) while ``main`` runs.  The run's wall time scaled by
``REFERENCE_S / mean loop time`` is its time at the reference pace; on
the reference host that removes most of the host's slow and fast spells
(correlation 0.96 between raw wall time and loop time over 25 runs).

The loop is stdlib only and never touches ``mscoupling``, so a change to
the program cannot change the yardstick.  One loop of about 0.35 ms every
30 ms takes about 1% of the run's CPU time.
"""

from __future__ import annotations

import statistics
import threading
import time

# Mean loop time that counts as the reference pace: about the median on the
# reference host (2-vCPU shared VM, Python 3.11), so paced and raw seconds
# are of the same size there.
REFERENCE_S = 350e-6
INTERVAL_S = 0.03


def _reference_loop() -> int:
    table: dict = {}
    for index in range(400):
        key = (index % 97, str(index % 13))
        table[key] = table.get(key, 0) + 1
    return len(sorted(table.items()))


def _sample() -> float:
    start = time.thread_time()
    _reference_loop()
    return time.thread_time() - start


class Pace:
    """Context manager: samples the reference loop until it exits."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pace", daemon=True)

    def __enter__(self) -> "Pace":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a run shorter than one interval
            self.samples.append(_sample())

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(_sample())

    def loop_s(self) -> float:
        """Mean CPU time of one reference loop during the run."""
        return statistics.fmean(self.samples)
