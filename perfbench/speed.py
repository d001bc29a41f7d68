"""Scale job times to a reference host speed.

The machines this benchmark runs on are shared, and the speed a process gets
drifts by up to 2x over seconds to minutes (measured on a shared 2-core,
8 GB virtual machine: the same 0.3 s check took 0.30 to 0.60 s within one
minute).  A run's median cannot average that out, so every job time is
also measured in reference seconds.  Three probes run right before and
after each job, and while it runs a timer interrupts it every ``PERIOD``
seconds for one more; a probe times a fixed piece of Python work (JSON,
Fractions, regexes and tuples, like polycal's own).  Each stretch of the
job between probes is scaled by ``REFERENCE_PROBE_S`` over the median of
the probes nearest to it.  Probe time is excluded from the job's time.
Raw wall times are kept next to the scaled ones in the run record.
"""

from __future__ import annotations

import json
import re
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.05
EDGE_PROBES = 3  # probes right before and right after each job
NEAREST = 5
# About the probe's median duration on the 2-core virtual machine the
# benchmark was tuned on; scaled times read as seconds there at typical speed.
REFERENCE_PROBE_S = 0.0004

_DOC = json.dumps({"terms": [{"coef": f"{i}/7", "mono": {f"x{j}": 1 for j in range(1, 5)}}
                             for i in range(1, 30)]})
_VAR = re.compile(r"^([xy])([1-9][0-9]*)$")


def probe_work() -> None:
    """A fixed mix of what polycal spends its time on: JSON, Fractions, regexes, tuples.

    Normalizing a 30 ms check by this mix cut the spread of 30 s window
    medians from 0.36 to 0.01; a plain dict-and-int loop only got to 0.03.
    """
    obj = json.loads(_DOC)
    total = Fraction(0)
    for term in obj["terms"]:
        num, _, den = term["coef"].partition("/")
        total += Fraction(int(num), int(den))
        hash(tuple(sorted((_VAR.match(name).groups(), exp) for name, exp in term["mono"].items())))
    json.dumps(obj, sort_keys=True)


class SpeedProbe:
    """Periodic probes during jobs; ``measure`` turns a call into (raw, scaled) seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (probe start, probe seconds)

    def _sample(self, *_args) -> None:
        start = perf_counter()
        probe_work()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, call):
        """Run ``call()``; returns (its result, raw seconds, reference seconds).

        The median of the NEAREST probes, not one probe, sets each stretch's
        scale, so one disturbed probe does not skew a short job.
        """
        self.samples.clear()
        for _ in range(EDGE_PROBES):
            self._sample()
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
        inside = [sample for sample in self.samples[EDGE_PROBES:] if sample[0] < end]
        for _ in range(EDGE_PROBES):
            self._sample()
        raw = scaled = 0.0
        busy_from = start
        for probe_start, probe_s in inside + [(end, 0.0)]:
            middle = (busy_from + probe_start) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))[:NEAREST]
            stretch = probe_start - busy_from
            raw += stretch
            scaled += stretch * REFERENCE_PROBE_S / statistics.median(s for _, s in nearest)
            busy_from = probe_start + probe_s
        return result, raw, scaled
