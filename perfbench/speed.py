"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the same Python code can take a third longer for minutes at
a time (measured in a 2-vCPU sandbox: a fixed loop took 33-38 ms in its fast
state and 45-57 ms in its slow one). `probe()` times a small task written
here, apart from plantprop, whose work resembles the pure engine's: 64-bit
integer mixing, float objectives, tuple building and sorting.

The benchmark probes in the process that runs plantprop, right before each
run, and scales the run's latency to the speed at which the probe takes
`NOMINAL_S`. A change in plantprop then moves the figure, and a change in the
host's speed much less. Probes taken only around a whole sweep, seconds
apart, tracked the host too loosely to help.
"""

from __future__ import annotations

import statistics
import time

import oracle

# the probe's duration that the scaled timings refer to
NOMINAL_S = 0.004
REPEATS = 7

_MASK = (1 << 64) - 1


def _task(steps: int = 1000) -> None:
    state = oracle.splitmix64_outputs(12345, 4)
    pool = []
    for k in range(steps):
        s0, s1, s2, s3 = state
        word = oracle.mix64((s0 + s3) & _MASK)
        state = (s1, s2 ^ s0, s3 ^ word, (s0 << 17 | s0 >> 47) & _MASK)
        u = (word >> 11) * 2.0 ** -53
        x = (u * 10.24 - 5.12, (1.0 - u) * 10.24 - 5.12)
        pool.append((oracle.evaluate("rastrigin", x)[0], k, x))
        if len(pool) > 150:
            pool.sort()
            del pool[30:]


def probe(repeats: int = REPEATS) -> float:
    """Median seconds of the reference task over a few repeats."""
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        t0 = clock()
        _task()
        times.append(clock() - t0)
    return statistics.median(times)


class RunProbe:
    """Probes before every `plantprop.engine.run` call in this process.

    Sums the runs' raw and scaled seconds and the probes' own cost, so that a
    caller timing a whole CLI call can take the probes out and apply the
    runs' speed factor to the rest.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.runs = 0
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.cost_s = 0.0

    def install(self) -> None:
        import plantprop
        from plantprop import engine

        original = engine.run
        clock = time.perf_counter

        def run(*args, **kwargs):
            t0 = clock()
            speed = probe(repeats=1)
            t1 = clock()
            result = original(*args, **kwargs)
            t2 = clock()
            self.runs += 1
            self.cost_s += t1 - t0
            self.raw_s += t2 - t1
            self.scaled_s += (t2 - t1) * NOMINAL_S / speed
            return result

        engine.run = run
        if plantprop.run is original:
            plantprop.run = run

    def doc(self) -> dict:
        return {"runs": self.runs, "raw_s": self.raw_s,
                "scaled_s": self.scaled_s, "cost_s": self.cost_s}
