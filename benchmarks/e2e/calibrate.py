"""A fixed reference loop, timed next to everything the benchmark times.

This box is a few cores of a shared host. When the neighbours are busy the
same pass at the same seed costs up to 1.8x the CPU time it costs when they
are idle (and up to 3x the wall time, the rest being steal), for minutes on
end, so neither a median nor a minimum over a 15-second run repeats. What
does repeat is the *ratio* of the pass to a fixed piece of work done in the
same process just before and after it: both slow down together. The
end-to-end times are therefore reported as

    calibrated seconds = CPU seconds x REFERENCE_S / (CPU seconds of the loop)

i.e. in seconds of a quiet host, on which the loop takes ``REFERENCE_S``.
The loop belongs to the benchmark, calls nothing of the program and never
changes with it, so a parent and a change are scaled by the same yardstick.
"""

from __future__ import annotations

from time import process_time
from typing import List, Sequence

import numpy as np

__all__ = ["REFERENCE_S", "reference_slice", "calibrated"]

#: About the CPU seconds one :func:`reference_slice` takes here when nothing
#: else runs on the host (run this file to see what it takes now). Only a
#: scale: changing it moves every calibrated time by the same factor.
REFERENCE_S = 0.15

_ROUNDS = 2
_LOOP_ITERATIONS = 360_000
_ARRAY_CALLS = 1_500
_rng = np.random.default_rng(0)
_VALUES = _rng.random(5_050)  # one number per link of the 101-site complete graph
_INDEX = _rng.integers(0, 5_050, size=5_050)
_LABELS = _rng.integers(0, 101, size=5_050)
_SCRATCH = np.empty(5_050)


def reference_slice() -> float:
    """CPU seconds of one run of the reference loop.

    Half interpreter-bound (integer arithmetic, a dict that stays in cache,
    a list that grows), half many small numpy calls over a few thousand
    elements: the two kinds of work the program's layers are made of. Two
    rounds, so that the list's few megabytes stay small beside the
    program's ``peak_rss_mb``.
    """
    start = process_time()
    for _ in range(_ROUNDS):
        total = 0
        table = {}
        stack = []
        for i in range(_LOOP_ITERATIONS):
            total += i * i
            table[i & 1023] = total
            stack.append(i)
            if i & 7 == 0:
                stack.pop()
        for _ in range(_ARRAY_CALLS):
            np.take(_VALUES, _INDEX, out=_SCRATCH)
            np.bincount(_LABELS, weights=_SCRATCH, minlength=101)
            np.cumsum(_SCRATCH, out=_SCRATCH)
            np.greater(_SCRATCH, 0.5)
    return process_time() - start


def calibrated(cpu_s: Sequence[float], slices: Sequence[float]) -> List[float]:
    """Each CPU time scaled by the mean of the two reference slices around it.

    ``slices`` has one entry more than ``cpu_s``: slice ``i`` ran just
    before measurement ``i`` and slice ``i + 1`` just after it.
    """
    assert len(slices) == len(cpu_s) + 1
    return [cpu * REFERENCE_S / ((slices[i] + slices[i + 1]) / 2.0)
            for i, cpu in enumerate(cpu_s)]


if __name__ == "__main__":
    from statistics import quantiles

    print("quartiles of 300 slices:", quantiles(
        [reference_slice() for _ in range(300)], n=4))
