"""Host speed, measured with a fixed reference kernel.

The host this benchmark runs on is shared: how fast it runs Python swings
by up to about 1.8x over tens of seconds, which no run of affordable
length averages away.  A fixed pure-Python kernel timed next to the
operations slows down with them, so every timing is rescaled by

    REF_MS / (kernel time measured alongside it)

and reads as milliseconds on a machine on which the kernel takes REF_MS.
The kernel is the benchmark's own code, not negbound's, so a change to
negbound moves the rescaled times as it moves the wall-clock ones.

The kernel mixes small-integer, tuple and dict work with compiling and
parsing text, the kinds of work the Zariski loops and a CLI job's start
do.  Exact ``Fraction`` arithmetic alone tracked the CLI jobs badly: it
slows down more than they do when the host is busy.

This module imports only the standard library.
"""

from __future__ import annotations

import json
import time

REF_MS = 1.5
REPS = 3

_SOURCE = "\n".join(
    f"def f{i}(x, y=2):\n    z = [x * k + y for k in range({i})]\n    return {{'a': z, 'b': str(x)}}\n"
    for i in range(12)
)
_DOCUMENT = json.dumps({"rows": [{"k": i, "v": [i, 2 * i, str(i)], "s": "x" * (i % 7)} for i in range(60)]})


def kernel() -> int:
    """Fixed work: fill, sort and sum a dict keyed by tuples, then compile
    a module's source and parse a JSON document."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(800):
        key = (i * 7919 % 1000, i % 13)
        counts[key] = counts.get(key, 0) + i
    total = sum(v for _, v in sorted(counts.items())[::3])
    compile(_SOURCE, "<reference>", "exec")
    return total + len(json.loads(_DOCUMENT)["rows"])


def kernel_s(reps: int = REPS) -> float:
    """The kernel's time now: the fastest of ``reps`` runs, so that an
    interrupt during one run does not count."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def rescale(seconds: float, kernel_seconds: float) -> float:
    """A time taken while the kernel took ``kernel_seconds``, at reference speed."""
    return seconds * (REF_MS / 1000) / kernel_seconds
