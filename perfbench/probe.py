"""Fixed slices of work that measure the host's current speed.

Shared machines drift: the same code can run 20-30% slower for seconds or
minutes at a time.  Workers run a probe between requests and report times
in reference seconds, raw seconds * REF[kind] / (mean probe seconds), so the
drift cancels while a change in the program's own speed still shows.  The
probes never call the library.  Each measurement uses the kind whose work is
most like its own:

  python  dict, int and call work, like the object-level layers
  numpy   the python probe plus int64 array arithmetic, like the sweep
          kernel (which drifts with memory traffic, not with the
          interpreter)
  child   `python3 perfbench/probe.py`, a fresh interpreter that imports
          numpy, timed from the parent: start-up and imports are most of a
          CLI call and all of set-up, and they drift with file-system and
          kernel work, which an in-process loop does not see

    python3 perfbench/probe.py      # the child probe's own work
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

# Median probe durations on the reference host (2-core Intel Xeon, Python
# 3.11.7, numpy 2.4.6); fixed so that reference seconds stay comparable.
REF = {"python": 0.0042, "numpy": 0.0080, "child": 0.20}

_arrays: list = []


def python_work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        table[i & 255] = acc
        acc += (i * i) % 7 + len(table)
    return acc


def numpy_work():
    if not _arrays:   # imported here so a worker's set-up never loads numpy early
        import numpy as np
        a = np.arange(177147, dtype=np.int64)
        _arrays.extend((a, a[::-1].copy()))
    a, b = _arrays
    c = (a * b) % 3
    d = (c + a) % 3
    return (d == 0) & (c != 0)


WORK = {"python": (python_work,), "numpy": (python_work, numpy_work)}


def probe(kind: str = "python") -> float:
    """Run the in-process probe of this kind once; return its seconds."""
    t0 = time.perf_counter()
    for work in WORK[kind]:
        work()
    return time.perf_counter() - t0


def child_probe() -> float:
    """Start the child probe, wait for it; return its wall seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve())],
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


if __name__ == "__main__":
    import numpy  # noqa: F401
