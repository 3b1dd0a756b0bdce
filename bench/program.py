"""Locate and import the program under test from the checkout's own sources.

The benchmark runs from the root of a source checkout in which stresstune is
not installed, so it imports ``src/stresstune`` directly. Importing this
module pins the BLAS thread count before numpy loads; every other benchmark
module imports it first.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

# One BLAS thread: the sweep itself is serial (``workers=1``), so the whole
# benchmark occupies one core and both sides of a comparison run alike on a
# small shared machine. It never exceeds ``nproc``.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(Exception):
    """The checkout holds no stresstune sources to benchmark."""


def import_stresstune():
    """Import ``stresstune`` from ``<checkout>/src`` and nowhere else."""
    init = SRC / "stresstune" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no program sources at {init}")
    sys.path.insert(0, str(SRC))
    import stresstune

    if Path(stresstune.__file__).resolve() != init.resolve():
        raise MissingProgram(f"stresstune was imported from {stresstune.__file__}, not {init}")
    return stresstune


def process_age_s() -> float:
    """Seconds since this process started (Linux ``/proc``, 10 ms start resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5), counted after the command name
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
