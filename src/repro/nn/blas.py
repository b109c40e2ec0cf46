"""One BLAS thread for the process.

Every matrix product here is small — the largest GEMM of an ARMNet step is
(512, 128) x (128, 64), a few MFLOP — so OpenBLAS's worker threads buy no
wall time.  They cost a core (they spin between calls: training burned 2.0
CPU-seconds per wall second), on a host with busy neighbours a descheduled
worker stalls every product (training took twice as long and swung twice as
far from run to run), and because OpenBLAS splits a product by thread count
the last bits of a loss or a prediction depended on how many cores the host
had.  The engine's own parallelism (morsel workers) is modeled in virtual
time and starts no thread either: the process runs on one.
"""

from __future__ import annotations

import ctypes

# plain OpenBLAS, numpy < 2 wheels, numpy >= 2 wheels
_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads64_")


def pin_single_thread() -> bool:
    """Set every OpenBLAS mapped into this process to one thread; ``True``
    if one was found.  Reads ``/proc/self/maps``: off Linux, or with
    another BLAS, nothing changes."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        libraries = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return False
    setters = [getattr(library, name) for library in libraries
               for name in _SETTERS if hasattr(library, name)]
    for setter in setters:
        setter(1)
    return bool(setters)
