"""A heap the training loop does not hand back to the kernel every step.

Every training step allocates and frees the same temporaries (activations,
gradients, the optimizer's scratch), some of them hundreds of kilobytes.
glibc's malloc maps a block that large on its own, or, once its dynamic
threshold has grown, carves it from the top of the heap and trims the
heap top back to the kernel when it is freed.  Either way the next step
faults the same pages in again, and how often that happens follows the
heap's layout, not the work.  On a 2-core x86-64 Linux host the first
PREDICT of a fresh process took ~290k minor faults and 1.25 s for 80
steps on 2,048 rows, and 0.77 s with under 10k faults once blocks up to
32 MiB come from the heap and up to 128 MiB of free heap top is kept;
the ``predict_serve`` benchmark's set-up, which trains the same model
each time, read between 1.2k and 77k minor faults per set-up before, and
under 2k after.
"""

from __future__ import annotations

import ctypes

# mallopt(3) parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 << 20     # a block this large or larger is mapped alone
TRIM_THRESHOLD = 128 << 20    # free heap top kept before any is returned


def keep_freed_heap() -> bool:
    """Fix glibc malloc's mapping and trimming thresholds for this process
    at :data:`MMAP_THRESHOLD` / :data:`TRIM_THRESHOLD`; ``True`` if both
    were set.  Off glibc (no ``mallopt``, or one that ignores them)
    nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
