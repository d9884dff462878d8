"""Cross-modality metric learning on synthetic paired-modality data.

Trains small two-stem encoders so that embeddings of the same identity,
seen through two different sensor modalities and through paired synthetic
text features, land close together. All objective gradients are derived
by hand and verified with central differences; nothing here depends on an
autodiff framework.
"""

import ctypes
import os

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_heap_policy() -> bool:
    """Fix glibc's heap thresholds; False where the C library is not glibc.

    By default glibc raises both thresholds as the process frees large
    blocks, so the heap's behaviour depends on what was allocated before.
    In a process that had freed no large block, one 1200-step `run_training`
    took 164K minor page faults and 0.27 s of system time, because the
    heap's freed top was trimmed and faulted back in every step; with these
    settings it took about 360 faults. Blocks of 4 MiB and up are mmapped
    and returned to the system when freed; the heap keeps up to 32 MiB of
    free top before trimming.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):   # no confstr name, no mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success
    return all([mallopt(_M_TRIM_THRESHOLD, 32 << 20) == 1,
                mallopt(_M_MMAP_THRESHOLD, 4 << 20) == 1])


# whether the heap policy above is in force in this process
HEAP_POLICY = _set_heap_policy()
