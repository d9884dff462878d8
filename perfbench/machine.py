"""Record of the machine and software a run measured on.

Runs are only comparable on the same machine record: the CPU model, its
last-level cache (the eval_large workload is sized against it), the thread
pinning and the BLAS build all move the numbers.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_bytes() -> int | None:
    """Size of the largest level-3 cache listed for cpu0, in bytes."""
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    try:
        for index in sorted(cache.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError):
        pass
    return None


def _blas() -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def machine_record() -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
