"""Process set-up shared by the benchmark's entry points.

Import this module and call :func:`prepare` before numpy is imported: BLAS
reads its thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS to one thread and put this checkout's sources first on the path.

    Exits with a non-zero code when the checkout carries no package sources,
    so the benchmark never measures some other installed copy.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    use_checkout_sources()


def use_checkout_sources() -> None:
    if not (SRC / "pdgsbr" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package sources under {SRC}; run it from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    """The environment a result was measured in."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
    }
