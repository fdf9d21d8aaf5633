"""Process set-up shared by the benchmark entry points.

`prepare()` must run before numpy is imported: it pins every BLAS to one
thread (the single-core design point the benchmark measures) and puts the
checkout's own `src/` first on the import path, so the benchmark always
measures the source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(RuntimeError):
    """The checkout holds no cftseg source tree to measure."""


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cftseg" / "__init__.py").is_file():
        raise SourceMissing(f"no cftseg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cftseg
    if SRC.resolve() not in Path(cftseg.__file__).resolve().parents:
        raise SourceMissing(f"imported cftseg from {cftseg.__file__}, not {SRC}")


def git_revision() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest() -> dict:
    """What the run ran on: numpy and BLAS build, threads, CPUs, revision."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
    }
