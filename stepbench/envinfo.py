"""The environment record written with every result.

It lets a reader spot a run that shared the machine: CPU count, the BLAS
library and its thread count, interpreter and library versions, the commit,
and the load average (taken at the start and the end of the run by run.py).
"""

import ctypes
import glob
import os
import platform
import subprocess


def _openblas_threads(module, symbol):
    """Thread count of the OpenBLAS bundled with a package (numpy.libs, scipy.libs)."""
    package_dir = os.path.dirname(module.__file__)
    for path in sorted(glob.glob(package_dir + ".libs/*openblas*")):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _blas(module, symbol):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        name = version = None
    return {"name": name, "version": version, "threads": _openblas_threads(module, symbol)}


def git_commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    # GIT_DIR keeps git from searching the directories above the checkout.
    env = dict(os.environ, GIT_DIR=".git", GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_numpy": _blas(numpy, "scipy_openblas_get_num_threads64_"),
        "blas_scipy": _blas(scipy, "scipy_openblas_get_num_threads"),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }
