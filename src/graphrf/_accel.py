"""JIT acceleration shim.

The hot streaming kernels in :mod:`graphrf._kernels` are compiled with numba
when it is installed.  Set ``GRAPHRF_NUMBA=0`` in the environment to force the
pure-numpy fallback path (same code, interpreted).
"""

import os


def _identity_jit(*args, **kwargs):
    if len(args) == 1 and callable(args[0]) and not kwargs:
        return args[0]

    def deco(fn):
        return fn

    return deco


_flag = os.environ.get("GRAPHRF_NUMBA", "1").strip().lower()
NUMBA_REQUESTED = _flag not in ("0", "false", "no", "off")
NUMBA_ENABLED = False

if NUMBA_REQUESTED:
    try:
        from numba import njit as _numba_njit

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False

if NUMBA_ENABLED:
    njit = _numba_njit
else:
    njit = _identity_jit
