"""Print the OpenBLAS kernel that numpy's bundled library picked on this CPU.

    python3 tools/blas_core.py

Float32 training sums in a kernel-specific order, so model and report bytes
differ between kernels (SkylakeX and Haswell, say). Digest lists or sweep
rows made under two kernels are not comparable; this name tells them apart.
``OPENBLAS_CORETYPE`` in the environment forces another kernel. Prints
"unknown" when numpy carries no scipy-openblas library with the core-name
call.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def core_name() -> str:
    """The kernel name, read in-process from the library numpy has loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (AttributeError, OSError):  # no such symbol, or not loadable
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii", "replace")
    return "unknown"


if __name__ == "__main__":
    print(core_name())
