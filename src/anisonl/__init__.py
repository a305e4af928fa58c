"""Anisotropic nonlocal operators, barriers, covers and Harnack experiments.

Importing the package loads no submodule and no numpy; import the
submodules (``anisonl.profile``, ``anisonl.operators``, ...) directly.
"""

import os

# One BLAS thread for the CLI and library callers alike, pinned before any
# submodule loads numpy.  No computation uses BLAS parallelism, and OpenBLAS
# splits large dot products (CG's r @ r above about 10,000 unknowns) across
# its threads, which makes the results depend on the host's thread count.
# Set unconditionally: honouring a user's value would do the same.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"


class PreconditionError(ValueError):
    """The data fail a hypothesis of the estimate being measured: the run
    is invalid, not failed.  Every library exception derives from it."""
