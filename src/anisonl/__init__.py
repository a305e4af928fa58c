"""Anisotropic nonlocal operators, barriers, covers and Harnack experiments.

Importing the package loads no submodule and no numpy; import the
submodules (``anisonl.profile``, ``anisonl.operators``, ...) directly.
"""

__version__ = "0.1.0"


class PreconditionError(ValueError):
    """The data fail a hypothesis of the estimate being measured: the run
    is invalid, not failed.  Every library exception derives from it."""
