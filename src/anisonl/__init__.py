"""Anisotropic nonlocal operators, barriers, covers and Harnack experiments.

Importing the package loads no submodule and no numpy; import the
submodules (``anisonl.profile``, ``anisonl.operators``, ...) directly.
"""

__version__ = "0.1.0"
