"""Anisotropic nonlocal operators, barriers, covers and Harnack experiments."""

from .profile import AnisotropyProfile, derive_constants, isotropic, radii_sequence
from .geometry import (AnisoSet, ScalingMap, ellipse, rect, scaling_apply,
                       set_measure, set_membership, theta, tilde_rect)
from .fields import (AffineExterior, AnalyticField, CallableExterior,
                     ConstantExterior, GridField, second_difference)
from .kernels import (KernelFamily, PowerLawKernel, TruncatedKernel,
                      kernel_bounds_verify, tail_truncation_bound)
from .quadrature import QuadratureScheme
from .operators import (eval_extremal, eval_extremal_many, eval_inf_sup,
                        eval_linear)

__version__ = "0.1.0"

__all__ = [
    "AnisotropyProfile", "derive_constants", "isotropic", "radii_sequence",
    "AnisoSet", "ScalingMap", "theta", "ellipse", "rect", "tilde_rect",
    "set_membership", "set_measure", "scaling_apply",
    "GridField", "AnalyticField", "ConstantExterior", "AffineExterior",
    "CallableExterior", "second_difference",
    "KernelFamily", "PowerLawKernel", "TruncatedKernel",
    "kernel_bounds_verify", "tail_truncation_bound",
    "QuadratureScheme", "eval_linear", "eval_extremal", "eval_extremal_many",
    "eval_inf_sup",
]
