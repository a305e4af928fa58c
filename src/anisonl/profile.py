"""Anisotropy profile: order exponents, ellipticity and derived constants.

Everything downstream (level-set geometry, extremal operators, barriers,
rectangle covers) consumes an :class:`AnisotropyProfile`.  The derived
quantities are

    q_i     = -1 + 3/(n+sigma_i) + sum_{j != i} 1/(n+sigma_j)
    c_sigma = min_i q_i            (attained where sigma_i is maximal)
    q_max   = max_i q_i            (attained where sigma_i is minimal)
    A       = diagonal matrix, a_ii = 1 at i_min and
              2^{(-1/(n+sigma_min) + 1/(n+sigma_i)) * 2/q_max} elsewhere
    r_k     = rho0 * 2^{-1/q_max} * 2^{-frak_c (n+sigma_min) k}

``frak_c`` is any natural number making the level set Theta_{2^-frak_c r}
fit inside the ellipse E_{r,1/8}; the default ceil((n+2) log2(8 sqrt n))
provably suffices (via Theta_s subset E_{s,sqrt n}).  ``rho0`` is a free
smallness scale; the default (8 sqrt n)^{-(n+2)} keeps all cover
rectangles well inside the unit ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class AnisotropyProfile:
    """Validated bundle of dimension, orders, ellipticity and constants.

    Immutable; derived fields are computed in __post_init__ and never
    trusted from serialized input.
    """

    n: int
    sigma: tuple
    lambda_lo: float = 1.0
    lambda_hi: float = 1.0
    rho0: float = None
    frak_c: int = None

    # derived
    sigma_min: float = field(init=False)
    sigma_max: float = field(init=False)
    i_min: int = field(init=False)
    q: tuple = field(init=False)
    q_max: float = field(init=False)
    c_sigma: float = field(init=False)

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"dimension must be a positive integer, got {n!r}")
        sigma = tuple(float(s) for s in self.sigma)
        if len(sigma) != n:
            raise ValueError(f"need {n} order exponents, got {len(sigma)}")
        for s in sigma:
            if not 0.0 < s < 2.0:
                raise ValueError(f"order exponents must lie in (0, 2), got {s}")
        if not 0.0 < self.lambda_lo <= self.lambda_hi:
            raise ValueError(
                f"need 0 < lambda_lo <= lambda_hi, got "
                f"({self.lambda_lo}, {self.lambda_hi})")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_min", min(sigma))
        object.__setattr__(self, "sigma_max", max(sigma))
        object.__setattr__(self, "i_min", sigma.index(min(sigma)))

        inv = [1.0 / (n + s) for s in sigma]
        total = sum(inv)
        q = tuple(-1.0 + 2.0 * inv[i] + total for i in range(n))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "q_max", max(q))
        object.__setattr__(self, "c_sigma", min(q))
        if min(q) <= 0.0:
            raise ValueError(f"degenerate exponents: some q_i <= 0 ({q})")

        if self.rho0 is None:
            object.__setattr__(self, "rho0", (8.0 * math.sqrt(n)) ** -(n + 2))
        elif self.rho0 <= 0.0:
            raise ValueError("rho0 must be positive")
        if self.frak_c is None:
            frak_c = math.ceil((n + 2) * math.log2(8.0 * math.sqrt(n)))
            object.__setattr__(self, "frak_c", frak_c)
        elif not (isinstance(self.frak_c, int) and self.frak_c >= 1):
            raise ValueError("frak_c must be a natural number")

    # -- derived objects ----------------------------------------------------

    @property
    def exponents(self):
        """n + sigma_i as an ndarray (the gauge exponents)."""
        import numpy as np
        return np.array([self.n + s for s in self.sigma])

    def matrix_a(self):
        """Diagonal of the annulus-comparison matrix A (unit operator norm)."""
        import numpy as np
        n = self.n
        diag = np.empty(n)
        for j in range(n):
            if j == self.i_min:
                diag[j] = 1.0
            else:
                expo = (-1.0 / (n + self.sigma_min)
                        + 1.0 / (n + self.sigma[j])) * 2.0 / self.q_max
                diag[j] = 2.0 ** expo
        return diag

    def radius(self, k: int) -> float:
        """k-th radius r_k of the geometric annulus sequence."""
        if not (isinstance(k, int) and k >= 0):
            raise ValueError(f"annulus index must be a nonnegative integer, got {k}")
        return (self.rho0 * 2.0 ** (-1.0 / self.q_max)
                * 2.0 ** (-self.frak_c * (self.n + self.sigma_min) * k))

    # -- serialization ------------------------------------------------------

    @staticmethod
    def from_dict(obj: dict) -> "AnisotropyProfile":
        """Build from a JSON object; derived constants are always recomputed."""
        casts = {"lambda_lo": float, "lambda_hi": float, "rho0": float,
                 "frak_c": int}
        # an omitted or null key keeps the dataclass default
        return AnisotropyProfile(int(obj["n"]), tuple(obj["sigma"]), **{
            key: cast(obj[key]) for key, cast in casts.items()
            if obj.get(key) is not None})


def isotropic(n, sigma, lambda_lo=1.0, lambda_hi=1.0, **kw) -> AnisotropyProfile:
    """Convenience constructor with all orders equal."""
    return AnisotropyProfile(n, (sigma,) * n, lambda_lo, lambda_hi, **kw)
