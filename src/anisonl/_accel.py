"""Hot numeric kernels, JIT-compiled with numba when available.

Every kernel has a pure-numpy twin. Selection is controlled by the
environment variable ``ANISONL_NUMBA``: set it to ``0`` to force the
numpy path (useful for debugging).
The flag is read once at import time.
"""

import os

import numpy as np

_WANT_NUMBA = os.environ.get("ANISONL_NUMBA", "1") != "0"

try:
    if _WANT_NUMBA:
        from numba import njit
        _HAVE_NUMBA = True
    else:
        _HAVE_NUMBA = False
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False


def using_numba():
    """True when the JIT backend is active."""
    return _HAVE_NUMBA


# ---------------------------------------------------------------------------
# gauge: sum_i |y_i|^(n+sigma_i), the kernel level function
# ---------------------------------------------------------------------------

def _gauge_np(y, expo):
    return np.sum(np.abs(y) ** expo[None, :], axis=1)


def _interp_np(pts, lo, inv_h, shape, flat_vals):
    """Multilinear interpolation on a regular grid (points inside the box)."""
    npts, n = pts.shape
    t = (pts - lo[None, :]) * inv_h[None, :]
    i0 = np.floor(t).astype(np.int64)
    np.clip(i0, 0, np.asarray(shape)[None, :] - 2, out=i0)
    frac = t - i0
    out = np.zeros(npts)
    strides = np.ones(n, dtype=np.int64)
    for d in range(n - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    for corner in range(1 << n):
        w = np.ones(npts)
        idx = np.zeros(npts, dtype=np.int64)
        for d in range(n):
            bit = (corner >> d) & 1
            w = w * (frac[:, d] if bit else 1.0 - frac[:, d])
            idx += (i0[:, d] + bit) * strides[d]
        out += w * flat_vals[idx]
    return out


if _HAVE_NUMBA:

    @njit(cache=True)
    def _gauge_nb(y, expo):
        m, n = y.shape
        out = np.empty(m)
        for k in range(m):
            s = 0.0
            for i in range(n):
                s += abs(y[k, i]) ** expo[i]
            out[k] = s
        return out

    @njit(cache=True)
    def _interp_nb(pts, lo, inv_h, shape, flat_vals):
        npts, n = pts.shape
        strides = np.ones(n, dtype=np.int64)
        for d in range(n - 2, -1, -1):
            strides[d] = strides[d + 1] * shape[d + 1]
        out = np.empty(npts)
        i0 = np.empty(n, dtype=np.int64)
        frac = np.empty(n)
        for k in range(npts):
            for d in range(n):
                t = (pts[k, d] - lo[d]) * inv_h[d]
                j = int(np.floor(t))
                if j < 0:
                    j = 0
                if j > shape[d] - 2:
                    j = shape[d] - 2
                i0[d] = j
                frac[d] = t - j
            acc = 0.0
            for corner in range(1 << n):
                w = 1.0
                idx = 0
                for d in range(n):
                    bit = (corner >> d) & 1
                    if bit:
                        w *= frac[d]
                    else:
                        w *= 1.0 - frac[d]
                    idx += (i0[d] + bit) * strides[d]
                acc += w * flat_vals[idx]
            out[k] = acc
        return out

    gauge_many = _gauge_nb
    interp_many = _interp_nb
else:
    gauge_many = _gauge_np
    interp_many = _interp_np


# numpy twins stay importable for the backend tests
gauge_many_np = _gauge_np
interp_many_np = _interp_np
