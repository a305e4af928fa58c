import subprocess
import sys

import numpy as np

from anisonl import _accel


def test_backend_flag_reported():
    assert isinstance(_accel.using_numba(), bool)


def test_gauge_backends_agree(rng):
    pts = np.ascontiguousarray(rng.normal(size=(5000, 2)))
    expo = np.array([3.0, 3.5])
    a = _accel.gauge_many(pts, expo)
    b = _accel.gauge_many_np(pts, expo)
    assert np.allclose(a, b, rtol=1e-13)


def test_interp_backends_agree(rng):
    lo = np.array([-2.0, -2.0])
    inv_h = np.array([8.0, 8.0])
    shape = np.array([33, 33], dtype=np.int64)
    vals = rng.normal(size=33 * 33)
    q = np.ascontiguousarray(rng.uniform(-1.9, 1.9, size=(4000, 2)))
    a = _accel.interp_many(q, lo, inv_h, shape, vals)
    b = _accel.interp_many_np(q, lo, inv_h, shape, vals)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_numpy_fallback_env_flag():
    code = (
        "import os; os.environ['ANISONL_NUMBA'] = '0'\n"
        "import numpy as np\n"
        "from anisonl import _accel, using_numba\n"
        "assert not using_numba()\n"
        "pts = np.ones((10, 2))\n"
        "g = _accel.gauge_many(pts, np.array([3.0, 3.0]))\n"
        "assert np.allclose(g, 2.0)\n"
        "print('fallback-ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "fallback-ok" in proc.stdout

