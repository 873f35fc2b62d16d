import numpy as np
import pytest

from dpalarm.bounds import ALPHA_RTOL
from dpalarm.config import default_scenario, reference_params


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def scenario():
    return default_scenario()


@pytest.fixture
def analog_params():
    return reference_params()


def random_psd(rng, d, eig_range=(1.0, 10.0)):
    """Random symmetric PSD matrix with spectrum inside eig_range."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = rng.uniform(*eig_range, size=d)
    return (q * lam) @ q.T


class ScanNormTracker:
    """Reference ``NormTracker``: rescans its whole window on every read.

    Same public surface and tie rule (the most recent of equal norms wins),
    kept as the plain loop the cached tracker must reproduce bit for bit.
    """

    def __init__(self, window=50):
        self.window = window
        self._buf = []

    def push(self, vec):
        self._buf.append(np.array(vec, dtype=float))
        del self._buf[: -self.window]

    def __len__(self):
        return len(self._buf)

    @property
    def max_vector(self):
        best, best_norm = None, -1.0
        for v in self._buf:
            n = float(v @ v)
            if n >= best_norm:
                best, best_norm = v, n
        return best.copy()

    @property
    def max_norm(self):
        v = self.max_vector
        return float(np.sqrt(v @ v))

    @property
    def median_vector(self):
        norms = [float(v @ v) for v in self._buf]
        return self._buf[int(np.argsort(norms, kind="stable")[(len(norms) - 1) // 2])].copy()


def bisect_invert(bound, target, lo, f_lo, hi, f_hi):
    """Reference for ``bounds._itp_invert``: plain log-space bisection.

    Same contract (bound(lo) <= target < bound(hi) in, the final lo and its
    bound out once hi/lo < 1 + ALPHA_RTOL), at about 45 bound evaluations.
    """
    for _ in range(200):
        mid = float(np.sqrt(lo * hi))
        f_mid = bound(mid)
        if f_mid > target:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi / lo < 1.0 + ALPHA_RTOL:
            break
    return lo, f_lo
