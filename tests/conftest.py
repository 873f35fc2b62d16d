import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from dpalarm.bounds import ALPHA_RTOL
from dpalarm.config import default_scenario, reference_params
from dpalarm.protocol import (
    PROTOCOL_VERSION,
    CrTuple,
    Handshake,
    ProtocolError,
    PvTuple,
    Verdict,
)
from dpalarm.stats import CovFactorization

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """This environment with ``src`` first on PYTHONPATH, for a child Python.

    pytest's ``pythonpath`` setting reaches only the test process, so a
    subprocess finds the package only through this.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


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


def reference_eig_factorize(s, count=None):
    """Reference ``stats.eig_factorize``: every step on numpy arrays.

    The plain array version the float-list kernel must reproduce bit for
    bit, errors (type and message) included.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = max(1.0, float(abs(s).max()))
    asym = float(abs(s - s.T).max())
    if asym > 1e-8 * scale:
        raise ValueError(f"matrix not symmetric: max asymmetry {asym:.3e}")
    s = 0.5 * (s + s.T)
    d = s.shape[0]
    lam, vec = np.linalg.eigh(s)
    lam = lam[::-1].copy()
    vec = vec[:, ::-1].copy()

    trace = float(s.trace())
    if lam[-1] < -1e-8 * max(trace, 1.0):
        raise ValueError(
            f"matrix not PSD: smallest eigenvalue {lam[-1]:.3e} "
            f"below tolerance for trace {trace:.3e}"
        )
    lam = np.maximum(lam, 0.0)

    k = abs(vec).argmax(axis=0)
    vec *= np.where(vec[k, np.arange(d)] < 0, -1.0, 1.0)

    p = d if count is None else int(count)
    if not 1 <= p <= d:
        raise ValueError(f"count must be in [1, {d}], got {count}")
    return CovFactorization(vectors=vec, lambdas=lam, p=p)


def reference_whiten(r, fac):
    """Reference ``stats.whiten``: the positivity check as an array test."""
    r = np.asarray(r, dtype=float)
    if r.shape != (fac.d,):
        raise ValueError(f"residual length {r.shape} does not match d={fac.d}")
    vec, lam = fac.retained()
    if np.any(lam <= 0.0):
        raise ValueError(
            "retained eigenvalue <= 0; clamp eigenvalues upstream before whitening"
        )
    return (vec.T @ r) / np.sqrt(lam)


def reference_verify_cr(tup, p):
    """Reference ``protocol.verify_cr``: one tuple through the reference kernels.

    ``reference_eig_factorize`` then ``reference_whiten``, each ValueError a
    rejection verdict, as verification ran before tuples were stacked.
    """
    try:
        fac = reference_eig_factorize(tup.s_hat, count=p)
        tau_res = reference_whiten(tup.tau_rg, fac)
    except ValueError as exc:
        return Verdict(
            uid=tup.uid, w=tup.w, rho_hat=0, matched=False, reason=f"malformed disclosure: {exc}"
        )
    t_res_hat = float(tau_res @ tau_res)
    rho_hat = int(t_res_hat > tup.threshold)
    return Verdict(
        uid=tup.uid,
        w=tup.w,
        rho_hat=rho_hat,
        matched=(rho_hat == tup.rho),
        t_res_hat=t_res_hat,
        threshold=tup.threshold,
    )


def _emit(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if not math.isfinite(v):
            raise ProtocolError(f"non-finite number on the wire: {v}")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_emit(x) for x in np.asarray(v).reshape(-1)) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_emit(x)}" for k, x in v.items()) + "}"
    raise ProtocolError(f"cannot serialize {type(v).__name__}")


def _emit_record(fields):
    return "{" + ",".join(f"{json.dumps(k)}:{_emit(v)}" for k, v in fields.items()) + "}"


def reference_encode_record(obj):
    """Reference ``protocol.encode_record``: one generic, type-dispatched emitter."""
    if isinstance(obj, Handshake):
        return _emit_record(
            {
                "v": PROTOCOL_VERSION,
                "mode": obj.mode,
                "uid": obj.uid,
                "d": obj.d,
                "p": obj.p,
                "W": obj.epoch_len,
                "params": obj.params.to_flat(),
            }
        )
    if isinstance(obj, CrTuple):
        return _emit_record(
            {
                "v": PROTOCOL_VERSION,
                "mode": "cr",
                "uid": obj.uid,
                "w": obj.w,
                "s_hat": np.asarray(obj.s_hat, dtype=float).reshape(-1),
                "tau_rg": np.asarray(obj.tau_rg, dtype=float),
                "thr": float(obj.threshold),
                "rho": int(obj.rho),
            }
        )
    if isinstance(obj, PvTuple):
        return _emit_record(
            {
                "v": PROTOCOL_VERSION,
                "mode": "pv",
                "uid": obj.uid,
                "w": obj.w,
                "t_res": float(obj.t_res),
                "t_cov": float(obj.t_cov),
                "alpha_hat": float(obj.alpha_hat),
                "rho": int(obj.rho),
            }
        )
    if isinstance(obj, Verdict):
        fields = {
            "v": PROTOCOL_VERSION,
            "uid": obj.uid,
            "w": obj.w,
            "rho_hat": int(obj.rho_hat),
            "matched": int(obj.matched),
        }
        if obj.pvalue is not None:
            fields["pvalue"] = float(obj.pvalue)
        if obj.reason is not None:
            fields["reason"] = obj.reason
        return _emit_record(fields)
    raise ProtocolError(f"cannot encode {type(obj).__name__}")
