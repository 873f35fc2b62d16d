import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from dpalarm.bounds import ALPHA_RTOL
from dpalarm.config import default_scenario, reference_params
from dpalarm.privacy import PrivacyParams
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
    rejection verdict, as verification ran before tuples were stacked. Between
    them, eigenvalues that are not all finite (NaN from an overflowed matrix)
    are rejected: ``eig_factorize`` passes NaN through, a verdict must not.
    """
    try:
        fac = reference_eig_factorize(tup.s_hat, count=p)
        if not np.isfinite(fac.lambdas).all():
            raise ValueError("eigenvalues not all finite")
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


# The handshake's params in wire order, each with the kind it is written and read as.
_PARAM_KINDS = {
    "eps_cov": float,
    "eps_r": float,
    "gamma_cov": float,
    "gamma_r": float,
    "delta_l": float,
    "delta_r": float,
    "p": int,
    "sigma": float,  # optional: absent, it is the calibrated minimum
}


def reference_encode_record(obj):
    """Reference ``protocol.encode_record``: one generic, type-dispatched emitter."""
    if isinstance(obj, Handshake):
        params = obj.params
        return _emit_record(
            {
                "v": PROTOCOL_VERSION,
                "mode": obj.mode,
                "uid": obj.uid,
                "d": obj.d,
                "p": int(params.p),
                "W": obj.epoch_len,
                "params": {key: kind(getattr(params, key)) for key, kind in _PARAM_KINDS.items()},
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


def _reject_constant(name: str):
    raise ProtocolError(f"non-finite constant on the wire: {name}")


# One decoder for every line: ``json.loads`` with a keyword builds a new one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _need(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise ProtocolError(f"{path}.{key}: missing field")
    val = obj[key]
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ProtocolError(f"{path}.{key}: expected number, got {type(val).__name__}")
        try:
            val = float(val)
        except OverflowError:  # an integer literal beyond float range
            raise ProtocolError(f"{path}.{key}: number out of float range") from None
        if not math.isfinite(val):
            raise ProtocolError(f"{path}.{key}: non-finite number")
        return val
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ProtocolError(f"{path}.{key}: expected integer, got {type(val).__name__}")
        return int(val)
    if kind is str:
        if not isinstance(val, str):
            raise ProtocolError(f"{path}.{key}: expected string, got {type(val).__name__}")
        return val
    if kind is list:
        if not isinstance(val, list):
            raise ProtocolError(f"{path}.{key}: expected array, got {type(val).__name__}")
        out = []
        for i, x in enumerate(val):
            try:
                ok = not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)
            except OverflowError:  # an integer literal beyond float range
                ok = False
            if not ok:
                raise ProtocolError(f"{path}.{key}[{i}]: expected finite number")
            out.append(float(x))
        return out
    raise AssertionError(kind)


def reference_decode_record(line: str | bytes) -> Handshake | CrTuple | PvTuple | Verdict:
    """Reference ``protocol.decode_record``: every field through ``_need``.

    The decoder as it was before its one-pass fast path, kept verbatim (with
    ``_need``) so the fast path can be checked record for record and message
    for message.

    Only ProtocolError leaves this function, whatever the line holds, and a
    decoded record always re-encodes.

    Raises:
        ProtocolError: truncated/malformed JSON (including nesting too deep
            to parse and integer literals too long to convert), bad version,
            schema violation, or numbers that are non-finite or beyond float
            range — with the offending field path.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid utf-8: {exc}") from exc
    try:
        if line.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        obj = _DECODER.decode(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed record: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"record must be an object, got {type(obj).__name__}")
    v = _need(obj, "v", int, "record")
    if v != PROTOCOL_VERSION:
        raise ProtocolError(f"record.v: unsupported version {v}")

    if "rho_hat" in obj:  # verdict
        return Verdict(
            uid=_need(obj, "uid", str, "verdict"),
            w=_need(obj, "w", int, "verdict"),
            rho_hat=_need(obj, "rho_hat", int, "verdict"),
            matched=bool(_need(obj, "matched", int, "verdict")),
            pvalue=_need(obj, "pvalue", float, "verdict") if "pvalue" in obj else None,
            reason=_need(obj, "reason", str, "verdict") if "reason" in obj else None,
        )
    mode = _need(obj, "mode", str, "record")
    if mode not in ("cr", "pv"):
        raise ProtocolError(f"record.mode: unknown mode {mode!r}")
    if "params" in obj:  # handshake
        d = _need(obj, "d", int, "handshake")
        p = _need(obj, "p", int, "handshake")
        epoch_len = _need(obj, "W", int, "handshake")
        raw = obj["params"]
        if not isinstance(raw, dict):
            raise ProtocolError("handshake.params: expected object")
        flat = {}
        for key, kind in _PARAM_KINDS.items():
            if key in raw or key != "sigma":
                flat[key] = _need(raw, key, kind, "handshake.params")
        try:
            params = PrivacyParams(**flat, eps_r_waiver=True)
        except ValueError as exc:
            raise ProtocolError(f"handshake.params: {exc}") from exc
        if not math.isfinite(params.sigma):  # a sigma_min that overflows
            raise ProtocolError("handshake.params.sigma: non-finite number")
        if d < 1 or p < 1 or p > d or epoch_len < 1:
            raise ProtocolError(f"handshake: invalid dims d={d} p={p} W={epoch_len}")
        if p != params.p:
            raise ProtocolError(f"handshake.p: {p} differs from params.p={params.p}")
        return Handshake(
            uid=_need(obj, "uid", str, "handshake"),
            mode=mode,
            d=d,
            epoch_len=epoch_len,
            params=params,
        )
    if mode == "cr":
        s_flat = _need(obj, "s_hat", list, "cr")
        d = math.isqrt(len(s_flat))
        if d * d != len(s_flat) or d < 1:
            raise ProtocolError(f"cr.s_hat: length {len(s_flat)} is not a square")
        tau_rg = _need(obj, "tau_rg", list, "cr")
        if len(tau_rg) != d:
            raise ProtocolError(f"cr.tau_rg: length {len(tau_rg)} != d={d}")
        return CrTuple(
            uid=_need(obj, "uid", str, "cr"),
            w=_need(obj, "w", int, "cr"),
            s_hat=np.array(s_flat).reshape(d, d),
            tau_rg=np.array(tau_rg),
            threshold=_need(obj, "thr", float, "cr"),
            rho=_need(obj, "rho", int, "cr"),
        )
    return PvTuple(
        uid=_need(obj, "uid", str, "pv"),
        w=_need(obj, "w", int, "pv"),
        t_res=_need(obj, "t_res", float, "pv"),
        t_cov=_need(obj, "t_cov", float, "pv"),
        alpha_hat=_need(obj, "alpha_hat", float, "pv"),
        rho=_need(obj, "rho", int, "pv"),
    )
