"""Statistical kernels for residual-based alarm testing.

Covariance eigenfactorization, under one check of symmetry and PSD that runs
on a stack of matrices in one LAPACK call (a single matrix is a stack of one),
and whitening (of one residual, or as the squared whitened norms of a stack),
the chi-square alarm test, the noncentral chi-square CDF and upper quantile
(thin checked wrappers over the ``scipy.special`` ufuncs ``chndtr`` /
``chndtrix``), plus the Laplace sampler of the covariance phase.

Factorization, whitening and the Laplace sampler run on numpy alone; the
chi-square test, quantiles and CDFs load ``scipy.special`` at their first
call, so a process that computes none (a CR regulator) never imports it.

All functions are pure and safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
# Not `from scipy import special`: scipy loads scipy.special at its first
# attribute access, so a process that computes no p-value or quantile (a CR
# regulator, CR replay, ingest) never pays its ~0.3 s import and ~20 MB.
import scipy

__all__ = [
    "CovFactorization",
    "TestOutcome",
    "eig_factorize",
    "whiten",
    "whitened_energies",
    "chi2_test",
    "central_chi2_quantile",
    "noncentral_chi2_cdf",
    "noncentral_chi2_quantile",
    "laplace_sample",
]

@dataclass(frozen=True)
class CovFactorization:
    """Eigenfactorization of a symmetric PSD covariance, top-p retained.

    Attributes:
        vectors: (d, d) orthonormal eigenvectors as columns, ordered to match
            ``lambdas``; each column's largest-magnitude component is positive
            so repeated factorizations are reproducible.
        lambdas: (d,) eigenvalues sorted descending.
        p: number of leading components retained for whitening, 1 <= p <= d.
    """

    vectors: np.ndarray
    lambdas: np.ndarray
    p: int

    @property
    def d(self) -> int:
        return int(self.lambdas.shape[0])

    def retained(self) -> tuple[np.ndarray, np.ndarray]:
        """Top-p eigenvectors (d, p) and eigenvalues (p,)."""
        return self.vectors[:, : self.p], self.lambdas[: self.p]


@dataclass(frozen=True)
class TestOutcome:
    """Result of one chi-square alarm test."""

    t_stat: float
    threshold: float
    rho: int


# Below this magnitude a finite x has 0.5 * (x + x) == x bit for bit, so
# symmetrising a bitwise symmetric matrix is the identity.
_EXACT_HALF_SUM_MAX = 2.0**1023
# whiten's refusal, which whitened_energies returns for the same row
_NOT_POSITIVE = "retained eigenvalue <= 0; clamp eigenvalues upstream before whitening"


def _checked_eigh(s: np.ndarray) -> tuple[list[list[float]], np.ndarray, list[ValueError | None]]:
    """Eigenpairs of each covariance of an (n, d, d) stack, or why it is refused.

    The one rule by which a covariance is accepted. LAPACK gets 0.5 * (s + s^T)
    in one ``np.linalg.eigh`` call: s itself when every matrix is bitwise
    symmetric with finite entries below 2**1023 in magnitude. A matrix is
    refused, in this order, when its largest asymmetry exceeds 1e-8 *
    max(1, largest magnitude), when LAPACK fails on it, or when its smallest
    eigenvalue is below -1e-8 * max(trace, 1) of the symmetrised matrix.

    NaN entries pass: a NaN asymmetry or eigenvalue fails no comparison, so the
    eigenpairs carry the NaN. A symmetrised matrix with a non-finite entry is
    factorized alone, since one such matrix can make a stacked call raise
    ``LinAlgError`` for all; a stack that does not converge is factorized row
    by row.

    Returns the ascending eigenvalues as lists of floats, the (n, d, d)
    eigenvectors as columns, and per row None or its ValueError (a refused
    row's eigenpairs mean nothing). Needs d >= 1.
    """
    n = len(s)
    errors: list = [None] * n
    alone: list[int] | range = []
    # bitwise: -0.0 facing 0.0 is symmetric by value but not after symmetrising
    if s.tobytes() == s.transpose(0, 2, 1).tobytes() and math.hypot(*s.ravel().tolist()) < _EXACT_HALF_SUM_MAX:
        stack = sym = s
    else:
        # the check and the symmetrisation run on floats, which round as the
        # arrays do; a sum past the float maximum is inf, silently, and its
        # matrix is factorized alone
        half, d = [], s.shape[1]
        for i, row in enumerate(s.reshape(n, d * d).tolist()):
            col = [x for j in range(d) for x in row[j::d]]
            # only a pair unequal by value can fail the check, and a non-finite
            # entry passes it (an inf scale or a NaN asymmetry fails no comparison)
            if row != col and all(map(math.isfinite, row)):
                asym = max(map(abs, map(operator.sub, row, col)))
                if asym > 1e-8 * max(1.0, *map(abs, row)):
                    errors[i] = ValueError(f"matrix not symmetric: max asymmetry {asym:.3e}")
            half.append([0.5 * (a + b) for a, b in zip(row, col)])
        alone = [i for i, row in enumerate(half) if not all(map(math.isfinite, row))]
        sym = np.array(half).reshape(s.shape)
        # finite stand-ins keep those matrices from failing the stacked call
        stack = np.where(np.isfinite(sym), sym, 0.0) if alone else sym
    try:
        lam, vec = np.linalg.eigh(stack)  # ascending
    except np.linalg.LinAlgError:  # a finite matrix did not converge
        lam, vec, alone = np.zeros(s.shape[:2]), np.zeros(s.shape), range(n)
    for i in alone:
        try:
            lam[i], vec[i] = np.linalg.eigh(sym[i])
        except np.linalg.LinAlgError as exc:
            errors[i] = errors[i] or exc

    rows = lam.tolist()
    for i, ascending in enumerate(rows):
        lam_min = ascending[0]
        # max(trace, 1) >= 1 (or NaN, which fails the test), so only an
        # eigenvalue below -1e-8 can fail it: the trace is read only then
        if lam_min < -1e-8 and errors[i] is None:
            trace = float(sym[i].trace())
            if lam_min < -1e-8 * max(trace, 1.0):
                errors[i] = ValueError(
                    f"matrix not PSD: smallest eigenvalue {lam_min:.3e} "
                    f"below tolerance for trace {trace:.3e}"
                )
    return rows, vec, errors


def eig_factorize(s: np.ndarray, count: int | None = None) -> CovFactorization:
    """Factorize a symmetric PSD matrix with a deterministic sign convention.

    The matrix is checked and eigendecomposed by ``_checked_eigh``, the rule
    the regulator's ``whitened_energies`` applies, as a stack of one.
    Eigenvalues come out descending, clipped at 0 from below. ``count`` is
    the number p of leading components retained for whitening; None keeps
    all d.

    NaN entries pass without raising, and the factorization carries the NaN.
    Callers that need a finite covariance check for it themselves, as
    ``cli.cmd_ingest`` does.

    Raises:
        ValueError: non-square input, a matrix ``_checked_eigh`` refuses, or
            a count outside [1, d].
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not s.size:
        s.max()  # numpy's error for an empty maximum, which the symmetry check always raised
    (ascending,), vec, (error,) = _checked_eigh(s[None])
    if error is not None:
        raise error

    # Sign convention: largest-magnitude component of each column positive.
    # max keeps the first maximum, as np.argmax does; a column holding a NaN
    # keeps its sign, as np.argmax would pick the NaN.
    cols = []
    for col in reversed(vec[0].T.tolist()):
        if max(col, key=abs) < 0.0 and not math.isnan(sum(map(abs, col))):
            col = [-x for x in col]
        cols.append(col)

    d = len(ascending)
    p = d if count is None else int(count)
    if not 1 <= p <= d:
        raise ValueError(f"count must be in [1, {d}], got {count}")

    return CovFactorization(
        # C-contiguous, as a strided view would take another matmul path
        vectors=np.array(cols, order="F").T,
        # np.maximum(x, 0.0) clamp: -0.0 becomes 0.0, NaN passes
        lambdas=np.array([0.0 if x <= 0.0 else x for x in reversed(ascending)]),
        p=p,
    )


def whiten(r: np.ndarray, fac: CovFactorization) -> np.ndarray:
    """Project r onto the retained eigenbasis and scale to unit variance.

    Returns the p-vector with components (v_i^T r) / sqrt(lambda_i).

    Raises:
        ValueError: a retained eigenvalue is <= 0 (clamp eigenvalues upstream
            before whitening).
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (fac.d,):
        raise ValueError(f"residual length {r.shape} does not match d={fac.d}")
    lam = fac.lambdas[: fac.p]
    if any(x <= 0.0 for x in lam.tolist()):
        raise ValueError(_NOT_POSITIVE)
    return (fac.vectors[:, : fac.p].T @ r) / np.sqrt(lam)


def whitened_energies(s: np.ndarray, r: np.ndarray, count: int) -> list[float | ValueError]:
    """||whiten(r_i, eig_factorize(s_i, count))||^2 for each row of a stack.

    ``s`` is an (n, d, d) stack of matrices and ``r`` an (n, d) stack of
    residuals. ``_checked_eigh`` checks and eigendecomposes the whole stack,
    by the rule ``eig_factorize`` applies to one matrix; the count check, a
    refusal of eigenvalues that are not all finite (which ``eig_factorize``
    passes) and the checks of ``whiten`` then run per row, on floats. The
    sign convention is skipped, as squaring cancels it; the projection and
    the sum of squares run on the memory layouts of the two-call path, so
    they take the same BLAS paths and each row gets its bits.

    Returns, per row, the float or its ValueError.
    """
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    n = len(s)
    if s.ndim != 3 or s.shape[1] != s.shape[2] or not s.shape[1]:
        return [ValueError(f"expected a square matrix, got shape {s.shape[1:]}")] * n
    d, p = s.shape[1], int(count)
    lam_rows, vec, out = _checked_eigh(s)

    good = []
    count_ok, r_ok = 1 <= p <= d, r.shape[1:] == (d,)
    for i, ascending in enumerate(lam_rows):
        if out[i] is not None:
            continue
        if not count_ok:
            out[i] = ValueError(f"count must be in [1, {d}], got {count}")
        # NaN or +inf (eigh of an overflowed matrix); -inf is clamped to 0 as
        # any negative eigenvalue is, so only these are not finite once clamped
        elif not all(map(math.inf.__gt__, ascending)):
            out[i] = ValueError("eigenvalues not all finite")
        elif not r_ok:
            out[i] = ValueError(f"residual length {r.shape[1:]} does not match d={d}")
        # the smallest retained eigenvalue, as the row is ascending and free of
        # NaN; the clamp at 0 leaves the test as is: x <= 0 exactly when max(x, 0) <= 0
        elif ascending[d - p] <= 0.0:
            out[i] = ValueError(_NOT_POSITIVE)
        else:
            good.append(i)
    if good:
        if len(good) < n:
            vec, r = vec[good], r[good]
        # a residual near the float maximum overflows to an energy of inf,
        # silently: the verdict carries it
        with np.errstate(over="ignore"):
            proj = (vec[:, :, d - p :].transpose(0, 2, 1) @ r[:, :, None]).reshape(len(good), p)
            # descending, as whiten returns it; IEEE division and square root
            # are correctly rounded, so floats give numpy's bits
            tau = np.array([
                [x / math.sqrt(lam) for x, lam in zip(reversed(row), reversed(lam_rows[i][d - p :]))]
                for i, row in zip(good, proj.tolist())
            ])
            energies = (tau[:, None, :] @ tau[:, :, None]).ravel().tolist()
        for i, energy in zip(good, energies):
            out[i] = energy
    return out


def central_chi2_quantile(alpha_upper: float, k: float) -> float:
    """Upper-alpha quantile of the central chi-square with k dof."""
    if not 0.0 < alpha_upper < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha_upper}")
    return float(2.0 * scipy.special.gammaincinv(k / 2.0, 1.0 - alpha_upper))


def chi2_test(tau: np.ndarray, alpha: float) -> TestOutcome:
    """Chi-square alarm test on a whitened residual.

    The statistic is ||tau||^2; the alarm fires (rho=1) strictly above the
    central chi-square upper-alpha quantile at len(tau) degrees of freedom.
    """
    tau = np.asarray(tau, dtype=float)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    t_stat = float(tau @ tau)
    threshold = central_chi2_quantile(alpha, len(tau))
    return TestOutcome(t_stat=t_stat, threshold=threshold, rho=int(t_stat > threshold))


def noncentral_chi2_cdf(x, k: float, lam: float):
    """CDF of the noncentral chi-square with k dof and noncentrality lam.

    ``scipy.special.chndtr``; vectorized over x, a scalar x returns a float.
    The upper tail 1 - cdf carries an absolute error of a few ulps of 1.0.

    Raises:
        ValueError: k < 1, negative x or lam, or a NaN result (NaN x, or lam
            beyond chndtr's range).
    """
    if k < 1:
        raise ValueError(f"dof must be >= 1, got {k}")
    if lam < 0.0:
        raise ValueError(f"noncentrality must be >= 0, got {lam}")
    out = scipy.special.chndtr(x, k, lam)
    # scalars skip numpy's 0-d reductions, which cost more than chndtr itself
    if out.ndim == 0:
        bad_x, bad_out = x < 0.0, math.isnan(out)
    else:
        bad_x, bad_out = np.any(np.asarray(x) < 0.0), np.isnan(out).any()
    if bad_x:
        raise ValueError("x must be >= 0")
    if bad_out:
        raise ValueError(f"chndtr gave NaN (NaN x, or lam={lam:.3e} out of range)")
    return float(out) if out.ndim == 0 else out


def noncentral_chi2_quantile(alpha_upper: float, k: float, lam: float) -> float:
    """x such that 1 - noncentral_chi2_cdf(x, k, lam) = alpha_upper.

    ``scipy.special.chndtrix(1 - alpha_upper, k, lam)``, or the central
    quantile when lam = 0. Within 1e-9 relative of ``scipy.stats.ncx2.isf``
    for alpha_upper >= 1e-8 and 1e-5 below (rounding of 1 - alpha_upper), as
    tested for k <= 3 and lam <= 100.

    Raises:
        ValueError: alpha_upper outside (0, 1), k < 1 or negative lam (when
            lam != 0), or lam beyond chndtrix's range.
    """
    if not 0.0 < alpha_upper < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha_upper}")
    if lam == 0.0:
        return central_chi2_quantile(alpha_upper, k)
    if k < 1:
        raise ValueError(f"dof must be >= 1, got {k}")
    if lam < 0.0:
        raise ValueError(f"noncentrality must be >= 0, got {lam}")
    q = float(scipy.special.chndtrix(1.0 - alpha_upper, k, lam))
    if math.isnan(q):
        raise ValueError(f"noncentrality {lam:.3e} outside the range of chndtrix")
    return q


def laplace_sample(scale: float, rng: np.random.Generator, size=None):
    """Inverse-CDF sampling of Laplace(0, scale)."""
    if scale < 0.0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
