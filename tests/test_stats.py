import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from dpalarm.stats import (
    CovFactorization,
    central_chi2_quantile,
    chi2_test,
    eig_factorize,
    laplace_sample,
    noncentral_chi2_cdf,
    noncentral_chi2_quantile,
    whiten,
)
from conftest import random_psd, reference_eig_factorize, reference_whiten


class TestEigFactorize:
    def test_identity_variance_fraction(self):
        # no selector keeps every component, whatever share of variance
        fac = eig_factorize(np.eye(3))
        assert np.allclose(fac.lambdas, 1.0)
        assert fac.p == 3

    def test_count_selection(self):
        fac = eig_factorize(np.diag([4.0, 1.0]), count=1)
        assert fac.p == 1
        assert fac.lambdas[0] == pytest.approx(4.0)
        assert np.allclose(fac.vectors[:, 0], [1.0, 0.0])
        s = np.diag([3.0, 1.0, 0.0])
        assert eig_factorize(s, count=None).p == 3
        assert eig_factorize(s, count=3).p == 3
        for bad in (0, 4):
            with pytest.raises(ValueError, match=r"count must be in \[1, 3\]"):
                eig_factorize(s, count=bad)

    def test_reconstruction_random_psd(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 51))
            s = random_psd(rng, d, (0.1, 5.0))
            fac = eig_factorize(s)
            assert np.max(np.abs((fac.vectors * fac.lambdas) @ fac.vectors.T - s)) < 1e-8
            assert np.max(np.abs(fac.vectors.T @ fac.vectors - np.eye(d))) < 1e-8
            assert np.all(np.diff(fac.lambdas) <= 1e-12)

    def test_sign_convention_deterministic(self, rng):
        s = random_psd(rng, 5)
        fac1 = eig_factorize(s)
        fac2 = eig_factorize(s.copy())
        assert np.array_equal(fac1.vectors, fac2.vectors)
        for j in range(5):
            k = np.argmax(np.abs(fac1.vectors[:, j]))
            assert fac1.vectors[k, j] > 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_factorize(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            eig_factorize(np.diag([1.0, -0.5]))


class TestWhiten:
    def test_identity(self):
        # degenerate spectrum: the eigenbasis is an arbitrary orthonormal set,
        # so only the component multiset and the statistic are pinned down
        fac = eig_factorize(np.eye(3))
        r = np.array([1.0, -2.0, 0.5])
        tau = whiten(r, fac)
        assert np.allclose(sorted(np.abs(tau)), sorted(np.abs(r)))
        assert float(tau @ tau) == pytest.approx(float(r @ r))

    def test_distinct_diag(self):
        fac = eig_factorize(np.diag([9.0, 4.0, 1.0]))
        r = np.array([3.0, -2.0, 0.5])
        assert np.allclose(whiten(r, fac), [1.0, -1.0, 0.5])

    def test_diag_example(self):
        fac = eig_factorize(np.diag([4.0, 1.0]))
        assert np.allclose(whiten(np.array([2.0, 3.0]), fac), [1.0, 3.0])

    def test_zero_eigenvalue_rejected(self):
        fac = eig_factorize(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="clamp"):
            whiten(np.array([1.0, 1.0]), fac)

    def test_monte_carlo_whiteness(self, rng):
        s = random_psd(rng, 4, (0.5, 4.0))
        fac = eig_factorize(s)
        chol = np.linalg.cholesky(s)
        draws = (chol @ rng.standard_normal((4, 100_000))).T
        taus = np.array([whiten(r, fac) for r in draws])
        cov = np.cov(taus, rowvar=False)
        assert np.max(np.abs(cov - np.eye(4))) < 0.02
        # squared-norm mean at the dof with the binomial-free CLT band
        norms = (taus**2).sum(axis=1)
        assert abs(norms.mean() - 4.0) < 3 * np.sqrt(2 * 4 / len(norms))


ANY_FLOAT = st.floats(width=64)  # NaN, infinities, -0.0 and subnormals included
MATRIX_KINDS = (
    "psd", "singular", "near_symmetric", "asymmetric", "negative", "nan",
    "signed_zero", "huge", "raw_symmetric", "raw",
)


@st.composite
def factorize_inputs(draw):
    """(matrix, count) over d in 1..4, from clean PSD to arbitrary floats."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(MATRIX_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "raw":
        s = np.array(draw(st.lists(ANY_FLOAT, min_size=d * d, max_size=d * d))).reshape(d, d)
    elif kind == "raw_symmetric":
        s = np.zeros((d, d))
        s[np.triu_indices(d)] = draw(st.lists(ANY_FLOAT, min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2))
        s = np.triu(s) + np.triu(s, 1).T
    else:
        s = random_psd(rng, d, (0.0, 10.0) if kind == "singular" else (0.1, 10.0))
        s = 0.5 * (s + s.T)
        i, j = (int(k) for k in rng.integers(0, d, size=2))
        if kind == "singular":
            s = s - np.diag(rng.uniform(0.0, 1e-7, size=d))  # eigenvalues about 0, either sign
        elif kind == "near_symmetric":
            s[i, j] += 1e-13 * rng.normal()
        elif kind == "asymmetric":
            s[i, j] += rng.normal()
        elif kind == "negative":
            s = -s
        elif kind == "nan":
            s[i, j] = np.nan
            if draw(st.booleans()):
                s[j, i] = np.nan
        elif kind == "signed_zero":  # LAPACK's bits can follow the sign of a zero
            j = (i + 1) % d
            s[i, j] = 0.0
            s[j, i] = -0.0 if draw(st.booleans()) else 0.0
            s[i, i] = -0.0 if draw(st.booleans()) else s[i, i]
        elif kind == "huge":
            with np.errstate(over="ignore"):
                s = s * draw(st.sampled_from([2.0**1020, 2.0**1022, 1e307]))
    if draw(st.booleans()):
        s = np.asfortranarray(s)
    return s, draw(st.one_of(st.none(), st.integers(0, d + 1)))


def _outcome(fn, *args):
    """What a kernel returned, bit for bit, or the error it raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raised", type(exc), str(exc))
    if isinstance(out, CovFactorization):
        arrays = (out.vectors, out.lambdas)
        return ("ok", out.p) + tuple((a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in arrays)
    return ("ok", out.dtype, out.shape, out.tobytes())


class TestLeanKernelsMatchReference:
    """eig_factorize and whiten on floats reproduce the numpy references.

    Outputs must be bit-identical (layout included) and errors must have the
    same type and message, for every input.
    """

    @settings(max_examples=1500, deadline=None)
    @given(factorize_inputs())
    def test_eig_factorize(self, case):
        s, count = case
        with np.errstate(all="ignore"):
            assert _outcome(eig_factorize, s, count) == _outcome(reference_eig_factorize, s, count)

    def test_eig_factorize_edge_inputs(self):
        cases = [
            np.zeros((0, 0)), np.zeros(3), np.zeros((2, 3)), [[1.0, 2.0], [2.0, 5.0]],
            np.array([[4.0, np.inf], [np.inf, 1.0]]), np.diag([np.inf, 1.0]),
            np.array([[1.0, -0.0], [0.0, 1.0]]), np.diag([2.0**1023, 1.0]),
            # equal by value, not bitwise: eigh of this one differs in low bits
            # from eigh of its symmetrised copy, where the -0.0 becomes 0.0
            np.array([[0.512, 0.0, 0.296], [-0.0, 3.607, -0.04], [0.296, -0.04, 4.65]]),
            np.full((3, 3), np.nan), np.eye(3)[:, ::-1], np.eye(4)[::2, ::2],
        ]
        for s in cases:
            for count in (None, 1, 5):
                with np.errstate(all="ignore"):
                    assert _outcome(eig_factorize, s, count) == _outcome(reference_eig_factorize, s, count)

    def test_sign_rule_on_columns_lapack_may_return(self, monkeypatch):
        # np.argmax takes a column's first NaN, so a NaN after a negative
        # largest component keeps the column's sign; so do ties and zeros
        vec = np.array([[-0.9, 0.5, -0.0], [np.nan, -0.5, 0.0], [0.1, 0.2, -1.0]])
        monkeypatch.setattr(np.linalg, "eigh", lambda s: (np.array([0.5, 1.0, 2.0]), vec.copy()))
        assert _outcome(eig_factorize, np.eye(3), None) == _outcome(reference_eig_factorize, np.eye(3), None)

    def test_nan_covariance_passes(self):
        fac = eig_factorize(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        assert np.isnan(fac.lambdas).any()

    @settings(max_examples=800, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.lists(ANY_FLOAT, min_size=d * d, max_size=d * d),
                st.lists(ANY_FLOAT, min_size=d, max_size=d),
                st.integers(1, d),
                st.lists(ANY_FLOAT, min_size=d - 1, max_size=d + 1),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_whiten(self, case, seed):
        vectors, lambdas, p, r = case
        d = len(lambdas)
        rng = np.random.default_rng(seed)
        # factorizations as eig_factorize makes them, and arbitrary ones
        facs = [CovFactorization(np.array(vectors).reshape(d, d), np.array(lambdas), p)]
        s = random_psd(rng, d, (0.0, 5.0))
        with np.errstate(all="ignore"):
            facs.append(reference_eig_factorize(0.5 * (s + s.T), count=p))
            for fac in facs:
                for vec in (np.array(r), rng.normal(size=d)):
                    assert _outcome(whiten, vec, fac) == _outcome(reference_whiten, vec, fac)


class TestChi2Test:
    def test_zero_statistic(self):
        out = chi2_test(np.zeros(3), 0.05)
        assert out.t_stat == 0.0
        assert out.rho == 0

    def test_classical_threshold(self):
        # independent oracle: scipy central quantile
        out = chi2_test(np.zeros(1), 0.05)
        assert out.threshold == pytest.approx(3.8415, abs=1e-3)
        assert out.threshold == pytest.approx(sps.chi2.ppf(0.95, 1), abs=1e-10)

    def test_null_alarm_rate(self, rng):
        alpha, n = 0.05, 100_000
        taus = rng.standard_normal((n, 3))
        thr = central_chi2_quantile(alpha, 3)
        rate = np.mean((taus**2).sum(axis=1) > thr)
        assert abs(rate - alpha) < 3 * np.sqrt(alpha * (1 - alpha) / n)


TAIL_ALPHAS = np.logspace(-12, np.log10(0.5), 23)
TAIL_LAMS = (0.0, 1e-14, 1e-10, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0)
TAIL_DOFS = (1, 2, 3)


class TestNoncentralChi2:
    def test_central_degenerate(self):
        xs = np.linspace(0.1, 20.0, 10)
        mine = noncentral_chi2_cdf(xs, 4, 0.0)
        assert np.max(np.abs(mine - sps.chi2.cdf(xs, 4))) < 1e-8

    def test_extremes(self):
        for k, lam in [(1, 0.5), (3, 7.0), (6, 120.0)]:
            assert noncentral_chi2_cdf(0.0, k, lam) == 0.0
            assert abs(noncentral_chi2_cdf(1e6, k, lam) - 1.0) < 1e-9

    def test_sampling_oracle_point(self):
        # 1e7-draw Monte Carlo of ||z+mu||^2, z~N(0,I3), ||mu||^2=2 (seed 2024)
        # gave cdf(5) = 0.593576; the CDF must agree within 1e-3.
        assert abs(noncentral_chi2_cdf(5.0, 3, 2.0) - 0.593576) < 1e-3

    def test_monotone_in_x_and_lam(self):
        xs = np.linspace(0.0, 30.0, 40)
        vals = noncentral_chi2_cdf(xs, 3, 4.0)
        assert np.all(np.diff(vals) >= 0)
        lams = np.linspace(0.0, 20.0, 15)
        at_x = [noncentral_chi2_cdf(8.0, 3, lam) for lam in lams]
        assert np.all(np.diff(at_x) <= 1e-12)

    def test_scipy_cross_check(self):
        for k, lam in [(1, 3.0), (4, 25.0), (7, 400.0)]:
            xs = np.linspace(0.5, k + lam + 5 * np.sqrt(2 * (k + 2 * lam)), 9)
            assert np.max(np.abs(noncentral_chi2_cdf(xs, k, lam) - sps.ncx2.cdf(xs, k, lam))) < 1e-9

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            noncentral_chi2_cdf(-1.0, 3, 1.0)
        with pytest.raises(ValueError):
            noncentral_chi2_cdf(1.0, 3, -1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            noncentral_chi2_cdf(1e13, 3, 1e13)

    def test_upper_tail_grid(self):
        # 1 - cdf against ncx2.sf at its own isf points, alpha 1e-12..0.5: 1e-9
        # relative, plus an absolute floor of a few ulps of 1.0 that the
        # subtraction 1 - cdf cannot beat
        for k in TAIL_DOFS:
            for lam in TAIL_LAMS[1:]:
                xs = sps.ncx2.isf(TAIL_ALPHAS, k, lam)
                ref = sps.ncx2.sf(xs, k, lam)
                err = np.abs((1.0 - noncentral_chi2_cdf(xs, k, lam)) - ref)
                assert np.all(err <= 1e-9 * ref + 1e-15), (k, lam, err.max())


class TestNoncentralQuantile:
    def test_roundtrip_grid(self):
        for a in (0.01, 0.05, 0.3):
            for k in (1, 3, 6):
                for lam in (0.0, 2.0, 40.0):
                    x = noncentral_chi2_quantile(a, k, lam)
                    assert abs((1.0 - noncentral_chi2_cdf(x, k, lam)) - a) < 1e-8

    def test_central_case(self):
        assert noncentral_chi2_quantile(0.05, 1, 0.0) == pytest.approx(3.8415, abs=1e-3)

    def test_strictly_increasing_in_lam(self):
        lams = [0.0, 1.0, 3.0, 10.0, 30.0]
        qs = [noncentral_chi2_quantile(0.1, 4, lam) for lam in lams]
        assert np.all(np.diff(qs) > 0)

    def test_tail_grid_against_isf(self):
        # 1e-9 relative down to alpha 1e-8; below, 1 - alpha itself rounds at
        # 1e-4 relative of alpha, and 1e-5 relative on the quantile is allowed
        for k in TAIL_DOFS:
            for lam in TAIL_LAMS:
                for a in TAIL_ALPHAS:
                    ref = sps.ncx2.isf(a, k, lam) if lam > 0.0 else sps.chi2.isf(a, k)
                    rel = abs(noncentral_chi2_quantile(a, k, lam) - ref) / ref
                    assert rel <= (1e-9 if a >= 1e-8 else 1e-5), (k, lam, a, rel)

    def test_bad_inputs_rejected(self):
        for args in [(0.0, 3, 1.0), (1.0, 3, 1.0), (0.05, 3, -1.0), (0.05, 0.5, 1.0)]:
            with pytest.raises(ValueError):
                noncentral_chi2_quantile(*args)
        with pytest.raises(ValueError, match="range"):
            noncentral_chi2_quantile(0.05, 3, 1e13)


class TestAuxCdfs:
    def test_laplace_moment(self, rng):
        scale = 2.5
        draws = laplace_sample(scale, rng, size=1_000_000)
        assert abs(np.mean(np.abs(draws)) - scale) / scale < 0.01
