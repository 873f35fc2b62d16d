import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpalarm import bounds, privacy, protocol
from dpalarm.config import default_scenario, reference_params
from dpalarm.ekf import ResidualRecord
from dpalarm.pipeline import derive_seed, epoch_stream, residual_stream
from dpalarm.privacy import PrivacyParams
from dpalarm.protocol import (
    CrTuple,
    Handshake,
    ProtocolError,
    PvTuple,
    Regulator,
    RegulatorSession,
    UtilitySession,
    Verdict,
    aggregate_epoch,
    decode_record,
    encode_record,
    verify_cr,
    verify_cr_stack,
    verify_pv,
)
from dpalarm.stats import central_chi2_quantile, noncentral_chi2_quantile
from conftest import (
    ScanNormTracker,
    bisect_invert,
    random_psd,
    reference_eig_factorize,
    reference_encode_record,
    reference_verify_cr,
    reference_whiten,
)


def make_records(rng, n, d=3, t0=1, scale=0.1):
    records = []
    for i in range(n):
        s = scale * random_psd(rng, d, (0.5, 2.0))
        r = np.linalg.cholesky(s) @ rng.standard_normal(d)
        records.append(ResidualRecord(t=t0 + i, r=r, s=s))
    return records


def make_params(p=3, sigma=None, **kw):
    base = dict(
        eps_cov=100.0, eps_r=0.5, gamma_cov=0.01, gamma_r=0.01,
        delta_l=0.1, delta_r=1.0, p=p,
    )
    base.update(kw)
    params = PrivacyParams(**base)
    if sigma is not None:
        object.__setattr__(params, "sigma", float(sigma))
    return params


def make_session(rng, mode="cr", p=3, alpha=0.05, **kw):
    return UtilitySession(
        uid="u0", mode=mode, params=make_params(p=p, **kw), d=3, alpha=alpha,
        rng=rng, epoch_len=10,
    )


class TestAggregateEpoch:
    def test_single_record_identity(self, rng):
        rec = make_records(rng, 1)[0]
        agg = aggregate_epoch([rec], w=0, alpha=0.05, p=3)
        assert np.array_equal(agg.r_w, rec.r)
        assert np.allclose(agg.s_w, rec.s)
        assert agg.n_steps == 1

    def test_zero_residuals_no_alarm(self, rng):
        records = [
            ResidualRecord(t=i, r=np.zeros(3), s=np.eye(3))
            for i in range(1, 6)
        ]
        agg = aggregate_epoch(records, w=0, alpha=0.05, p=3)
        assert np.all(agg.r_w == 0.0)
        assert agg.rho == 0

    def test_gap_rejected(self, rng):
        records = make_records(rng, 3)
        records[2] = ResidualRecord(t=99, r=records[2].r, s=records[2].s)
        with pytest.raises(ValueError, match="gap"):
            aggregate_epoch(records, w=0, alpha=0.05, p=3)

    def test_null_alarm_rate(self, rng):
        # epoch sums of independent gaussian residuals alarm at rate alpha
        alpha, n_epochs, w_len, d = 0.05, 3000, 5, 3
        s = np.eye(d)
        fired = 0
        thr = central_chi2_quantile(alpha, d)
        for _ in range(n_epochs):
            r_w = rng.standard_normal((w_len, d)).sum(axis=0)
            fired += float(r_w @ r_w) / w_len > thr
        rate = fired / n_epochs
        assert abs(rate - alpha) < 3 * np.sqrt(alpha * (1 - alpha) / n_epochs)


class TestUtilityCr:
    def test_deterministic(self, rng):
        records = make_records(np.random.default_rng(1), 10)
        agg = aggregate_epoch(records, w=0, alpha=0.05, p=3)
        outs = []
        for _ in range(2):
            sess = make_session(np.random.default_rng(42), mode="cr")
            outs.append(encode_record(sess.process_epoch(agg).tuple_obj))
        assert outs[0] == outs[1]

    def test_rho_is_local_alarm(self, rng):
        sess = make_session(rng, mode="cr")
        for w in range(5):
            agg = aggregate_epoch(make_records(rng, 10, t0=1 + 10 * w), w=w, alpha=0.05, p=3)
            res = sess.process_epoch(agg)
            assert res.tuple_obj.rho == agg.rho

    def test_zero_noise_degeneration(self, rng):
        # covariance noise off, residual noise driven small (the scaled-law
        # noncentrality would outgrow chndtr's range, so sigma stays finite)
        sess = make_session(rng, mode="cr", eps_cov=1e12, sigma=2e-2)
        agg = aggregate_epoch(make_records(rng, 10), w=0, alpha=0.05, p=3)
        res = sess.process_epoch(agg)
        tup = res.tuple_obj
        assert np.max(np.abs(tup.s_hat - agg.s_w)) < 1e-9
        scale = max(1.0, float(np.max(np.abs(agg.r_w))))
        assert np.max(np.abs(tup.tau_rg - agg.r_w)) < 0.05 * scale

    def test_large_sigma_threshold_central(self, rng):
        # with dominant residual noise the scaled threshold approaches the
        # central quantile at the equivalent significance level
        sess = make_session(rng, mode="cr", eps_cov=1e12, sigma=1e6, p=1)
        agg = aggregate_epoch(make_records(rng, 10), w=0, alpha=0.05, p=1)
        res = sess.process_epoch(agg)
        scaled_thr = res.threshold / sess.params.sigma**2
        assert 0.0 < res.alpha_hat <= 0.05
        assert scaled_thr == pytest.approx(
            central_chi2_quantile(res.alpha_hat, 1), rel=1e-4
        )


class TestRegulatorCr:
    def test_roundtrip_statistic(self, rng):
        sess = make_session(rng, mode="cr")
        for w in range(20):
            agg = aggregate_epoch(make_records(rng, 10, t0=1 + 10 * w), w=w, alpha=0.05, p=3)
            res = sess.process_epoch(agg)
            verdict = verify_cr(res.tuple_obj, p=3)
            utility_t_res = res.t_res_scaled * sess.params.sigma**2
            assert verdict.t_res_hat == pytest.approx(utility_t_res, rel=1e-8)
            assert verdict.rho_hat == res.rho_hat_local

    def test_tampered_rho_mismatch(self, rng):
        sess = make_session(rng, mode="cr")
        agg = aggregate_epoch(make_records(rng, 10), w=0, alpha=0.05, p=3)
        tup = sess.process_epoch(agg).tuple_obj
        tampered = CrTuple(
            uid=tup.uid, w=tup.w, s_hat=tup.s_hat, tau_rg=tup.tau_rg,
            threshold=tup.threshold, rho=1 - tup.rho,
        )
        v_ok = verify_cr(tup, p=3)
        v_bad = verify_cr(tampered, p=3)
        assert v_bad.rho_hat == v_ok.rho_hat
        assert v_bad.matched != v_ok.matched

    def test_zero_regulator_residual(self):
        tup = CrTuple(uid="u", w=0, s_hat=np.eye(3), tau_rg=np.zeros(3), threshold=5.0, rho=0)
        v = verify_cr(tup, p=3)
        assert v.rho_hat == 0
        assert v.t_res_hat == 0.0

    def test_malformed_covariance_rejected(self):
        tup = CrTuple(
            uid="u", w=0, s_hat=np.diag([1.0, -1.0, 1.0]), tau_rg=np.zeros(3),
            threshold=5.0, rho=0,
        )
        v = verify_cr(tup, p=3)
        assert v.rejected
        assert "malformed" in v.reason

    @pytest.mark.parametrize("low", [1.7e308, -1.7e308])
    def test_overflowing_covariance_rejected_without_warning(self, low):
        # symmetrising overflows to inf: the row's typed rejection is all it gets
        big = 1.7e308
        s_hat = np.array([[1.0, 2.0, big], [2.0, 1.0, 3.0], [low, 3.0, 1.0]])
        good = CrTuple("u", 1, np.eye(3), np.ones(3), 5.0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = verify_cr_stack([CrTuple("u", 0, s_hat, np.ones(3), 5.0, 0), good], 3)
            assert verdicts[1] == verify_cr(good, 3) and verdicts[1].reason is None
        reason = "Eigenvalues did not converge" if low > 0 else "matrix not symmetric"
        assert verdicts[0].rejected and reason in verdicts[0].reason

    def test_overflowing_residual_verdict_without_warning(self):
        # the projection and the energy overflow: inf is the statistic, silently
        tup = CrTuple("u", 0, np.eye(3), np.array([1.7e308, -1.7e308, 1.7e308]), 5.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = verify_cr(tup, 3)
        assert verdict.reason is None and verdict.t_res_hat == np.inf
        assert (verdict.rho_hat, verdict.matched) == (1, True)

    def test_non_finite_eigenvalues_rejected(self):
        # symmetrising makes the diagonal inf and eigh answers NaN without raising
        tup = CrTuple("u", 0, np.diag([1.7e308] * 3), np.ones(3), 5.0, 0)
        good = CrTuple("u", 1, np.eye(3), np.ones(3), 5.0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = verify_cr_stack([tup, good], 3)
        with np.errstate(all="ignore"):
            assert verdicts[0] == verify_cr(tup, 3) == reference_verify_cr(tup, 3)
        assert verdicts[0].reason == "malformed disclosure: eigenvalues not all finite"
        assert verdicts[1] == verify_cr(good, 3) and verdicts[1].reason is None


CR_ROW_KINDS = (
    "psd", "near_singular", "singular", "near_symmetric", "asymmetric", "negative",
    "signed_zero", "huge", "nan", "inf",
)


@st.composite
def cr_stacks(draw):
    """(tuples, p): 1-8 CR tuples of one d in 1..4, each row of its own kind."""
    d = draw(st.integers(1, 4))
    p = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tuples = []
    for w in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(CR_ROW_KINDS))
        s = random_psd(rng, d, (1e-12, 10.0) if kind == "near_singular" else (0.1, 10.0))
        s = 0.5 * (s + s.T)
        i, j = (int(k) for k in rng.integers(0, d, size=2))
        if kind == "singular":  # the smallest eigenvalue shifted to about 0, mostly below
            s = s - np.linalg.eigvalsh(s)[0] * np.eye(d) - np.diag(rng.uniform(0.0, 1e-7, size=d))
        elif kind == "near_symmetric":  # within the 1e-8 tolerance
            s[i, j] += 1e-13 * rng.normal()
        elif kind == "asymmetric":  # beyond it, unless on the diagonal
            s[i, j] += rng.normal()
        elif kind == "negative":
            s = -s
        elif kind == "signed_zero":
            j = (i + 1) % d
            s[i, j] = 0.0
            s[j, i] = -0.0 if draw(st.booleans()) else 0.0
            s[i, i] = -0.0 if draw(st.booleans()) else s[i, i]
        elif kind == "huge":  # 2**1023 and up overflow once symmetrised
            with np.errstate(over="ignore"):
                s = s * draw(st.sampled_from([2.0**1022, 2.0**1023, 1e307]))
        elif kind in ("nan", "inf"):
            s[i, j] = np.nan if kind == "nan" else np.inf
            if draw(st.booleans()):
                s[j, i] = s[i, j]
        tau_rg = rng.normal(size=d) * draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
        with np.errstate(all="ignore"):
            ref = reference_verify_cr(CrTuple("u", w, s, tau_rg, 1.0, 0), p).t_res_hat
        # thresholds at and about the reference statistic, and far from it
        thr = draw(st.sampled_from([0.0, 1.0, 10.0 * d, "at", "above", "below"]))
        if isinstance(thr, str):
            thr = 1.0 if ref is None or not np.isfinite(ref) else ref * {"at": 1.0, "above": 1 + 1e-9, "below": 1 - 1e-9}[thr]
        tuples.append(CrTuple("u", w, s, tau_rg, float(thr), draw(st.integers(0, 1))))
    return tuples, p


def _same_statistic(got, ref, rtol):
    if got is None or ref is None:
        return got is ref
    if np.isnan(ref) or np.isinf(ref):
        return repr(got) == repr(ref)
    return abs(got - ref) <= rtol * abs(ref)


class TestVerifyCrStackMatchesReference:
    """One stacked kernel call verifies as the two-call reference did, row by row."""

    @settings(max_examples=600, deadline=None)
    @given(cr_stacks())
    def test_rows_match_reference_and_alone(self, case):
        tuples, p = case
        with np.errstate(all="ignore"):
            refs = [reference_verify_cr(tup, p) for tup in tuples]
            stacked = verify_cr_stack(tuples, p)
            alone = [verify_cr(tup, p) for tup in tuples]
        assert len(stacked) == len(tuples)
        for ref, got, one in zip(refs, stacked, alone):
            assert (encode_record(got), repr(got.t_res_hat)) == (encode_record(one), repr(one.t_res_hat))
            assert got.reason == ref.reason
            assert _same_statistic(got.t_res_hat, ref.t_res_hat, 1e-15)
            assert got.threshold == ref.threshold
            tie = ref.reason is None and abs(ref.t_res_hat - ref.threshold) <= 1e-12 * abs(ref.threshold)
            if not tie:
                assert (got.rho_hat, got.matched) == (ref.rho_hat, ref.matched)

    @pytest.mark.parametrize("s_hat, tau_rg, p", [
        (np.zeros(3), np.zeros(3), 1),  # not a matrix
        (np.zeros((2, 3)), np.zeros(3), 1),  # not square
        (np.eye(3), np.zeros(3), 0),  # count below 1
        (np.eye(3), np.zeros(3), 4),  # count above d
        (np.diag([1.0, -1.0, 1.0]), np.zeros(3), 4),  # the PSD check comes first
        (np.eye(3), np.zeros(2), 3),  # residual too short
        (np.eye(3), np.zeros((3, 1)), 3),  # residual not a vector
        (np.diag([1.0, 0.0, 1.0]), np.ones(3), 3),  # zero eigenvalue retained
        (np.diag([1.0, 0.0, 1.0]), np.ones(3), 2),  # and left out
        ([[1.0, 0.5], [0.5, 2.0]], [1.0, -1.0], 2),  # lists
    ])
    def test_edge_inputs_match_reference(self, s_hat, tau_rg, p):
        tup = CrTuple("u", 0, s_hat, tau_rg, 1.0, 0)
        got, ref = verify_cr(tup, p), reference_verify_cr(tup, p)
        assert (got, repr(got.t_res_hat)) == (ref, repr(ref.t_res_hat))

    def test_unconverged_stack_verifies_row_by_row(self, monkeypatch):
        rng = np.random.default_rng(4)
        tuples = [CrTuple("u", w, random_psd(rng, 3), rng.normal(size=3), 3.0, 0) for w in range(5)]
        tuples = [CrTuple("u", t.w, 0.5 * (t.s_hat + t.s_hat.T), t.tau_rg, 3.0, 0) for t in tuples]
        eigh = np.linalg.eigh

        def no_stacks(a):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", no_stacks)
        assert verify_cr_stack(tuples, 2) == [reference_verify_cr(t, 2) for t in tuples]

    def test_one_failing_row_keeps_the_others(self, monkeypatch):
        # LAPACK refuses this one alone as well: stacked with it, every row failed
        bad = np.array([[1.0, 2.0, np.nan], [2.0, 1.0, 3.0], [np.nan, 3.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(bad)
        good = CrTuple("u", 0, np.diag([3.0, 2.0, 1.0]), np.ones(3), 1.0, 1)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(np.shape(a)) or eigh(a))
        verdicts = verify_cr_stack([good, CrTuple("u", 1, bad, np.ones(3), 1.0, 1), good], 3)
        assert calls == [(3, 3, 3), (3, 3)]  # the stack, bad row zeroed, then that row alone
        monkeypatch.undo()
        assert verdicts[0] == verdicts[2] == verify_cr(good, 3)
        assert verdicts[1].reason == "malformed disclosure: Eigenvalues did not converge"
        assert verdicts[1] == reference_verify_cr(CrTuple("u", 1, bad, np.ones(3), 1.0, 1), 3)


class TestPv:
    def test_scaling_identity(self, rng):
        sess = make_session(rng, mode="pv")
        agg = aggregate_epoch(make_records(rng, 10), w=0, alpha=0.05, p=3)
        res = sess.process_epoch(agg)
        tup = res.tuple_obj
        sigma2 = sess.params.sigma**2
        assert tup.t_res * sigma2 == pytest.approx(res.t_res_scaled * sigma2)
        assert tup.rho == agg.rho

    def test_zero_noise_t_cov_recovers_statistic(self, rng):
        sess = make_session(rng, mode="pv", eps_cov=1e12, sigma=2e-2)
        agg = aggregate_epoch(make_records(rng, 10), w=0, alpha=0.05, p=3)
        res = sess.process_epoch(agg)
        assert res.tuple_obj.t_cov * sess.params.sigma**2 == pytest.approx(
            agg.t_stat, rel=1e-6
        )

    def test_zero_statistic(self):
        v = verify_pv(PvTuple(uid="u", w=0, t_res=0.0, t_cov=1.0, alpha_hat=0.05, rho=0), p=3)
        assert v.rho_hat == 0
        assert v.pvalue == pytest.approx(1.0)

    def test_strict_threshold(self):
        thr = noncentral_chi2_quantile(0.05, 3, 2.0)
        above = verify_pv(
            PvTuple(uid="u", w=0, t_res=thr + 1e-6, t_cov=2.0, alpha_hat=0.05, rho=1), p=3
        )
        below = verify_pv(
            PvTuple(uid="u", w=0, t_res=thr - 1e-6, t_cov=2.0, alpha_hat=0.05, rho=0), p=3
        )
        assert above.rho_hat == 1
        assert below.rho_hat == 0

    def test_bad_alpha_rejected(self):
        v = verify_pv(PvTuple(uid="u", w=0, t_res=1.0, t_cov=1.0, alpha_hat=1.5, rho=0), p=3)
        assert v.rejected

    def test_cr_pv_verdict_agreement(self):
        # same seed, both modes: identical disclosures, verdicts must agree
        agree = 0
        total = 300
        rng_data = np.random.default_rng(77)
        aggs = [
            aggregate_epoch(make_records(rng_data, 10, t0=1 + 10 * w), w=w, alpha=0.05, p=3)
            for w in range(total)
        ]
        cr_sess = make_session(np.random.default_rng(5), mode="cr")
        pv_sess = make_session(np.random.default_rng(5), mode="pv")
        for agg in aggs:
            v_cr = verify_cr(cr_sess.process_epoch(agg).tuple_obj, p=3)
            v_pv = verify_pv(pv_sess.process_epoch(agg).tuple_obj, p=3)
            agree += v_cr.rho_hat == v_pv.rho_hat
        assert agree / total >= 0.99


class TestRegulatorSession:
    def _handshake(self, mode="cr"):
        return Handshake(uid="u0", mode=mode, d=3, epoch_len=10, params=make_params())

    def test_duplicate_epoch_rejected(self, rng):
        sess = RegulatorSession(self._handshake())
        usess = make_session(rng, mode="cr")
        agg = aggregate_epoch(make_records(rng, 10), w=0, alpha=0.05, p=3)
        tup = usess.process_epoch(agg).tuple_obj
        first = sess.verify(tup)
        second = sess.verify(tup)
        assert not first.rejected
        assert second.rejected
        assert "duplicate" in second.reason

    def test_rejection_is_not_a_mismatch(self):
        sess = RegulatorSession(self._handshake())
        tup = CrTuple(uid="u0", w=0, s_hat=np.eye(3), tau_rg=np.ones(3), threshold=100.0, rho=0)
        assert sess.verify(tup).matched
        assert sess.verify(tup).reason == "duplicate epoch index"
        assert sess.verify(dataclasses.replace(tup, w=1, rho=1)).matched is False
        assert (sess.tuples, sess.mismatches, sess.rejections) == (3, 1, 1)

    def test_mode_mismatch_rejected(self):
        sess = RegulatorSession(self._handshake(mode="pv"))
        tup = CrTuple(uid="u0", w=0, s_hat=np.eye(3), tau_rg=np.zeros(3), threshold=1.0, rho=0)
        assert sess.verify(tup).rejected

    @pytest.mark.parametrize(
        "s_hat, tau_rg",
        [
            (np.eye(5), np.ones(5)),  # a well-formed d=5 disclosure
            (np.eye(2), np.ones(2)),
            (np.eye(3), np.ones(4)),
            (np.eye(4)[:3], np.ones(3)),
        ],
    )
    def test_cr_dimension_mismatch_rejected(self, s_hat, tau_rg):
        sess = RegulatorSession(self._handshake())
        bad = CrTuple(uid="u0", w=0, s_hat=s_hat, tau_rg=tau_rg, threshold=100.0, rho=0)
        verdict = sess.verify(bad)
        assert verdict.rejected and not verdict.matched
        assert verdict.reason.startswith("dimension mismatch") and "d=3" in verdict.reason
        # not marked seen: the right-sized tuple for the same epoch is verified
        good = CrTuple(uid="u0", w=0, s_hat=np.eye(3), tau_rg=np.ones(3), threshold=100.0, rho=0)
        assert sess.verify(good) == Verdict(
            uid="u0", w=0, rho_hat=0, matched=True, t_res_hat=3.0, threshold=100.0
        )


class TestRegulatorRefusals:
    """Each refusal of the regulator core: its exact reason, that it answers
    no tuple (w = -1), and that only the refusal is logged."""

    HS = Handshake(uid="u0", mode="cr", d=3, epoch_len=10, params=make_params())
    PV = PvTuple(uid="u0", w=0, t_res=1.0, t_cov=0.5, alpha_hat=0.05, rho=0)

    @staticmethod
    def _refusal(answer, uid, reason):
        session, reply, log = answer
        assert session is None and log == ("TX " + reply,)
        assert reply == (
            f'{{"v":1,"uid":"{uid}","w":-1,"rho_hat":0,"matched":0,"reason":{json.dumps(reason)}}}'
        )

    def _opened(self, regulator, hs=None):
        session, reply, log = regulator.open(encode_record(hs or self.HS).encode())
        assert reply is None and log == ("RX " + encode_record(hs or self.HS),)
        return session

    def test_first_record_must_be_a_handshake(self):
        regulator = Regulator()
        for first in (self.PV, Verdict(uid="u0", w=0, rho_hat=0, matched=True)):
            answer = regulator.open(encode_record(first).encode())
            self._refusal(answer, "?", "first record must be a handshake")
        assert regulator.sessions == {}

    def test_mode_not_allowed(self):
        answer = Regulator("pv").open(encode_record(self.HS))
        self._refusal(answer, "?", "mode 'cr' not allowed by this regulator")

    def test_uid_with_open_session_refused_until_closed(self):
        regulator = Regulator()
        first = self._opened(regulator)
        self._refusal(regulator.open(encode_record(self.HS)), "?", "uid 'u0' already has an open session")
        regulator.close(first)
        assert self._opened(regulator) is not first

    def test_unexpected_verdict_from_client(self):
        regulator = Regulator()
        session = self._opened(regulator)
        line = encode_record(Verdict(uid="u0", w=0, rho_hat=1, matched=True))
        after, reply, log = regulator.answer(session, line.encode())
        assert after is session and regulator.sessions == {"u0": session}
        assert reply == '{"v":1,"uid":"u0","w":-1,"rho_hat":0,"matched":0,"reason":"unexpected verdict from client"}'
        assert log == ("RX " + line, "TX " + reply)

    @pytest.mark.parametrize("reason", ["duplicate handshake", "uid mismatch"])
    def test_line_that_ends_the_session(self, reason):
        regulator = Regulator()
        session = self._opened(regulator)
        line = self.HS if reason == "duplicate handshake" else dataclasses.replace(self.PV, uid="u1")
        self._refusal(regulator.answer(session, encode_record(line).encode()), "u0", reason)
        assert regulator.sessions == {}

    def test_close_of_an_ended_session_keeps_the_new_one(self):
        regulator = Regulator()
        old = self._opened(regulator)
        regulator.refuse(old, "record longer than 65536 bytes")
        new = self._opened(regulator)
        regulator.close(old)  # the ended connection is closed after the uid reconnected
        assert regulator.sessions == {"u0": new}

    def test_replay_files_a_tuple_under_its_uids_session(self):
        regulator = Regulator()
        with pytest.raises(ProtocolError, match="tuple for unknown session 'u0'"):
            regulator.file(self.PV)
        assert regulator.file(self.HS) is None
        session = regulator.sessions["u0"]
        assert regulator.file(self.PV) is session
        assert regulator.file(Verdict(uid="u0", w=0, rho_hat=0, matched=True)) is None


class TestRegulatorDuplicateTracking:
    """Accept/reject decisions of the range-plus-set tracker match a plain set."""

    @staticmethod
    def _session():
        hs = Handshake(uid="u0", mode="pv", d=3, epoch_len=10, params=make_params())
        return RegulatorSession(hs)

    @staticmethod
    def _pv(w, alpha_hat=0.05):
        return PvTuple(uid="u0", w=w, t_res=1.0, t_cov=0.5, alpha_hat=alpha_hat, rho=0)

    def _reasons(self, sess, ws):
        return [sess.verify(self._pv(w)).reason for w in ws]

    def test_in_order_keeps_constant_state(self):
        sess = self._session()
        assert self._reasons(sess, range(5, 505)) == [None] * 500
        assert (sess._first, sess._next, sess._out_of_order) == (5, 505, set())

    def test_gap_then_fill(self):
        sess = self._session()
        assert self._reasons(sess, [0, 1, 4, 5, 2, 3, 6]) == [None] * 7
        assert (sess._first, sess._next, sess._out_of_order) == (0, 7, set())

    def test_duplicate_inside_range(self):
        sess = self._session()
        self._reasons(sess, range(10))
        assert self._reasons(sess, [0, 4, 9]) == ["duplicate epoch index"] * 3
        assert self._reasons(sess, [10]) == [None]

    def test_duplicate_of_out_of_order_index(self):
        sess = self._session()
        assert self._reasons(sess, [0, 1, 7]) == [None] * 3
        assert self._reasons(sess, [7]) == ["duplicate epoch index"]
        assert sess._out_of_order == {7}

    def test_index_below_first(self):
        # never seen, so accepted once, then a duplicate like any other index
        sess = self._session()
        self._reasons(sess, [10, 11])
        assert self._reasons(sess, [3, 3]) == [None, "duplicate epoch index"]
        assert self._reasons(sess, [10]) == ["duplicate epoch index"]

    def test_rejected_tuple_does_not_mark_seen(self):
        sess = self._session()
        assert sess.verify(self._pv(0, alpha_hat=1.5)).rejected
        assert self._reasons(sess, [0, 0]) == [None, "duplicate epoch index"]
        assert sess.verify(self._pv(2, alpha_hat=0.0)).rejected
        assert self._reasons(sess, [1, 2]) == [None, None]
        assert (sess._first, sess._next, sess._out_of_order) == (0, 3, set())

    def test_out_of_order_backlog_capped(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_OUT_OF_ORDER", 3)
        sess = self._session()
        assert self._reasons(sess, [0, 2, 4, 6]) == [None] * 4
        assert sess._out_of_order == {2, 4, 6}
        full = "out-of-order backlog full: 3 epochs"
        assert self._reasons(sess, [8, 9, 8]) == [full] * 3
        # duplicates are still named as such, and the in-order index is accepted
        assert self._reasons(sess, [4, 1]) == ["duplicate epoch index", None]
        assert (sess._next, sess._out_of_order) == (3, {4, 6})
        assert self._reasons(sess, [8, 9]) == [None, full]
        assert self._reasons(sess, [3, 5, 7, 9]) == [None] * 4
        assert (sess._first, sess._next, sess._out_of_order) == (0, 10, set())

    def test_strided_stream_state_bounded(self):
        sess = self._session()
        reasons = self._reasons(sess, range(0, 4 * 2000, 4))
        cap = protocol.MAX_OUT_OF_ORDER
        assert reasons[: cap + 1] == [None] * (cap + 1)
        assert set(reasons[cap + 1 :]) == {f"out-of-order backlog full: {cap} epochs"}
        assert len(sess._out_of_order) == cap

    def test_matches_plain_set(self, rng):
        sess, seen = self._session(), set()
        for w in rng.integers(0, 60, 400):
            w = int(w)
            reason = sess.verify(self._pv(w)).reason
            assert (reason == "duplicate epoch index") == (w in seen)
            seen.add(w)


class TestWireFormat:
    def _random_cr(self, rng):
        d = int(rng.integers(1, 6))
        s = random_psd(rng, d, (0.1, 5.0))
        return CrTuple(
            uid=f"u{rng.integers(100)}", w=int(rng.integers(10_000)),
            s_hat=s, tau_rg=rng.normal(size=d) * 100,
            threshold=float(np.abs(rng.normal()) * 1e3 + 1e-3), rho=int(rng.integers(2)),
        )

    def _random_pv(self, rng):
        return PvTuple(
            uid=f"u{rng.integers(100)}", w=int(rng.integers(10_000)),
            t_res=float(np.abs(rng.normal()) * 50),
            t_cov=float(np.abs(rng.normal()) * 50),
            alpha_hat=float(rng.uniform(1e-9, 1 - 1e-9)), rho=int(rng.integers(2)),
        )

    def test_roundtrip_random_tuples(self, rng):
        for _ in range(2000):
            tup = self._random_cr(rng) if rng.random() < 0.5 else self._random_pv(rng)
            back = decode_record(encode_record(tup))
            if isinstance(tup, CrTuple):
                assert isinstance(back, CrTuple)
                assert np.array_equal(back.s_hat, tup.s_hat)
                assert np.array_equal(back.tau_rg, tup.tau_rg)
                assert back.threshold == tup.threshold
            else:
                assert back == tup

    def test_verdict_roundtrip(self):
        v = Verdict(uid="u1", w=3, rho_hat=1, matched=False, pvalue=0.125)
        back = decode_record(encode_record(v))
        assert back.uid == "u1" and back.w == 3 and back.rho_hat == 1
        assert back.matched is False and back.pvalue == 0.125

    def test_handshake_roundtrip(self):
        hs = Handshake(uid="a", mode="pv", d=3, epoch_len=10, params=make_params(p=2))
        back = decode_record(encode_record(hs))
        assert back.uid == "a" and back.mode == "pv" and back.params.p == 2
        assert back.params.to_flat() == hs.params.to_flat()

    def test_truncated_rejected(self, rng):
        line = encode_record(self._random_cr(rng))
        for cut in (1, len(line) // 2, len(line) - 1):
            with pytest.raises(ProtocolError):
                decode_record(line[:cut])

    def test_unknown_field_ignored(self):
        line = encode_record(PvTuple(uid="u", w=0, t_res=1.0, t_cov=2.0, alpha_hat=0.1, rho=0))
        patched = line[:-1] + ',"future_field":42}'
        back = decode_record(patched)
        assert back.t_res == 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ProtocolError, match="non-finite"):
            decode_record('{"v":1,"mode":"pv","uid":"u","w":0,"t_res":NaN,"t_cov":1,"alpha_hat":0.1,"rho":0}')
        with pytest.raises(ProtocolError):
            encode_record(
                PvTuple(uid="u", w=0, t_res=float("inf"), t_cov=1.0, alpha_hat=0.1, rho=0)
            )

    def test_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            decode_record('{"v":2,"mode":"pv","uid":"u","w":0,"t_res":1,"t_cov":1,"alpha_hat":0.1,"rho":0}')

    def test_missing_field_path(self):
        with pytest.raises(ProtocolError, match="t_cov"):
            decode_record('{"v":1,"mode":"pv","uid":"u","w":0,"t_res":1,"alpha_hat":0.1,"rho":0}')

    def test_bad_matrix_shape(self):
        with pytest.raises(ProtocolError, match="square"):
            decode_record('{"v":1,"mode":"cr","uid":"u","w":0,"s_hat":[1,2,3],"tau_rg":[1],"thr":1,"rho":0}')

    def test_seventeen_digit_floats(self):
        val = 0.1 + 0.2  # classic non-representable sum
        tup = PvTuple(uid="u", w=0, t_res=val, t_cov=1.0, alpha_hat=0.5, rho=0)
        line = encode_record(tup)
        assert "0.30000000000000004" in line
        assert decode_record(line).t_res == val


class TestDecoderHardening:
    """Only ProtocolError leaves decode_record, with the field path."""

    BIG = "1" + "0" * 400  # an integer literal beyond float range

    def _handshake_line(self):
        hs = Handshake(uid="u", mode="pv", d=3, epoch_len=10, params=make_params())
        return encode_record(hs)

    def test_overflow_scalar_field(self):
        line = '{"v":1,"mode":"pv","uid":"u","w":0,"t_res":%s,"t_cov":1,"alpha_hat":0.1,"rho":0}'
        with pytest.raises(ProtocolError, match=r"pv\.t_res: number out of float range"):
            decode_record(line % self.BIG)
        verdict = '{"v":1,"uid":"u","w":0,"rho_hat":0,"matched":1,"pvalue":%s}'
        with pytest.raises(ProtocolError, match=r"verdict\.pvalue"):
            decode_record(verdict % self.BIG)

    def test_overflow_array_element(self):
        line = '{"v":1,"mode":"cr","uid":"u","w":0,"s_hat":[1,%s,0,1],"tau_rg":[1,1],"thr":1,"rho":0}'
        with pytest.raises(ProtocolError, match=r"cr\.s_hat\[1\]"):
            decode_record(line % self.BIG)

    def test_overflow_handshake_params(self):
        line = self._handshake_line()
        with pytest.raises(ProtocolError, match=r"handshake\.params"):
            decode_record(line.replace('"eps_cov":100', '"eps_cov":' + self.BIG))
        with pytest.raises(ProtocolError, match=r"handshake\.params"):
            decode_record(line.replace('"p":3,"sigma"', '"p":1e400,"sigma"'))

    def test_nonfinite_handshake_params(self):
        # a string is not a wire number, whatever float() would make of it
        line = self._handshake_line()
        obj = json.loads(line)
        obj["params"]["sigma"] = "nan"
        with pytest.raises(ProtocolError, match=r"handshake\.params\.sigma: expected number, got str"):
            decode_record(json.dumps(obj))
        with pytest.raises(ProtocolError, match=r"handshake\.params\.eps_r: expected number, got str"):
            decode_record(line.replace('"eps_r":0.5', '"eps_r":"inf"'))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("p", 3.7, "expected integer, got float"),
            ("p", True, "expected integer, got bool"),
            ("sigma", "2e5", "expected number, got str"),
            ("eps_cov", "100", "expected number, got str"),
            ("eps_r", None, "missing field"),
        ],
    )
    def test_handshake_params_typed_like_wire_numbers(self, key, value, message):
        # each of these was once read through float()/int() and logged re-encoded
        obj = json.loads(self._handshake_line())
        if value is None:
            del obj["params"][key]
        else:
            obj["params"][key] = value
        if key == "p":
            obj["p"] = int(value)  # a top-level p that agrees with what int() made of it
        with pytest.raises(ProtocolError, match=rf"^handshake\.params\.{key}: {message}$"):
            decode_record(json.dumps(obj))

    def test_handshake_without_sigma_declares_its_minimum(self):
        obj = json.loads(self._handshake_line())
        del obj["params"]["sigma"]
        params = decode_record(json.dumps(obj)).params
        assert params.sigma == params.sigma_min
        assert params.eps_r_waiver

    @pytest.mark.parametrize("eps_r", [1e-320, 1e-308])
    def test_handshake_derived_sigma_overflow_refused(self, eps_r):
        # delta_r / eps_r overflows (1e-320), or its product with the
        # sqrt-log factor does (1e-308): the sigma_min this declares is inf
        obj = json.loads(self._handshake_line())
        obj["params"]["eps_r"] = eps_r
        del obj["params"]["sigma"]
        with pytest.raises(ProtocolError, match=r"^handshake\.params\.sigma: non-finite number$"):
            decode_record(json.dumps(obj))

    def test_handshake_p_must_match_params_p(self):
        line = self._handshake_line()
        assert '"d":3,"p":3,' in line and '"p":3,"sigma"' in line
        with pytest.raises(ProtocolError, match=r"handshake\.p: 1 differs from params\.p=3"):
            decode_record(line.replace('"d":3,"p":3,', '"d":3,"p":1,'))
        with pytest.raises(ProtocolError, match=r"handshake\.p: 3 differs from params\.p=2"):
            decode_record(line.replace('"p":3,"sigma"', '"p":2,"sigma"'))

    def test_deep_nesting(self):
        for line in ("[" * 5000, '{"v":1,"mode":"cr","s_hat":' + "[" * 5000):
            with pytest.raises(ProtocolError, match="malformed record"):
                decode_record(line)
            with pytest.raises(ProtocolError, match="malformed record"):
                decode_record(line.encode())

    def test_integer_literal_too_long_to_convert(self):
        with pytest.raises(ProtocolError, match="malformed record"):
            decode_record('{"v":1' + "0" * 5000 + "}")


class TestVerifyPvOutOfRange:
    def test_noncentrality_beyond_ufunc_range_is_rejected(self):
        # chndtrix gives NaN at this noncentrality; verification must not raise
        for t_cov in (1e12, 1e300):
            tup = PvTuple(uid="u", w=0, t_res=1.0, t_cov=t_cov, alpha_hat=0.05, rho=0)
            v = verify_pv(tup, 3)
            assert v.rejected and "malformed disclosure" in v.reason

    def test_dof_beyond_float_range_is_rejected(self):
        tup = PvTuple(uid="u", w=0, t_res=1.0, t_cov=0.0, alpha_hat=0.05, rho=0)
        assert verify_pv(tup, 10**400).rejected


class TestCachedTrackerEquivalence:
    """process_epoch gives the same wire bytes with the window-scan tracker."""

    N_EPOCHS = 400

    @pytest.fixture(scope="class")
    def aggs(self):
        sc = default_scenario()
        records = residual_stream(sc, self.N_EPOCHS * sc.epoch_len, seed=21)
        return epoch_stream(records, sc)

    def _wire_lines(self, aggs, mode, monkeypatch):
        inversions = []
        inner = protocol.equivalent_alpha

        def counting(*args, **kw):
            inversions.append(1)
            return inner(*args, **kw)

        monkeypatch.setattr(protocol, "equivalent_alpha", counting)
        sc = default_scenario()
        session = UtilitySession(
            uid="u0", mode=mode, params=reference_params(), d=sc.plant.d, alpha=sc.alpha,
            rng=np.random.default_rng(derive_seed(21, 0, 1)), epoch_len=sc.epoch_len,
        )
        regulator = RegulatorSession(session.handshake())
        lines = []
        for agg in aggs:
            res = session.process_epoch(agg)
            lines.append(encode_record(res.tuple_obj))
            lines.append(encode_record(regulator.verify(res.tuple_obj)))
            lines.append(repr((res.alpha_hat, res.threshold, res.rho_hat_local)))
        return lines, len(inversions)

    @pytest.mark.parametrize("mode", ["pv", "cr"])
    def test_wire_lines_identical(self, aggs, mode, monkeypatch):
        cached, n_cached = self._wire_lines(aggs, mode, monkeypatch)
        monkeypatch.setattr(protocol, "NormTracker", ScanNormTracker)
        scanned, n_scanned = self._wire_lines(aggs, mode, monkeypatch)
        assert len(cached) == 3 * self.N_EPOCHS
        assert n_cached == n_scanned >= 4  # several alpha_hat re-inversions
        assert cached == scanned


WIRE_INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans())
WIRE_FLOATS = st.one_of(  # NaN and infinities included: both encoders must refuse them alike
    st.floats(width=64), st.floats(width=64).map(np.float64), st.floats(width=32).map(np.float32)
)
WIRE_TEXT = st.text(max_size=12)


@st.composite
def privacy_params(draw):
    unit = st.floats(1e-6, 0.999)
    positive = st.floats(1e-3, 1e3)
    try:
        return PrivacyParams(
            eps_cov=draw(positive), eps_r=draw(positive), gamma_cov=draw(unit), gamma_r=draw(unit),
            delta_l=draw(positive), delta_r=draw(positive),
            p=draw(st.one_of(st.integers(1, 4), st.integers(1, 4).map(np.int64))),
            eps_r_waiver=True,
        )
    except ValueError:
        assume(False)


@st.composite
def wire_records(draw):
    kind = draw(st.sampled_from(["handshake", "cr", "pv", "verdict"]))
    uid, w = draw(WIRE_TEXT), draw(WIRE_INTS)
    if kind == "handshake":
        return Handshake(
            uid=uid, mode=draw(st.sampled_from(["cr", "pv"])), d=draw(WIRE_INTS),
            epoch_len=draw(WIRE_INTS), params=draw(privacy_params()),
        )
    if kind == "cr":
        d = draw(st.integers(1, 4))
        return CrTuple(
            uid=uid, w=w,
            s_hat=np.array(draw(st.lists(WIRE_FLOATS, min_size=d * d, max_size=d * d))).reshape(d, d),
            tau_rg=np.array(draw(st.lists(WIRE_FLOATS, min_size=d, max_size=d))),
            threshold=draw(WIRE_FLOATS), rho=draw(WIRE_INTS),
        )
    if kind == "pv":
        return PvTuple(
            uid=uid, w=w, t_res=draw(WIRE_FLOATS), t_cov=draw(WIRE_FLOATS),
            alpha_hat=draw(WIRE_FLOATS), rho=draw(WIRE_INTS),
        )
    return Verdict(
        uid=uid, w=w, rho_hat=draw(WIRE_INTS), matched=draw(st.booleans()),
        pvalue=draw(st.one_of(st.none(), WIRE_FLOATS)), reason=draw(st.one_of(st.none(), WIRE_TEXT)),
    )


def _encoded(encode, obj):
    try:
        return ("ok", encode(obj))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raised", type(exc), str(exc))


class TestEncoderMatchesReference:
    """One formatter per record type writes the generic emitter's bytes."""

    @settings(max_examples=1500, deadline=None)
    @given(wire_records())
    def test_same_bytes_or_same_error(self, rec):
        assert _encoded(encode_record, rec) == _encoded(reference_encode_record, rec)

    def test_unknown_type_refused_alike(self):
        for obj in (None, {"v": 1}, make_params()):
            assert _encoded(encode_record, obj) == _encoded(reference_encode_record, obj)


class TestLeanKernelsEquivalence:
    """Aggregation, disclosure, verification and encoding give the same wire
    lines and per-epoch numbers on the numpy reference kernels."""

    N_EPOCHS = 400

    @pytest.fixture(scope="class")
    def records(self):
        sc = default_scenario()
        return residual_stream(sc, self.N_EPOCHS * sc.epoch_len, seed=23)

    def _lines(self, records, mode, encode):
        sc = default_scenario()
        session = UtilitySession(
            uid="u0", mode=mode, params=reference_params(), d=sc.plant.d, alpha=sc.alpha,
            rng=np.random.default_rng(derive_seed(23, 0, 1)), epoch_len=sc.epoch_len,
        )
        regulator = RegulatorSession(session.handshake())
        lines = [encode(session.handshake())]
        for agg in epoch_stream(records, sc):
            res = session.process_epoch(agg)
            verdict = regulator.verify(res.tuple_obj)
            lines.append(encode(res.tuple_obj))
            lines.append(encode(verdict))
            lines.append(repr((agg.t_stat, agg.rho, res.alpha_hat, res.threshold,
                               res.rho_hat_local, verdict.t_res_hat)))
        return lines

    @pytest.mark.parametrize("mode", ["pv", "cr"])
    def test_wire_lines_identical(self, records, mode, monkeypatch):
        lean = self._lines(records, mode, encode_record)
        for module in (protocol, privacy):
            monkeypatch.setattr(module, "eig_factorize", reference_eig_factorize)
            monkeypatch.setattr(module, "whiten", reference_whiten)
        reference = self._lines(records, mode, reference_encode_record)
        assert len(lean) == 1 + 3 * self.N_EPOCHS
        assert lean == reference


class TestItpMatchesBisection:
    """The ITP inversion gives the bisection's verdicts, and its tuples to rounding."""

    N_EPOCHS = 400

    @pytest.fixture(scope="class")
    def aggs(self):
        sc = default_scenario()
        records = residual_stream(sc, self.N_EPOCHS * sc.epoch_len, seed=22)
        return epoch_stream(records, sc)

    def _wire_lines(self, aggs, mode):
        sc = default_scenario()
        session = UtilitySession(
            uid="u0", mode=mode, params=reference_params(), d=sc.plant.d, alpha=sc.alpha,
            rng=np.random.default_rng(derive_seed(22, 0, 1)), epoch_len=sc.epoch_len,
        )
        regulator = RegulatorSession(session.handshake())
        tuples, verdicts = [], []
        for agg in aggs:
            res = session.process_epoch(agg)
            tuples.append(encode_record(res.tuple_obj))
            verdicts.append(encode_record(regulator.verify(res.tuple_obj)))
        return tuples, verdicts

    @pytest.mark.parametrize("mode", ["pv", "cr"])
    def test_verdicts_identical(self, aggs, mode, monkeypatch):
        itp_tuples, itp_verdicts = self._wire_lines(aggs, mode)
        searches = []

        def bisection(*args):
            searches.append(1)
            return bisect_invert(*args)

        monkeypatch.setattr(bounds, "_itp_invert", bisection)
        bis_tuples, bis_verdicts = self._wire_lines(aggs, mode)
        assert len(searches) >= 4  # several alpha_hat re-inversions searched
        assert itp_verdicts == bis_verdicts
        key = "alpha_hat" if mode == "pv" else "thr"
        for itp, bis in zip(itp_tuples, bis_tuples, strict=True):
            itp, bis = json.loads(itp), json.loads(bis)
            itp_value, bis_value = itp.pop(key), bis.pop(key)
            assert itp == bis
            assert abs(itp_value - bis_value) <= 1e-11 * abs(bis_value)
