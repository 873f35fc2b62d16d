"""Privacy-preserving disclosure and verification of ICS attack alarms.

Pipeline: a nonlinear plant produces sensor traces; an extended Kalman filter
turns them into residual streams; epochs of residuals feed a chi-square alarm
test; disclosures of the residual covariance and whitened residuals go out
under a two-phase differential-privacy scheme; and a regulator independently
verifies the alarms in critical-region or p-value mode. Calculators for every
privacy and misclassification bound of the scheme live in ``bounds``.
"""

from .bounds import (
    AlphaInversion,
    BoundInputs,
    BoundReport,
    NormTracker,
    cov_gap_bound,
    cr_privacy_loss,
    equivalent_alpha,
    misclassification_bounds,
    residual_gap_interval,
    statistic_privacy_profile,
    type1_upper_bound,
)
from .ekf import (
    EkfBelief,
    FilterError,
    ResidualRecord,
    jacobian,
    predict,
    run_filter,
    update,
)
from .plant import (
    AttackSpec,
    PlantSpec,
    SimulationFault,
    default_spec,
    generate_trace,
    inject_attack,
)
from .privacy import (
    Disclosure,
    PerturbedCovariance,
    PrivacyParams,
    gaussian_sum_bound,
    gdp_perturb,
    gdp_sigma,
    laplace_max_bound,
    perturb_covariance,
    sequential_disclose,
)
from .protocol import (
    CrTuple,
    EpochAggregate,
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
from .stats import (
    CovFactorization,
    TestOutcome,
    chi2_test,
    eig_factorize,
    laplace_sample,
    noncentral_chi2_cdf,
    noncentral_chi2_quantile,
    whiten,
    whitened_energies,
)

__version__ = "0.1.0"
