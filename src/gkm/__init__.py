"""Generalized Kesten-McKay distributions and their closed-form apparatus."""

from .chebyshev import USeries, eval_U, eval_U_signed, gauss_chebU_rule
from .conjugate import (
    A2k_closed,
    ConjParamSet,
    chapman_residual,
    conditional_bridge,
    f2M,
    fM_density,
    g3,
    poisson_mehler,
    transition_density,
    w3_eval,
    w_eval,
    wigner_density,
)
from .core import (
    A_closed,
    A_special,
    B_coeff,
    B_from_genfun,
    BSeq,
    ParamSet,
    Q_poly,
    density,
    density_classical_km,
    density_series,
    inner_UU,
    moment,
    residual_an2,
    residual_id,
    residual_id2,
)
from .oracle import IntegrationResult, integrate_2d, integrate_3d, integrate_weighted, normalizer_numeric
from .orthopoly import OrthoPoly, P_coeffs, P_recur_check, gram
from .sampler import CdfTable, build_cdf, ks_statistic, sample
from .symfun import elementary_all

__version__ = "0.1.0"
