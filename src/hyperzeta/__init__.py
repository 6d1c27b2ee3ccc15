"""High-precision Barnes multiple zeta values, hypermultiple gamma
functions, their balanced variants, and numerical verification of the
asymptotic expansions they satisfy."""

from .asymptotics import (
    AsymExperiment,
    AsymRow,
    ReductionCheck,
    default_experiment,
    fit_one_over_w,
    remainder_reduction_check,
    run_experiment,
)
from .errors import (
    ConvergenceTooSlow,
    DivisionByZeroSeries,
    DomainError,
    FitUnstable,
    HyperzetaError,
    InvalidParameter,
    NodeBudgetExceeded,
    PolesTooClose,
    PrecisionUnreachable,
    TooCloseToInteger,
)
from .evaluators import (
    EvalResult,
    balanced_P,
    log_hyper_gamma,
    p0_closed_form,
    zeta_contour,
    zeta_direct,
)
from .hankel import IntegrandSpec, auto_spec, hankel_integrate
from .multibernoulli import (
    OmegaVector,
    bernoulli_a,
    bernoulli_a_exact,
    bernoulli_expansion,
)
from .precision import DEFAULT_BITS, DEFAULT_POLICY, PrecisionPolicy
from .qpoly import PolyC, q_poly, s_poly
from .series import LaurentSeries

__version__ = "1.0.0"

__all__ = [
    "AsymExperiment",
    "AsymRow",
    "ConvergenceTooSlow",
    "DEFAULT_BITS",
    "DEFAULT_POLICY",
    "DivisionByZeroSeries",
    "DomainError",
    "EvalResult",
    "FitUnstable",
    "HyperzetaError",
    "IntegrandSpec",
    "InvalidParameter",
    "LaurentSeries",
    "NodeBudgetExceeded",
    "OmegaVector",
    "PolesTooClose",
    "PolyC",
    "PrecisionPolicy",
    "PrecisionUnreachable",
    "ReductionCheck",
    "TooCloseToInteger",
    "auto_spec",
    "balanced_P",
    "bernoulli_a",
    "bernoulli_a_exact",
    "bernoulli_expansion",
    "default_experiment",
    "fit_one_over_w",
    "hankel_integrate",
    "log_hyper_gamma",
    "p0_closed_form",
    "q_poly",
    "remainder_reduction_check",
    "run_experiment",
    "s_poly",
    "zeta_contour",
    "zeta_direct",
]
