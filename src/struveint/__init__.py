"""Generalized Struve, Fox-Wright and Srivastava-Daoust series, plus
numerical certification of the semi-infinite integral identities that
tie them together.
"""

from .errors import (
    CaseParseError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    GammaPoleError,
    RangeError,
    StruveintError,
)
from .gammafn import gamma, log_gamma
from .identities import (
    THEOREM1,
    THEOREM2,
    IntegralCase,
    VerificationReport,
    lhs_integrand,
    prefactor_theorem1,
    prefactor_theorem2,
    rhs_corollary,
    rhs_spec_theorem1,
    rhs_spec_theorem2,
    struve_arguments,
    verify_case,
)
from .lauricella import (
    LauricellaResult,
    LauricellaSpec,
    lauricella_eval,
    lauricella_eval_full,
)
from .quadrature import (
    QuadControl,
    QuadResult,
    integrate_kernel,
    kernel_factor,
    oberhettinger_closed_form,
)
from .series import (
    FoxWrightSpec,
    SeriesControl,
    SeriesResult,
    StruveParams,
    fox_wright,
    fox_wright_full,
    pfq,
    pfq_full,
    struve_w,
    struve_w_derivative,
    struve_w_derivative_full,
    struve_w_full,
)

__version__ = "0.1.0"

__all__ = [
    "CaseParseError",
    "ConvergenceError",
    "DivergenceError",
    "DomainError",
    "FoxWrightSpec",
    "GammaPoleError",
    "IntegralCase",
    "LauricellaResult",
    "LauricellaSpec",
    "QuadControl",
    "QuadResult",
    "RangeError",
    "SeriesControl",
    "SeriesResult",
    "StruveintError",
    "StruveParams",
    "THEOREM1",
    "THEOREM2",
    "VerificationReport",
    "fox_wright",
    "fox_wright_full",
    "gamma",
    "integrate_kernel",
    "kernel_factor",
    "lauricella_eval",
    "lauricella_eval_full",
    "lhs_integrand",
    "log_gamma",
    "oberhettinger_closed_form",
    "pfq",
    "pfq_full",
    "prefactor_theorem1",
    "prefactor_theorem2",
    "rhs_corollary",
    "rhs_spec_theorem1",
    "rhs_spec_theorem2",
    "struve_arguments",
    "struve_w",
    "struve_w_derivative",
    "struve_w_derivative_full",
    "struve_w_full",
    "verify_case",
    "__version__",
]
