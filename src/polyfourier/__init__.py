"""Azimuthal Fourier expansions of power-law and logarithmic fundamental
solutions of the polyharmonic equation on even-dimensional space."""

from .errors import ConvergenceError
from .greens import (
    Geometry,
    SolutionParams,
    axisym_component,
    greens_eval,
    hii_expansion,
    li_direct,
    li_expansion,
    li_truncation,
)
from .legendre import legendre_deg_deriv, legendre_p
from .logpoly import LogPolynomial, logpoly_recurrence
from .scalars import beta_pd, eta_from_chi, harmonic
from .series_algebraic import log_series_algebraic
from .series_limit import inverse_power_series, log_series_limit, power_series
from .tables import FourierCoeffTable, default_nmax
# the suite, the oracle, the verify_* checks and the reference constructions
# stay importable, outside __all__
from .validation import (
    legendre_p_nu,
    logpoly_difference_algorithm,
    logpoly_from_genfun,
    quad_fourier_coeff,
    run_validation_suite,
    verify_identity_mid,
    verify_identity_n0,
    verify_identity_np,
    verify_identity_tail,
    verify_re_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "FourierCoeffTable",
    "Geometry",
    "LogPolynomial",
    "SolutionParams",
    "axisym_component",
    "beta_pd",
    "default_nmax",
    "eta_from_chi",
    "greens_eval",
    "harmonic",
    "hii_expansion",
    "inverse_power_series",
    "legendre_deg_deriv",
    "legendre_p",
    "li_direct",
    "li_expansion",
    "li_truncation",
    "log_series_algebraic",
    "log_series_limit",
    "logpoly_recurrence",
    "power_series",
]
