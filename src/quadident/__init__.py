"""quadident: numerical special functions plus an identity-verification harness.

The library evaluates polylogarithms on the closed unit disc, the alternating
incomplete beta series, exact harmonic/Stirling/Lah combinatorics and the
coefficients of integer arctangent powers; integrates with tanh-sinh and
exp-sinh quadrature robust to endpoint singularities; accelerates slowly convergent
alternating series with the Cohen-Rodriguez Villegas-Zagier weighted sum; and
verifies a registry of classical integral/series identities over parameter
grids, reporting machine-readable results.
"""

__version__ = "0.1.0"

from .combinatorics import (
    RationalPowerSeries,
    arctan_power_coeff,
    arctan_series,
    lah,
    odd_harmonic,
    series_pow,
    skew_harmonic,
    stirling_first,
)
from .ledger import (
    Report,
    VerificationOutcome,
    render_report,
    verify,
    verify_all,
)
from .numerics import CONSTANTS, DEFAULT_TOL, Tolerance
from .quadrature import (
    IntegrandSpec,
    QuadratureError,
    QuadratureResult,
    integrate_semi_infinite,
    integrate_unit,
)
from .registry import IdentityCase, lookup, registry
from .series import (
    SummationResult,
    TermGenerator,
    sum_alternating_accelerated,
    sum_direct,
    sum_eq8,
)
from .specfun import (
    dilog_identity_rhs,
    eq19_rhs,
    incomplete_beta,
    polylog_complex,
    polylog_real,
    ramanujan_rhs,
    zeta,
)

__all__ = [
    "CONSTANTS",
    "DEFAULT_TOL",
    "IdentityCase",
    "IntegrandSpec",
    "QuadratureError",
    "QuadratureResult",
    "RationalPowerSeries",
    "Report",
    "SummationResult",
    "TermGenerator",
    "Tolerance",
    "VerificationOutcome",
    "arctan_power_coeff",
    "arctan_series",
    "dilog_identity_rhs",
    "eq19_rhs",
    "incomplete_beta",
    "integrate_semi_infinite",
    "integrate_unit",
    "lah",
    "lookup",
    "odd_harmonic",
    "polylog_complex",
    "polylog_real",
    "ramanujan_rhs",
    "registry",
    "render_report",
    "series_pow",
    "skew_harmonic",
    "stirling_first",
    "sum_alternating_accelerated",
    "sum_direct",
    "sum_eq8",
    "verify",
    "verify_all",
    "zeta",
]
