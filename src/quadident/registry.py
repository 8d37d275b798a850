"""The identity registry: every verified equation as an LHS/RHS evaluator pair.

Each case couples two independently computed sides: a tanh-sinh quadrature, a
series summation (direct or CVZ-accelerated), or a closed form built from
polylogarithms and the constants table. Removable-singularity handling and
endpoint registration are owned here: integrands singular at 1 state their
stable form ``f_right`` in the distance to 1, and grid endpoints appear only as
registered extra points (with value overrides where the closed form
degenerates to 0 * inf at the limit).

Identity ids (E1, E2, E4, ..., E23) are stable strings used by the CLI and
the report schema; ``source`` labels where each identity is classically
stated or tabulated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np

from .combinatorics import (
    arctan_power_coeff,
    leibniz_partial_float,
    odd_harmonic_float,
    skew_harmonic_float,
)
from .numerics import CONSTANTS, Rows, Tolerance, fsum_rows
from .quadrature import IntegrandSpec, integrate_semi_infinite, integrate_unit
from .series import (
    ALTERNATING,
    POSITIVE,
    TermGenerator,
    sum_alternating_accelerated,
    sum_direct,
    sum_eq8,
)
from .specfun import (
    dilog_identity_rhs,
    eq19_rhs,
    incomplete_beta,
    polylog_real,
    ramanujan_rhs,
)

_PI = CONSTANTS.pi
_LOG2 = CONSTANTS.log2
_Z2 = CONSTANTS.zeta2
_Z3 = CONSTANTS.zeta3
_G = CONSTANTS.catalan

# series are accelerated instead of summed directly above this parameter
_ACCEL_THRESHOLD = 0.98

TOL_STRICT = Tolerance(1e-10, 1e-10)
TOL_MEDIUM = Tolerance(1e-9, 1e-9)
TOL_COARSE = Tolerance(1e-8, 1e-8)
TOL_SLOW_SERIES = Tolerance(1e-7, 0.0)  # absolute-only, for the pi-power series


@dataclass(frozen=True)
class EvalOutcome:
    value: float | complex
    evals: int = 0
    terms: int = 0
    converged: bool = True


@dataclass(frozen=True)
class Evaluator:
    """One side of an identity. ``rows(fixed, name, values, tol)`` evaluates
    the points ``fixed | {name: v}`` for every v in ``values`` in one batched
    call and returns their outcomes in order; the builders receive the values
    as a ``(rows, 1)`` column. With ``name`` None, each value (None) stands
    for the point ``fixed`` itself, whose parameters reach the builders as
    scalars."""

    describe: str
    rows: Callable[[dict, Optional[str], list, Tolerance], list[EvalOutcome]]

    def fn(self, params: dict, tol: Tolerance) -> EvalOutcome:
        """One point: the one-value call of ``rows``."""
        [out] = self.rows(params, None, [None], tol)
        return out


@dataclass(frozen=True)
class GridAxis:
    """Continuous parameter on an open interval; the grid stays strictly inside."""

    name: str
    lo: float
    hi: float

    def points(self, n: int) -> list[float]:
        step = (self.hi - self.lo) / (n + 1)
        return [self.lo + i * step for i in range(1, n + 1)]


@dataclass(frozen=True)
class DiscreteAxis:
    name: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class ExtraPoint:
    """A registered endpoint/limit evaluation.

    ``lhs_value``/``rhs_value`` override the corresponding evaluator where the
    general formula degenerates at the limit (for example 0 * inf products);
    a None override means the evaluator handles the point directly.
    """

    params: tuple[tuple[str, float], ...]
    lhs_value: Optional[float] = None
    rhs_value: Optional[float] = None


@dataclass(frozen=True)
class IdentityCase:
    id: str
    description: str
    source: str
    lhs: Evaluator
    rhs: Evaluator
    continuous: tuple[GridAxis, ...] = ()
    discrete: tuple[DiscreteAxis, ...] = ()
    extra_points: tuple[ExtraPoint, ...] = ()
    default_tol: Tolerance = TOL_STRICT

    def param_summary(self) -> str:
        parts = [f"{d.name} in {{{', '.join(map(str, d.values))}}}" for d in self.discrete]
        parts += [f"{c.name} in ({c.lo:g}, {c.hi:g})" for c in self.continuous]
        for pt in self.extra_points:
            parts.append("+ " + ", ".join(f"{k}={v:g}" for k, v in pt.params))
        return "; ".join(parts) if parts else "none"


# ---------------------------------------------------------------------------
# Evaluator helpers
# ---------------------------------------------------------------------------


def _point(fixed: dict, name: Optional[str], value) -> dict:
    """The parameters of a point of a ``rows`` call (``value`` may be a column)."""
    return fixed if name is None else fixed | {name: value}


def _pointwise(one: Callable[[dict, Tolerance], EvalOutcome]) -> Callable:
    """``rows`` that evaluates its points one at a time with ``one(params, tol)``."""
    return lambda fixed, name, values, tol: [one(_point(fixed, name, v), tol) for v in values]


def _quad(describe: str, build: Callable[..., IntegrandSpec],
          half_line: bool = False) -> Evaluator:
    """Quadrature side on (0, 1), or on (0, inf) for ``half_line``; ``build``
    takes the continuous parameter as a scalar or as a column array (one
    integrand row per value). The integrator is looked up in this module at
    call time, where the benchmark's tracer wraps it."""
    def rows(fixed: dict, name, values: list, tol: Tolerance) -> list[EvalOutcome]:
        batch = Rows(lambda column: build(**_point(fixed, name, column)), tuple(values))
        res = (integrate_semi_infinite if half_line else integrate_unit)(batch, tol)
        return [EvalOutcome(r.value, evals=r.evaluations, converged=r.converged)
                for r in res.rows]

    return Evaluator(describe, rows)


def _summed(res, scale: float) -> EvalOutcome:
    return EvalOutcome(scale * res.value, terms=res.terms_used, converged=res.converged)


def _series(describe: str, build: Callable[..., TermGenerator],
            accelerated: Callable[..., bool] | bool = False,
            scale: float = 1.0) -> Evaluator:
    """Series side; ``build`` takes the continuous parameter as a scalar or as
    a column array (one row of terms per value). The points that
    ``accelerated`` selects go to the accelerated sum, the others to the
    direct sum: one rows call each. The summation functions are looked up in
    this module at call time, where the benchmark's tracer wraps them."""
    def rows(fixed: dict, name, values: list, tol: Tolerance) -> list[EvalOutcome]:
        accel = [accelerated(**_point(fixed, name, v)) if callable(accelerated)
                 else accelerated for v in values]
        results = {}
        for summer, flag in ((sum_direct, False), (sum_alternating_accelerated, True)):
            chosen = tuple(v for v, a in zip(values, accel) if a == flag)
            if chosen:
                batch = Rows(lambda column: build(**_point(fixed, name, column)), chosen)
                results[flag] = iter(summer(batch, tol).rows)
        return [_summed(next(results[a]), scale) for a in accel]

    return Evaluator(describe, rows)


def _closed(describe: str, value: Callable[..., float]) -> Evaluator:
    """Real closed-form side; ``value`` takes the continuous parameter as a scalar
    or a column and returns one value per row, or one value for every row."""
    def rows(fixed: dict, name, values: list, tol: Tolerance) -> list[EvalOutcome]:
        column = None if name is None else np.array(values, dtype=float)[:, None]
        result = np.ravel(value(**_point(fixed, name, column))).tolist()
        if len(result) == 1:  # one value for every row, as from a constant
            result *= len(values)
        return [EvalOutcome(v) for v in result]

    return Evaluator(describe, rows)


# ---------------------------------------------------------------------------
# Integrand builders (numpy-vectorized; f_right is the stable form near 1).
# A parameter given as a (rows, 1) column yields one row of values per
# parameter through the same elementwise operations as a scalar.
# ---------------------------------------------------------------------------


def _spec_basel() -> IntegrandSpec:
    return IntegrandSpec(
        lambda t: -np.log1p(-t) / t,
        f_right=lambda d: -np.log(d) / (1.0 - d),
    )


def _spec_arcsin(alpha: float) -> IntegrandSpec:
    return IntegrandSpec(
        lambda x: np.arcsin(alpha * x) / np.sqrt((1.0 - x) * (1.0 + x)),
        f_right=lambda d: np.arcsin(alpha * (1.0 - d)) / np.sqrt(d * (2.0 - d)),
    )


def _spec_atan_cauchy(alpha: float) -> IntegrandSpec:
    return IntegrandSpec(lambda x: 2.0 * np.arctan(alpha * x) / (1.0 + x * x))


def _spec_log_kernel(alpha: float) -> IntegrandSpec:
    # log(1+a x)/(x(1+x)) -> a at x -> 0; decays like log(x)/x^2 at infinity,
    # so the x -> 1/u image of the half-line is log-singular at u = 0
    return IntegrandSpec(lambda x: np.log1p(alpha * x) / (x * (1.0 + x)))


def _spec_logpow_odd(p: int, beta: float) -> IntegrandSpec:
    def f(x):
        return np.log(x) ** p * (np.log1p(-beta * x) - np.log1p(beta * x)) / x

    def f_right(d):
        return (
            np.log1p(-d) ** p
            * (np.log(1.0 - beta + beta * d) - np.log1p(beta * (1.0 - d)))
            / (1.0 - d)
        )

    return IntegrandSpec(f, f_right)


def _spec_logpow_single(p: int, beta: float) -> IntegrandSpec:
    def f(x):
        return np.log(x) ** p * np.log1p(-beta * x) / x

    def f_right(d):
        return np.log1p(-d) ** p * np.log(1.0 - beta + beta * d) / (1.0 - d)

    return IntegrandSpec(f, f_right)


def _spec_atan_recip() -> IntegrandSpec:
    return IntegrandSpec(lambda t: np.arctan(t) * np.arctan(1.0 / t) / t)


def _spec_log_recip() -> IntegrandSpec:
    # log(1+t) log(1+1/t)/t; log-singular at 0 (and, transformed, at infinity)
    return IntegrandSpec(lambda t: np.log1p(t) * (np.log1p(t) - np.log(t)) / t)


def _spec_atan_pow_over_x(alpha: float, p: int = 2) -> IntegrandSpec:
    return IntegrandSpec(lambda x: np.arctan(alpha * x) ** p / x)


def _spec_atan_pow_cauchy(alpha: float, p: int) -> IntegrandSpec:
    return IntegrandSpec(lambda x: np.arctan(alpha * x) ** p / (1.0 + x * x))


# ---------------------------------------------------------------------------
# Series term builders: each takes the continuous parameter as a scalar or as a
# (rows, 1) column and returns a generator whose terms(n0, n1) is one row of
# terms per parameter. A row of a column goes through the same operations in
# the same order as a scalar parameter, so each term is the one-point double.
# ---------------------------------------------------------------------------


def _powers(base, exponents: range) -> np.ndarray:
    """``base ** e`` for each row of a scalar or column ``base`` and each
    exponent, shape ``(rows, len(exponents))``. Computed by Python's pow: at
    the grid alphas np.power rounds some of these powers differently."""
    bases = np.ravel(base).tolist()
    flat = chain.from_iterable(map(pow, repeat(b), exponents) for b in bases)
    return np.fromiter(flat, float, len(bases) * len(exponents)).reshape(len(bases), -1)


def _gen_skew_odd_denom(alpha=1.0) -> TermGenerator:
    # sum_{n>=0} (log2 - H_n^-) a^(2n+1) / (2n+1)
    r = alpha * alpha

    def terms(n0: int, n1: int) -> np.ndarray:
        lead = np.array([_LOG2 - skew_harmonic_float(n) for n in range(n0, n1)])
        return lead * alpha * _powers(r, range(n0, n1)) / (2.0 * np.arange(n0, n1) + 1.0)

    return TermGenerator(terms, 0, ALTERNATING, name="skew-harmonic odd series")


def _gen_skew_linear_denom(alpha=1.0) -> TermGenerator:
    # sum_{n>=0} (log2 - H_n^-) a^(n+1) / (n+1)
    def terms(n0: int, n1: int) -> np.ndarray:
        lead = np.array([_LOG2 - skew_harmonic_float(n) for n in range(n0, n1)])
        return lead * _powers(alpha, range(n0 + 1, n1 + 1)) / np.arange(n0 + 1.0, n1 + 1.0)

    return TermGenerator(terms, 0, ALTERNATING, name="skew-harmonic series")


def _gen_odd_harmonic_leibniz(alpha) -> TermGenerator:
    # sum_{n>=1} (h_n/n) (L_n - pi/4) a^(2n)
    r = alpha * alpha
    quarter_pi = _PI / 4.0

    def terms(n0: int, n1: int) -> np.ndarray:
        lead = np.array([odd_harmonic_float(n) / n * (leibniz_partial_float(n) - quarter_pi)
                         for n in range(n0, n1)])
        return lead * _powers(r, range(n0, n1))

    return TermGenerator(terms, 1, ALTERNATING, name="odd-harmonic Leibniz series")


def _odd_harmonic_over_square(alpha, n0: int, n1: int, signed: bool) -> np.ndarray:
    # (-1)^(n-1) h_n a^(2n) / n^2 when signed, else h_n a^(2n) / n^2
    lead = np.array([(1.0 if n % 2 or not signed else -1.0) * odd_harmonic_float(n)
                     for n in range(n0, n1)])
    n = np.arange(n0, n1, dtype=float)
    return lead * _powers(alpha * alpha, range(n0, n1)) / (n * n)


def _gen_alt_odd_harmonic_sq(alpha=1.0) -> TermGenerator:
    # sum_{n>=1} (-1)^(n-1) h_n a^(2n) / n^2
    return TermGenerator(lambda n0, n1: _odd_harmonic_over_square(alpha, n0, n1, True),
                         1, ALTERNATING, name="alternating odd-harmonic series")


def _gen_pos_odd_harmonic_sq(alpha) -> TermGenerator:
    # sum_{n>=1} h_n a^(2n) / n^2, positive terms, geometric-ratio tail bound
    r = alpha * alpha

    def tail(m: np.ndarray, t: np.ndarray) -> np.ndarray:
        q = r * (1.0 + 1.0 / (2 * m + 1))
        return np.where(q < 1.0, np.abs(t) / (1.0 - q), math.inf)

    return TermGenerator(lambda n0, n1: _odd_harmonic_over_square(alpha, n0, n1, False),
                         1, POSITIVE, tail_bound=tail, name="odd-harmonic power series")


# A(n,p) and A(n,p) beta((n+1)/2) do not depend on alpha, so every grid point
# of E21-E23 shares one cached double per (n, p). The products keep the order
# of the uncached expressions, so each term is the same double. Both helpers
# look up arctan_power_coeff and incomplete_beta in this module at call time,
# where the benchmark's tracer wraps them.
@functools.cache
def _atan_coeff_float(n: int, p: int) -> float:
    return float(arctan_power_coeff(n, p))


@functools.cache
def _atan_beta_coeff(n: int, p: int) -> float:
    return _atan_coeff_float(n, p) * incomplete_beta((n + 1) / 2.0)


def _gen_atan_pow_over_n(alpha, p: int) -> TermGenerator:
    # nonzero coefficients only: term m is A(n,p) a^n / n at n = p + 2m
    def terms(m0: int, m1: int) -> np.ndarray:
        ns = range(p + 2 * m0, p + 2 * m1, 2)
        lead = np.array([_atan_coeff_float(n, p) for n in ns])
        return lead * _powers(alpha, ns) / np.array(ns, dtype=float)

    return TermGenerator(terms, 0, ALTERNATING, name="arctan-power coefficient series")


def _gen_atan_pow_beta(alpha, p: int) -> TermGenerator:
    # term m is A(n,p) beta((n+1)/2) a^n at n = p + 2m
    def terms(m0: int, m1: int) -> np.ndarray:
        ns = range(p + 2 * m0, p + 2 * m1, 2)
        return np.array([_atan_beta_coeff(n, p) for n in ns]) * _powers(alpha, ns)

    return TermGenerator(terms, 0, ALTERNATING, name="arctan-power beta series")


def _accel_near_one(**params) -> bool:
    return params.get("alpha", 0.0) > _ACCEL_THRESHOLD


# ---------------------------------------------------------------------------
# Closed forms: each takes the continuous parameter as a scalar or as a column
# and makes one polylog_real call per polylogarithm over all of its rows.
# ---------------------------------------------------------------------------


def _rhs_arcsin(alpha: float) -> float:
    return 0.5 * (polylog_real(2, alpha) - polylog_real(2, -alpha))


def _rhs_atan_inf(alpha: float) -> float:
    return fsum_rows(
        np.log(alpha) * (np.log1p(-alpha) - np.log1p(alpha)),
        polylog_real(2, alpha),
        -polylog_real(2, -alpha),
    )


def _rhs_atan_inf_alt(alpha: float) -> float:
    # equivalent tabulated form of the same integral
    return fsum_rows(
        _PI * _PI / 3.0,
        -0.5 * np.log1p(alpha) ** 2,
        -polylog_real(2, 1.0 / (1.0 + alpha)),
        -polylog_real(2, 1.0 - alpha),
    )


def _rhs_log_inf(alpha: float) -> float:
    return np.log(alpha) * np.log1p(-alpha) + polylog_real(2, alpha)


def _rhs_li2_half_diff(alpha: float) -> float:
    return polylog_real(2, 0.5) - polylog_real(2, (1.0 - alpha) / 2.0)


def _rhs_lemma_odd(p: int, beta: float) -> float:
    sign = -1.0 if p % 2 == 0 else 1.0  # (-1)^(p+1)
    return sign * math.factorial(p) * (
        polylog_real(p + 2, beta) - polylog_real(p + 2, -beta)
    )


def _rhs_lemma_single(p: int, beta: float) -> float:
    sign = -1.0 if p % 2 == 0 else 1.0
    return sign * math.factorial(p) * polylog_real(p + 2, beta)


def _lhs_dilog_pair(alpha: float) -> float:
    w = (1.0 - alpha) / (1.0 + alpha)
    return polylog_real(2, w) - polylog_real(2, -w)


def _eval_eq8(params: dict, tol: Tolerance) -> EvalOutcome:
    # the comparison target is pi^3 = 192 x the series value, so the series
    # itself needs a 192-fold tighter absolute tolerance
    inner = Tolerance(max(tol.abs_tol / 192.0, 1e-16), tol.rel_tol, tol.max_work)
    return _summed(sum_eq8(inner), 192.0)


def _eval_eq23_series(params: dict, tol: Tolerance) -> EvalOutcome:
    p = params["p"]
    gen = _gen_atan_pow_beta(1.0, p)
    # the comparison target is pi^(p+1); tighten the series tolerance by the
    # prefactor so the scaled value still meets it
    prefactor = (p + 1) * 2 ** (2 * p + 1)
    inner = Tolerance(
        max(tol.abs_tol / prefactor, 1e-16), tol.rel_tol, tol.max_work
    )
    return _summed(sum_alternating_accelerated(gen, inner), prefactor)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_ALPHA_OPEN = GridAxis("alpha", 0.0, 1.0)
_ALPHA_SYM = GridAxis("alpha", -1.0, 1.0)
_BETA_OPEN = GridAxis("beta", 0.0, 1.0)
_P_LEMMA = DiscreteAxis("p", (0, 1, 2, 3))
_P_POWERS = DiscreteAxis("p", (1, 2, 3, 4))


def _pt(lhs=None, rhs=None, **params) -> ExtraPoint:
    return ExtraPoint(tuple(sorted(params.items())), lhs_value=lhs, rhs_value=rhs)


def register_all() -> list[IdentityCase]:
    """Build the full identity registry (28 cases)."""
    cases = [
        IdentityCase(
            id="E1",
            description="Basel integral: -int_0^1 log(1-t)/t dt = pi^2/6",
            source="classical (Basel problem)",
            lhs=_quad("tanh-sinh on (0,1)", _spec_basel),
            rhs=_closed("pi^2/6", lambda: _Z2),
        ),
        IdentityCase(
            id="E2",
            description="int_0^1 arcsin(a x)/sqrt(1-x^2) dx = [Li2(a) - Li2(-a)]/2",
            source="arcsine route to the Basel problem",
            lhs=_quad("tanh-sinh, inverse-sqrt right endpoint", _spec_arcsin),
            rhs=_closed("dilogarithm difference", _rhs_arcsin),
            continuous=(_ALPHA_SYM,),
            extra_points=(_pt(alpha=1.0),),
        ),
        IdentityCase(
            id="E4",
            description=(
                "2 int_0^inf arctan(a x)/(1+x^2) dx = "
                "log a log((1-a)/(1+a)) + Li2(a) - Li2(-a)"
            ),
            source="parameter differentiation; cf. Prudnikov 2.7.4(12)",
            lhs=_quad("split semi-infinite tanh-sinh", _spec_atan_cauchy,
                      half_line=True),
            rhs=_closed("log/dilog closed form", _rhs_atan_inf),
            continuous=(_ALPHA_OPEN,),
            extra_points=(
                _pt(alpha=0.0, rhs=0.0),
                _pt(alpha=1.0, rhs=1.5 * _Z2),
            ),
        ),
        IdentityCase(
            id="E4alt",
            description="same integral in the tabulated alternative closed form",
            source="Prudnikov, Integrals and Series I, 2.7.4(12)",
            lhs=_quad("split semi-infinite tanh-sinh", _spec_atan_cauchy,
                      half_line=True),
            rhs=_closed("pi^2/3 - log^2(1+a)/2 - Li2(1/(1+a)) - Li2(1-a)",
                        _rhs_atan_inf_alt),
            continuous=(_ALPHA_OPEN,),
            extra_points=(_pt(alpha=0.0), _pt(alpha=1.0)),
        ),
        IdentityCase(
            id="E5",
            description=(
                "2 int_0^1 arctan(a x)/(1+x^2) dx = "
                "sum (log2 - H_n^-) a^(2n+1)/(2n+1)"
            ),
            source="skew-harmonic expansion via the incomplete beta series",
            lhs=_quad("tanh-sinh on (0,1)", _spec_atan_cauchy),
            rhs=_series("alternating skew-harmonic series", _gen_skew_odd_denom,
                        accelerated=_accel_near_one),
            continuous=(_ALPHA_OPEN,),
            extra_points=(_pt(alpha=1.0),),
        ),
        IdentityCase(
            id="E6",
            description="pi^2/16 = sum_{n>=0} (log2 - H_n^-)/(2n+1)",
            source="skew-harmonic series at a = 1",
            lhs=_closed("pi^2/16", lambda: _PI * _PI / 16.0),
            rhs=_series("accelerated series", _gen_skew_odd_denom,
                        accelerated=True),
        ),
        IdentityCase(
            id="E7",
            description=(
                "int_0^1 arctan(a x)^2/(1+x^2) dx = "
                "sum (h_n/n)(L_n - pi/4) a^(2n)"
            ),
            source="squared-arctangent expansion, odd harmonic numbers",
            lhs=_quad("tanh-sinh on (0,1)",
                      lambda alpha: _spec_atan_pow_cauchy(alpha, 2)),
            rhs=_series("alternating odd-harmonic Leibniz series",
                        _gen_odd_harmonic_leibniz),
            continuous=(_ALPHA_OPEN,),
            default_tol=TOL_MEDIUM,
        ),
        IdentityCase(
            id="E8",
            description="pi^3 = 192 sum (h_n/n)(L_n - pi/4)",
            source="squared-arctangent series at a = 1",
            lhs=_closed("pi^3", lambda: _PI**3),
            rhs=Evaluator("192 x accelerated series", _pointwise(_eval_eq8)),
            default_tol=TOL_SLOW_SERIES,
        ),
        IdentityCase(
            id="E9",
            description=(
                "int_0^inf log(1+a x)/(x(1+x)) dx = log a log(1-a) + Li2(a); "
                "verified for a in (0,1] (negative a puts 1 + a x through zero "
                "on the half-line)"
            ),
            source="G&R 4.295.18 at a=1; Prudnikov 2.6.10.52",
            lhs=_quad("split semi-infinite tanh-sinh", _spec_log_kernel,
                      half_line=True),
            rhs=_closed("log a log(1-a) + Li2(a)", _rhs_log_inf),
            continuous=(_ALPHA_OPEN,),
            extra_points=(_pt(alpha=1.0, rhs=_Z2),),
        ),
        IdentityCase(
            id="E10",
            description=(
                "int_0^1 log(1+a x)/(x(1+x)) dx = Li2(1/2) - Li2((1-a)/2)"
            ),
            source="G&R 4.291.12 at a=1; Prudnikov 2.6.10.8",
            lhs=_quad("tanh-sinh on (0,1)", _spec_log_kernel),
            rhs=_closed("Li2(1/2) - Li2((1-a)/2)", _rhs_li2_half_diff),
            continuous=(_ALPHA_OPEN,),
            extra_points=(_pt(alpha=1.0),),
        ),
        IdentityCase(
            id="E10b",
            description="int_0^1 log(1+x)/(x(1+x)) dx = pi^2/12 - log^2(2)/2",
            source="Gradshteyn-Ryzhik, entry 4.291.12",
            lhs=_quad("tanh-sinh on (0,1)", lambda: _spec_log_kernel(1.0)),
            rhs=_closed("pi^2/12 - log^2(2)/2",
                        lambda: 0.5 * _Z2 - 0.5 * _LOG2 * _LOG2),
        ),
        IdentityCase(
            id="EC6",
            description=(
                "Li2(1/2) - Li2((1-a)/2) = sum (log2 - H_n^-) a^(n+1)/(n+1)"
            ),
            source="dilogarithm as a skew-harmonic power series",
            lhs=_closed("Li2(1/2) - Li2((1-a)/2)", _rhs_li2_half_diff),
            rhs=_series("alternating skew-harmonic series", _gen_skew_linear_denom,
                        accelerated=_accel_near_one),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="EC6b",
            description="sum (log2 - H_n^-)/(n+1) = pi^2/12 - log^2(2)/2",
            source="skew-harmonic series at a = 1",
            lhs=_series("accelerated series", _gen_skew_linear_denom,
                        accelerated=True),
            rhs=_closed("Li2(1/2)", lambda: 0.5 * _Z2 - 0.5 * _LOG2 * _LOG2),
        ),
        IdentityCase(
            id="E11",
            description=(
                "int_0^1 log(x)^p log((1-b x)/(1+b x))/x dx = "
                "(-1)^(p+1) p! [Li_{p+2}(b) - Li_{p+2}(-b)]"
            ),
            source="log-power kernel; companion of Prudnikov 2.6.19.6",
            lhs=_quad("tanh-sinh, log singularities", _spec_logpow_odd),
            rhs=_closed("polylog difference", _rhs_lemma_odd),
            discrete=(_P_LEMMA,),
            continuous=(_BETA_OPEN,),
            extra_points=(_pt(beta=1.0),),
            default_tol=TOL_MEDIUM,
        ),
        IdentityCase(
            id="E12",
            description=(
                "int_0^1 log(x)^p log(1-b x)/x dx = (-1)^(p+1) p! Li_{p+2}(b)"
            ),
            source="Prudnikov, Integrals and Series I, 2.6.19.6",
            lhs=_quad("tanh-sinh, log singularities", _spec_logpow_single),
            rhs=_closed("(-1)^(p+1) p! Li_{p+2}(b)", _rhs_lemma_single),
            discrete=(_P_LEMMA,),
            continuous=(_BETA_OPEN,),
            extra_points=(_pt(beta=1.0),),
            default_tol=TOL_MEDIUM,
        ),
        IdentityCase(
            id="E13",
            description="int_0^1 arctan(t) arctan(1/t)/t dt = (7/8) zeta(3)",
            source="Catalan/zeta(3) companion integral",
            lhs=_quad("tanh-sinh on (0,1)", _spec_atan_recip),
            rhs=_closed("(7/8) zeta(3)", lambda: 0.875 * _Z3),
        ),
        IdentityCase(
            id="E13inf",
            description="int_0^inf arctan(t) arctan(1/t)/t dt = (7/4) zeta(3)",
            source="reciprocal-split form of E13",
            lhs=_quad("split semi-infinite tanh-sinh", _spec_atan_recip,
                      half_line=True),
            rhs=_closed("(7/4) zeta(3)", lambda: 1.75 * _Z3),
        ),
        IdentityCase(
            id="E14",
            description="int_0^1 log(1+t) log(1+1/t)/t dt = zeta(3)",
            source="zeta(3) as a log-product integral",
            lhs=_quad("tanh-sinh, log-singular at 0", _spec_log_recip),
            rhs=_closed("zeta(3)", lambda: _Z3),
        ),
        IdentityCase(
            id="E14inf",
            description="int_0^inf log(1+t) log(1+1/t)/t dt = 2 zeta(3)",
            source="reciprocal-split form of E14",
            lhs=_quad("split semi-infinite tanh-sinh", _spec_log_recip,
                      half_line=True),
            rhs=_closed("2 zeta(3)", lambda: 2.0 * _Z3),
        ),
        IdentityCase(
            id="E15",
            description=(
                "int_0^1 arctan(t)^2/t dt = (pi/2) G - (7/8) zeta(3)"
            ),
            source="Adamchik's Catalan list, entry 8; Bradley (2001), p. 18",
            lhs=_quad("tanh-sinh on (0,1)", lambda: _spec_atan_pow_over_x(1.0)),
            rhs=_closed("(pi/2) G - (7/8) zeta(3)",
                        lambda: 0.5 * _PI * _G - 0.875 * _Z3),
        ),
        IdentityCase(
            id="E16",
            description=(
                "int_0^1 arctan(a x)^2/x dx = (1/2) sum (-1)^(n-1) h_n a^(2n)/n^2"
            ),
            source="squared arctangent over x, odd-harmonic series",
            lhs=_quad("tanh-sinh on (0,1)", _spec_atan_pow_over_x),
            rhs=_series("alternating odd-harmonic series", _gen_alt_odd_harmonic_sq,
                        accelerated=_accel_near_one, scale=0.5),
            continuous=(_ALPHA_OPEN,),
            extra_points=(_pt(alpha=1.0),),
            default_tol=TOL_MEDIUM,
        ),
        IdentityCase(
            id="E17",
            description="sum (-1)^(n-1) h_n/n^2 = pi G - (7/4) zeta(3)",
            source="Bradley, Representations of Catalan's constant, entry (59)",
            lhs=_series("accelerated series", _gen_alt_odd_harmonic_sq,
                        accelerated=True),
            rhs=_closed("pi G - (7/4) zeta(3)", lambda: _PI * _G - 1.75 * _Z3),
            default_tol=TOL_MEDIUM,
        ),
        IdentityCase(
            id="E18",
            description=(
                "sum h_n a^(2n)/n^2 = (1/2) log a log^2((1-a)/(1+a)) + "
                "[Li2((1-a)/(1+a)) - Li2((a-1)/(1+a))] log((1-a)/(1+a)) - "
                "Li3((1-a)/(1+a)) + Li3((a-1)/(1+a)) + (7/4) zeta(3)"
            ),
            source="Ramanujan (Berndt, Notebooks I, p. 255)",
            lhs=_series("positive odd-harmonic power series",
                        _gen_pos_odd_harmonic_sq),
            rhs=_closed("Ramanujan closed form", ramanujan_rhs),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="E18d",
            description=(
                "Li2((1-a)/(1+a)) - Li2((a-1)/(1+a)) = "
                "-log a log((1-a)/(1+a)) - Li2(a) + Li2(-a) + pi^2/4"
            ),
            source="dilogarithm reflection identity",
            lhs=_closed("dilogarithm difference", _lhs_dilog_pair),
            rhs=_closed("reflection form", dilog_identity_rhs),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="E19",
            description=(
                "sum (-1)^(n-1) h_n a^(2n)/n^2 = Li3((1-ia)/(1+ia)) - "
                "Li3((ia-1)/(1+ia)) - 2i arctan(a)(Li2(ia) - Li2(-ia) - pi^2/4)"
                " - 2(i pi/2 + log a) arctan(a)^2 - (7/4) zeta(3)"
            ),
            source="alternating odd-harmonic sum via circle trilogarithms",
            lhs=_series("alternating odd-harmonic series", _gen_alt_odd_harmonic_sq,
                        accelerated=_accel_near_one),
            rhs=Evaluator("complex closed form (real part)",
                          _pointwise(lambda params, tol: EvalOutcome(eq19_rhs(**params)))),
            continuous=(_ALPHA_OPEN,),
            extra_points=(_pt(alpha=1.0),),
            default_tol=TOL_MEDIUM,
        ),
        IdentityCase(
            id="E21",
            description="int_0^1 arctan(a x)^p/x dx = sum A(n,p) a^n/n",
            source="integer powers of arctan; Stirling/Lah coefficients",
            lhs=_quad("tanh-sinh on (0,1)", _spec_atan_pow_over_x),
            rhs=_series("arctan-power coefficient series", _gen_atan_pow_over_n),
            discrete=(_P_POWERS,),
            continuous=(_ALPHA_OPEN,),
            default_tol=TOL_COARSE,
        ),
        IdentityCase(
            id="E22",
            description=(
                "int_0^1 arctan(a x)^p/(1+x^2) dx = "
                "(1/2) sum A(n,p) beta((n+1)/2) a^n"
            ),
            source="arctan powers against the Cauchy kernel",
            lhs=_quad("tanh-sinh on (0,1)", _spec_atan_pow_cauchy),
            rhs=_series("arctan-power beta series", _gen_atan_pow_beta, scale=0.5),
            discrete=(_P_POWERS,),
            continuous=(_ALPHA_OPEN,),
            default_tol=TOL_COARSE,
        ),
        IdentityCase(
            id="E23",
            description="pi^(p+1) = (p+1) 2^(2p+1) sum A(n,p) beta((n+1)/2)",
            source="arctan-power series at a = 1",
            lhs=_closed("pi^(p+1)", lambda p: _PI ** (p + 1)),
            rhs=Evaluator("scaled accelerated beta series",
                          _pointwise(_eval_eq23_series)),
            discrete=(_P_POWERS,),
            default_tol=TOL_SLOW_SERIES,
        ),
    ]
    return cases


_REGISTRY: dict[str, IdentityCase] | None = None


def registry() -> dict[str, IdentityCase]:
    global _REGISTRY
    if _REGISTRY is None:
        cases = register_all()
        by_id = {c.id: c for c in cases}
        if len(by_id) != len(cases):
            raise RuntimeError("duplicate identity ids in registry")
        _REGISTRY = by_id
    return _REGISTRY


def lookup(case_id: str) -> IdentityCase:
    try:
        return registry()[case_id]
    except KeyError:
        raise KeyError(f"unknown identity id {case_id!r}") from None
