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
    sum_eq8,  # unused by the sides; the benchmark's tracer wraps it here by name
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

TOL_STRICT = Tolerance(1e-10, 1e-10)
TOL_MEDIUM = Tolerance(1e-9, 1e-9)
TOL_COARSE = Tolerance(1e-8, 1e-8)
TOL_SLOW_SERIES = Tolerance(1e-7, 0.0)  # absolute-only, for the pi-power series


@dataclass(frozen=True, eq=False)
class EvalRows:
    """One side at the points of a ``rows`` call: ``value`` (float, or
    complex for a complex closed form), integrand evaluations ``evals``,
    series terms ``terms`` and ``converged``, each a ``(rows,)`` column or
    one scalar for every row. :meth:`Evaluator.fn` gives Python scalars."""

    value: np.ndarray | float | complex
    evals: np.ndarray | int = 0
    terms: np.ndarray | int = 0
    converged: np.ndarray | bool = True


@dataclass(frozen=True)
class Evaluator:
    """One side of an identity. ``rows(points, tol)`` evaluates a list of
    parameter dicts in one batched call and returns their :class:`EvalRows`,
    one row per point in order; the builders receive every parameter, p
    included, as a column of a :class:`~quadident.numerics.Rows` table."""

    describe: str
    rows: Callable[[list, Tolerance], EvalRows]

    def fn(self, params: dict, tol: Tolerance) -> EvalRows:
        """One point: the one-row call of ``rows``, as Python scalars."""
        out = self.rows([params], tol)
        return EvalRows(*(np.ravel(c)[0].item()
                          for c in (out.value, out.evals, out.terms, out.converged)))


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


def _quad(describe: str, build: Callable[..., IntegrandSpec],
          half_line: bool = False) -> Evaluator:
    """Quadrature side on (0, 1), or on (0, inf) for ``half_line``; ``build``
    takes the parameters as scalars or as columns. The integrator is looked
    up in this module at call time, where the benchmark's tracer wraps it."""
    def rows(points: list, tol: Tolerance) -> EvalRows:
        res = (integrate_semi_infinite if half_line else integrate_unit)(Rows(build, points), tol)
        return EvalRows(res.values, evals=res.work, converged=res.row_converged)

    return Evaluator(describe, rows)


def _series(describe: str, build: Callable[..., TermGenerator],
            scale: float | Callable[..., float] = 1.0) -> Evaluator:
    """Series side: ``scale`` times the sum; ``build`` and a callable ``scale``
    (E23: p) take the parameters as scalars or as columns. The points of each
    distinct scale (only E23's differ) go through one rows call: an ALTERNATING
    series through the CVZ sum, whose bound is proven for the moment sequences
    of E5, EC6, E6, EC6b and E21-E23 at p = 1 and an estimate for E7, E8, E16,
    E17, E19 and E21-E23 at p >= 2; a POSITIVE one (E18) through the direct sum
    with its tail bound. A scale s > 1 sums to the absolute tolerance
    max(abs_tol / s, 1e-16), so that the scaled value still meets abs_tol. The
    summers are looked up here at call time, where the benchmark wraps them."""
    def rows(points: list, tol: Tolerance) -> EvalRows:
        n = len(points)
        scales = np.ravel(Rows(scale, points).at()).tolist() if callable(scale) else [scale] * n
        parts: dict = {}  # scale -> indices of its points
        for i, s in enumerate(scales):
            parts.setdefault(s, []).append(i)
        value, terms, converged = np.empty(n), np.empty(n, dtype=int), np.empty(n, dtype=bool)
        for s, idx in parts.items():
            batch = Rows(build, [points[i] for i in idx])
            summer = (sum_alternating_accelerated if batch.at().sign_pattern == ALTERNATING
                      else sum_direct)
            res = summer(batch, Tolerance(max(tol.abs_tol / s, 1e-16), tol.rel_tol, tol.max_work)
                         if s > 1 else tol)
            value[idx], terms[idx], converged[idx] = s * res.values, res.work, res.row_converged
        return EvalRows(value, terms=terms, converged=converged)

    return Evaluator(describe, rows)


def _closed(describe: str, value: Callable[..., float | complex]) -> Evaluator:
    """Closed-form side; ``value`` takes the parameters as scalars or as
    columns and returns one value per row, or one value for every row. A
    value may be complex (E19); the ledger checks its imaginary part."""
    def rows(points: list, tol: Tolerance) -> EvalRows:
        result = np.ravel(Rows(value, points).at())
        if len(result) == 1:  # one value for every row, as from a constant
            result = np.repeat(result, len(points))
        return EvalRows(result)

    return Evaluator(describe, rows)


# ---------------------------------------------------------------------------
# Integrand builders (numpy-vectorized; f_right is the stable form near 1).
# Parameters given as (rows, 1) columns yield one row of values per point
# through the same elementwise operations as scalars.
# ---------------------------------------------------------------------------


def _pow(base, p):
    """``base ** p``. numpy squares for a scalar p = 2, but calls pow for a
    column, which can round differently; so a column p squares where p == 2,
    and a base shared by its rows is raised once per distinct p."""
    if not isinstance(p, np.ndarray):
        return base ** p
    if base.ndim < p.ndim:
        ps = p.ravel().tolist()
        index = {q: i for i, q in enumerate(dict.fromkeys(ps))}
        return _pow(base[None, :], np.array(list(index))[:, None])[[index[q] for q in ps]]
    return np.where(p == 2, base * base, base ** p)


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
        return _pow(np.log(x), p) * (np.log1p(-beta * x) - np.log1p(beta * x)) / x

    def f_right(d):
        return (
            _pow(np.log1p(-d), p)
            * (np.log(1.0 - beta + beta * d) - np.log1p(beta * (1.0 - d)))
            / (1.0 - d)
        )

    return IntegrandSpec(f, f_right)


def _spec_logpow_single(p: int, beta: float) -> IntegrandSpec:
    def f(x):
        return _pow(np.log(x), p) * np.log1p(-beta * x) / x

    def f_right(d):
        return _pow(np.log1p(-d), p) * np.log(1.0 - beta + beta * d) / (1.0 - d)

    return IntegrandSpec(f, f_right)


def _spec_atan_recip() -> IntegrandSpec:
    return IntegrandSpec(lambda t: np.arctan(t) * np.arctan(1.0 / t) / t)


def _spec_log_recip() -> IntegrandSpec:
    # log(1+t) log(1+1/t)/t; log-singular at 0 (and, transformed, at infinity)
    return IntegrandSpec(lambda t: np.log1p(t) * (np.log1p(t) - np.log(t)) / t)


def _spec_atan_pow_over_x(alpha: float, p: int = 2) -> IntegrandSpec:
    return IntegrandSpec(lambda x: _pow(np.arctan(alpha * x), p) / x)


def _spec_atan_pow_cauchy(alpha: float, p: int) -> IntegrandSpec:
    return IntegrandSpec(lambda x: _pow(np.arctan(alpha * x), p) / (1.0 + x * x))


# ---------------------------------------------------------------------------
# Series term builders: each takes its parameters as scalars or as (rows, 1)
# columns and returns a generator whose terms(n0, n1) is one row of terms per
# point. A row of a column goes through the same operations in the same order
# as scalar parameters, so each term is the one-point double.
# ---------------------------------------------------------------------------


def _powers(base, exponents: range | list[range]) -> np.ndarray:
    """``base ** e`` for each row of a scalar or column ``base`` and each e of
    one range, or of each row's own range of that length: ``(rows, len)``.
    Python's pow: at the grid alphas np.power rounds some powers differently."""
    bases = np.ravel(base).tolist()
    ranges = exponents if isinstance(exponents, list) else [exponents] * len(bases)
    flat = chain.from_iterable(map(pow, repeat(b), e) for b, e in zip(bases, ranges))
    return np.fromiter(flat, float, len(bases) * len(ranges[0])).reshape(len(bases), -1)


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


def _atan_pow_terms(coeff, alpha, p, m0: int, m1: int):
    """``coeff(n, p) * alpha ** n`` and the ranges of n = p + 2m, m0 <= m < m1,
    for each row of ``alpha`` and ``p``; ``coeff`` gets Python ints, once per p."""
    alphas, ps = np.ravel(alpha).tolist(), np.ravel(p).tolist()
    rows = max(len(alphas), len(ps))  # a scalar serves every row
    alphas, ps = alphas * (rows // len(alphas)), ps * (rows // len(ps))
    ns = [range(q + 2 * m0, q + 2 * m1, 2) for q in ps]
    lead = {q: [coeff(n, q) for n in r] for q, r in dict(zip(ps, ns)).items()}
    return np.array([lead[q] for q in ps]) * _powers(alphas, ns), ns


def _gen_atan_pow_over_n(alpha, p) -> TermGenerator:
    # nonzero coefficients only: term m is A(n,p) a^n / n at n = p + 2m
    def terms(m0: int, m1: int) -> np.ndarray:
        t, ns = _atan_pow_terms(_atan_coeff_float, alpha, p, m0, m1)
        return t / np.array(ns, dtype=float)

    return TermGenerator(terms, 0, ALTERNATING, name="arctan-power coefficient series")


def _gen_atan_pow_beta(alpha, p) -> TermGenerator:
    # term m is A(n,p) beta((n+1)/2) a^n at n = p + 2m
    return TermGenerator(lambda m0, m1: _atan_pow_terms(_atan_beta_coeff, alpha, p, m0, m1)[0],
                         0, ALTERNATING, name="arctan-power beta series")


# ---------------------------------------------------------------------------
# Closed forms: each takes its parameters as scalars or as columns and makes
# one polylog_real call per polylogarithm (and per order) over all its rows.
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


def _lemma_factor(p):
    """(-1)^(p+1) p! for each row of the integer scalar or column p."""
    factorials = [math.factorial(q) for q in np.ravel(p).tolist()]
    return np.where(p % 2 == 0, -1.0, 1.0) * np.reshape(factorials, np.shape(p))


def _polylog_orders(p, x):
    """Li_{p+2}(x) for each row of p and x, one polylog_real call per order."""
    p, x = np.asarray(p), np.asarray(x)
    out = np.empty(x.shape)
    for q in dict.fromkeys(p.ravel().tolist()):
        out[p == q] = polylog_real(q + 2, x[p == q])
    return out


def _rhs_lemma_odd(p, beta):
    return _lemma_factor(p) * (_polylog_orders(p, beta) - _polylog_orders(p, -beta))


def _rhs_lemma_single(p, beta):
    return _lemma_factor(p) * _polylog_orders(p, beta)


def _lhs_dilog_pair(alpha: float) -> float:
    w = (1.0 - alpha) / (1.0 + alpha)
    return polylog_real(2, w) - polylog_real(2, -w)


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
            rhs=_series("alternating skew-harmonic series", _gen_skew_odd_denom),
            continuous=(_ALPHA_OPEN,),
            extra_points=(_pt(alpha=1.0),),
        ),
        IdentityCase(
            id="E6",
            description="pi^2/16 = sum_{n>=0} (log2 - H_n^-)/(2n+1)",
            source="skew-harmonic series at a = 1",
            lhs=_closed("pi^2/16", lambda: _PI * _PI / 16.0),
            rhs=_series("accelerated series", _gen_skew_odd_denom),
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
            rhs=_series("192 x accelerated series",
                        lambda: _gen_odd_harmonic_leibniz(1.0), scale=192),
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
            rhs=_series("alternating skew-harmonic series", _gen_skew_linear_denom),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="EC6b",
            description="sum (log2 - H_n^-)/(n+1) = pi^2/12 - log^2(2)/2",
            source="skew-harmonic series at a = 1",
            lhs=_series("accelerated series", _gen_skew_linear_denom),
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
                        scale=0.5),
            continuous=(_ALPHA_OPEN,),
            extra_points=(_pt(alpha=1.0),),
            default_tol=TOL_MEDIUM,
        ),
        IdentityCase(
            id="E17",
            description="sum (-1)^(n-1) h_n/n^2 = pi G - (7/4) zeta(3)",
            source="Bradley, Representations of Catalan's constant, entry (59)",
            lhs=_series("accelerated series", _gen_alt_odd_harmonic_sq),
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
            lhs=_series("alternating odd-harmonic series", _gen_alt_odd_harmonic_sq),
            rhs=_closed("complex closed form (real part)", eq19_rhs),
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
            rhs=_series("scaled accelerated beta series",
                        lambda p: _gen_atan_pow_beta(1.0, p),
                        scale=lambda p: (p + 1) * 2.0 ** (2 * p + 1)),
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
