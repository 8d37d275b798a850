"""The identity registry: every verified equation as a pair of LHS/RHS sides.

Each case couples two independently computed sides, each a :class:`Side`
of its kind and builder: a double-exponential quadrature, a CVZ-accelerated
series sum, or a closed form built from polylogarithms and the constants
table; cases that share a side hold equal values. Removable-singularity
handling and endpoints are owned here: integrands singular at 1 state their
stable form ``f_right`` in the distance to 1, a continuous axis lists the
ends of its interval that are evaluated besides its interior grid, and a
closed form takes the limit of a 0 * inf term at such an end itself.

Identity ids (E1, E2, E4, ..., E23) are stable strings used by the CLI and
the report schema; ``source`` labels where each identity is classically
stated or tabulated.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, NamedTuple

import numpy as np

from .combinatorics import (
    arctan_power_coeff,
    leibniz_partial_float,  # unused by the sides; the benchmark's tracer wraps it here by name
    odd_harmonic_float,
    skew_harmonic_float,
)
from .numerics import CONSTANTS, DEFAULT_TOL, Rows, Tolerance, fsum_rows
from .quadrature import IntegrandSpec, integrate_semi_infinite, integrate_unit
from .series import (
    TermGenerator,
    odd_harmonic_leibniz,
    sum_alternating_accelerated,
    sum_direct,  # unused by the sides; the benchmark's tracer wraps it here by name
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


class EvalRows(NamedTuple):
    """One side at the points of a ``side(points, tol)`` call: ``value``
    (float, or complex for a complex closed form), integrand evaluations
    ``evals``, series terms ``terms`` and ``converged``, each a ``(rows,)``
    column or one scalar for every row."""

    value: np.ndarray | float | complex
    evals: np.ndarray | int = 0
    terms: np.ndarray | int = 0
    converged: np.ndarray | bool = True


class GridAxis(NamedTuple):
    """Continuous parameter on an open interval; the grid stays strictly
    inside, and ``ends`` (each ``lo`` or ``hi``) are evaluated besides it."""

    name: str
    lo: float
    hi: float
    ends: tuple[float, ...] = ()

    def points(self, n: int) -> list[float]:
        step = (self.hi - self.lo) / (n + 1)
        return [self.lo + i * step for i in range(1, n + 1)]


class DiscreteAxis(NamedTuple):
    name: str
    values: tuple[int, ...]


class IdentityCase(NamedTuple):
    """An identity and its two sides. A side is called as ``lhs(points,
    tol)``: it evaluates a list of parameter dicts in one batched call and
    returns their :class:`EvalRows`, one row per point in order. Every
    registered side is a :class:`Side`, whose builder receives every
    parameter, p included, as a column of a :class:`~quadident.numerics.Rows`
    table."""

    id: str
    description: str
    source: str
    lhs: Callable[[list, Tolerance], EvalRows]
    rhs: Callable[[list, Tolerance], EvalRows]
    continuous: tuple[GridAxis, ...] = ()
    discrete: tuple[DiscreteAxis, ...] = ()

    @property
    def default_tol(self) -> Tolerance:
        """``DEFAULT_TOL``, the one gate of every case; read by the benchmark."""
        return DEFAULT_TOL

    def param_summary(self) -> str:
        parts = [f"{d.name} in {{{', '.join(map(str, d.values))}}}" for d in self.discrete]
        parts += [f"{c.name} in ({c.lo:g}, {c.hi:g})" for c in self.continuous]
        parts += [f"+ {c.name}={v:g}" for c in self.continuous for v in c.ends]
        return "; ".join(parts) if parts else "none"


class Side(NamedTuple):
    """One side of an identity: its ``kind`` and ``build``, which takes the
    parameters as scalars or as columns; equal fields are the same side. A
    ``"unit"`` or ``"half_line"`` side integrates the spec ``build`` makes on
    (0, 1) or (0, inf); a ``"series"`` side is the CVZ sum of its series, a
    constant factor in its terms (see :func:`_scaled`); a ``"closed"`` side
    takes its values, one per row or one for every row (complex for E19, whose
    imaginary part the ledger checks). Each kind's driver is looked up here at
    call time, where the benchmark's tracer wraps it."""

    kind: str
    build: Callable[..., Any]

    def __call__(self, points: list, tol: Tolerance) -> EvalRows:
        rows = Rows(self.build, points)
        if self.kind == "closed":
            value = np.ravel(rows.at())
            if len(value) == 1:  # one value for every row, as from a constant
                value = np.repeat(value, len(points))
            return EvalRows(value)
        if self.kind == "series":
            res = sum_alternating_accelerated(rows, tol)
            return EvalRows(res.values, terms=res.work, converged=res.row_converged)
        res = {"unit": integrate_unit, "half_line": integrate_semi_infinite}[self.kind](rows, tol)
        return EvalRows(res.values, evals=res.work, converged=res.row_converged)


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


def _spec_log_kernel(alpha: float = 1.0) -> IntegrandSpec:
    # log(1+a x)/(x(1+x)) -> a at x -> 0; decays like log(x)/x^2 at infinity,
    # which the exp-sinh nodes reach out to x = 4.1e18
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


def _spec_dilog_pair(alpha: float) -> IntegrandSpec:
    # Li2(w) - Li2(-w) = int_0^1 (log(1+w x) - log(1-w x))/x dx, w = (1-a)/(1+a);
    # near x = 1, 1 - w x = gap + w d with gap = 1 - w keeps its digits as a -> 0
    w = (1.0 - alpha) / (1.0 + alpha)
    gap = 2.0 * alpha / (1.0 + alpha)
    return IntegrandSpec(
        lambda x: (np.log1p(w * x) - np.log1p(-w * x)) / x,
        f_right=lambda d: (np.log1p(w * (1.0 - d)) - np.log(gap + w * d)) / (1.0 - d),
    )


def _spec_atan_recip() -> IntegrandSpec:
    return IntegrandSpec(lambda t: np.arctan(t) * np.arctan(1.0 / t) / t)


def _spec_log_recip() -> IntegrandSpec:
    # log(1+t) log(1+1/t)/t; log-singular at 0, and like log(t)/t^2 at infinity
    return IntegrandSpec(lambda t: np.log1p(t) * (np.log1p(t) - np.log(t)) / t)


def _spec_atan_pow_over_x(alpha: float = 1.0, p: int = 2) -> IntegrandSpec:
    return IntegrandSpec(lambda x: _pow(np.arctan(alpha * x), p) / x)


def _spec_atan_pow_cauchy(alpha: float, p: int = 2) -> IntegrandSpec:
    return IntegrandSpec(lambda x: _pow(np.arctan(alpha * x), p) / (1.0 + x * x))


# ---------------------------------------------------------------------------
# Series term builders: each takes its parameters as scalars or as (rows, 1)
# columns and returns a generator whose terms(n0, n1) is one row of terms per
# point. A row of a column goes through the same operations in the same order
# as scalar parameters, so each term is the one-point double.
# ---------------------------------------------------------------------------


def _powers(base, exponents) -> np.ndarray:
    """``base ** e`` for each row of a scalar or column ``base``: ``(rows, m)``
    for integer ``exponents`` (a range or an array) of shape ``(m,)``, shared
    by every row, or ``(rows, m)``, one row each: one ``np.power``, whose bits
    do not depend on the rows, a few 1 ulp away from Python's pow."""
    return np.power(np.reshape(base, (-1, 1)), exponents)


def _scaled(g: TermGenerator, s) -> TermGenerator:
    """``g`` with every term times ``s``, a scalar or a ``(rows, 1)`` column."""
    return g._replace(terms=lambda n0, n1: s * g.terms(n0, n1))


def _gen_skew_odd_denom(alpha=1.0) -> TermGenerator:
    # sum_{n>=0} (log2 - H_n^-) a^(2n+1) / (2n+1)
    r = alpha * alpha

    def terms(n0: int, n1: int) -> np.ndarray:
        n = np.arange(n0, n1)
        return (_LOG2 - skew_harmonic_float(n)) * alpha * _powers(r, n) / (2.0 * n + 1.0)

    return TermGenerator(terms, 0, name="skew-harmonic odd series")


def _gen_skew_linear_denom(alpha=1.0) -> TermGenerator:
    # sum_{n>=0} (log2 - H_n^-) a^(n+1) / (n+1)
    def terms(n0: int, n1: int) -> np.ndarray:
        n = np.arange(n0, n1)
        return (_LOG2 - skew_harmonic_float(n)) * _powers(alpha, n + 1) / (n + 1.0)

    return TermGenerator(terms, 0, name="skew-harmonic series")


def _gen_odd_harmonic_leibniz(alpha) -> TermGenerator:
    # sum_{n>=1} (h_n/n) (L_n - pi/4) a^(2n)
    g, r = odd_harmonic_leibniz(), alpha * alpha
    return g._replace(terms=lambda n0, n1: g.terms(n0, n1) * _powers(r, range(n0, n1)))


def _gen_alt_odd_harmonic_sq(alpha=1.0) -> TermGenerator:
    # sum_{n>=1} (-1)^(n-1) h_n a^(2n) / n^2
    def terms(n0: int, n1: int) -> np.ndarray:
        n = np.arange(n0, n1)
        h = odd_harmonic_float(n)
        return np.where(n % 2 == 1, h, -h) * _powers(alpha * alpha, n) / (n * n.astype(float))

    return TermGenerator(terms, 1, name="alternating odd-harmonic series")


_HALF_GAMMA = 0.28860783245076643  # Euler's constant / 2


def _odd_harmonic_at(m: np.ndarray) -> np.ndarray:
    """h_m at each whole float m >= 1: one read of the float prefix below
    4096, and log 2 + (log m)/2 + gamma/2 + 1/(48 m^2) from there on, whose
    next term, -7/(1920 m^4), is below 1.3e-17."""
    small = m < 4096
    h = odd_harmonic_float(np.where(small, m, 0).astype(int))
    return np.where(small, h, (_LOG2 + _HALF_GAMMA) + 1.0 / (48.0 * m * m) + 0.5 * np.log(m))


def _gen_pos_odd_harmonic_sq(alpha) -> TermGenerator:
    # sum_{n>=1} h_n a^(2n) / n^2, a positive series, as van Wijngaarden's
    # alternating sum_{k>=1} (-1)^(k-1) b_k with b_k = sum_j 2^j t_(2^j k)
    # = k^-2 sum_j 2^-j h_m r^m, m = 2^j k, r = a^2 (Press et al., Numerical
    # Recipes, 3rd ed., 5.3). Part j of b_k is at most 2^-j h_(2^j) r^(2^j-1)
    # <= 2^-j (1 + (j+1) log(2)/2) r^(2^j-1) times part 0, below 2^-55 from
    # j = 60 on even at r = 1. The levels past those the slowest row needs add
    # under half an ulp to every b_k: each row keeps the bits of its one-row run
    r = min(float(np.max(alpha * alpha)), 1.0)
    levels = 1
    while levels < 64 and (1.0 + (levels + 1) * 0.5 * _LOG2) * r ** (
            2**levels - 1) >= 2.0 ** (levels - 55):
        levels += 1
    scales = 2.0 ** -np.arange(levels)
    with np.errstate(divide="ignore"):  # r^m = 0 at a = 0
        log_r = np.reshape(2.0 * np.log(np.abs(alpha)), (-1, 1, 1))

    def terms(k0: int, k1: int) -> np.ndarray:
        k = np.arange(k0, k1)
        m = k[:, None] * 2.0 ** np.arange(levels)
        parts = _odd_harmonic_at(m) * scales * np.exp(m * log_r)
        b = np.add.accumulate(parts, axis=2)[..., -1]
        return np.where(k % 2 == 1, b, -b) / (k * k.astype(float))

    return TermGenerator(terms, 1, name="odd-harmonic power series")


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
    """``coeff(n, p) * alpha ** n`` and the exponents n = p + 2m, m0 <= m < m1,
    for each row of ``alpha`` and ``p``: ``(rows, m1 - m0)`` and an integer
    ``(rows of p, m1 - m0)`` array. Each distinct p fills one row of
    coefficients, ``coeff`` getting Python ints, which its rows pick by index."""
    ps = np.ravel(p)
    qs = ps.tolist()
    row_of = {q: i for i, q in enumerate(dict.fromkeys(qs))}
    table = np.array([[coeff(n, q) for n in range(q + 2 * m0, q + 2 * m1, 2)] for q in row_of])
    ns = ps[:, None] + 2 * np.arange(m0, m1)
    return table[[row_of[q] for q in qs]] * _powers(alpha, ns), ns


def _gen_atan_pow_over_n(alpha, p) -> TermGenerator:
    # nonzero coefficients only: term m is A(n,p) a^n / n at n = p + 2m
    def terms(m0: int, m1: int) -> np.ndarray:
        t, ns = _atan_pow_terms(_atan_coeff_float, alpha, p, m0, m1)
        return t / ns

    return TermGenerator(terms, 0, name="arctan-power coefficient series")


def _gen_atan_pow_beta(alpha, p) -> TermGenerator:
    # term m is A(n,p) beta((n+1)/2) a^n at n = p + 2m
    return TermGenerator(lambda m0, m1: _atan_pow_terms(_atan_beta_coeff, alpha, p, m0, m1)[0],
                         0, name="arctan-power beta series")


# ---------------------------------------------------------------------------
# Closed forms: each takes its parameters as scalars or as columns and makes
# one polylog_real call per side, every polylogarithm, order and sign of the
# side stacked into its columns.
# ---------------------------------------------------------------------------


def _rhs_arcsin(alpha: float) -> float:
    li2_a, li2_ma = polylog_real(2, np.stack([alpha, -alpha]))
    return 0.5 * (li2_a - li2_ma)


def _log_term(alpha, factor):
    """log(alpha) * factor(alpha), for a factor that vanishes like alpha at 0
    and grows like log(1 - alpha) at 1: at alpha = 0 and 1, where the product
    reads 0 * inf, its limit 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        product = np.log(alpha) * factor(alpha)
    return np.where((alpha == 0.0) | (alpha == 1.0), 0.0, product)


def _rhs_atan_inf(alpha: float) -> float:
    li2_a, li2_ma = polylog_real(2, np.stack([alpha, -alpha]))
    return fsum_rows(
        _log_term(alpha, lambda a: np.log1p(-a) - np.log1p(a)),
        li2_a,
        -li2_ma,
    )


def _rhs_atan_inf_alt(alpha: float) -> float:
    # equivalent tabulated form of the same integral
    li2_recip, li2_comp = polylog_real(2, np.stack([1.0 / (1.0 + alpha), 1.0 - alpha]))
    return fsum_rows(
        _PI * _PI / 3.0,
        -0.5 * np.log1p(alpha) ** 2,
        -li2_recip,
        -li2_comp,
    )


def _rhs_log_inf(alpha: float) -> float:
    return _log_term(alpha, lambda a: np.log1p(-a)) + polylog_real(2, alpha)


def _rhs_li2_half_diff(alpha: float) -> float:
    # Li2(1/2), shared by every row, is one more element of the column
    li2 = polylog_real(2, np.append((1.0 - alpha) / 2.0, 0.5))
    return li2[-1] - np.reshape(li2[:-1], np.shape(alpha))


def _rhs_log_kernel_at_one() -> float:
    # pi^2/12 - log^2(2)/2, E10's right side at alpha = 1
    return 0.5 * _Z2 - 0.5 * _LOG2 * _LOG2


def _lemma_factor(p):
    """(-1)^(p+1) p! for each row of the integer scalar or column p, in
    floats: from p = 171 on, p! overflows with an ``OverflowError``."""
    factorials = [float(math.factorial(q)) for q in np.ravel(p).tolist()]
    return np.where(p % 2 == 0, -1.0, 1.0) * np.reshape(factorials, np.shape(p))


def _rhs_lemma_odd(p, beta):
    li_b, li_mb = polylog_real(p + 2, np.stack([beta, -beta]))
    return _lemma_factor(p) * (li_b - li_mb)


def _rhs_lemma_single(p, beta):
    return _lemma_factor(p) * polylog_real(p + 2, beta)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_ALPHA_OPEN = GridAxis("alpha", 0.0, 1.0)
_ALPHA_TO_ONE = GridAxis("alpha", 0.0, 1.0, ends=(1.0,))
_ALPHA_CLOSED = GridAxis("alpha", 0.0, 1.0, ends=(0.0, 1.0))
_ALPHA_SYM_TO_ONE = GridAxis("alpha", -1.0, 1.0, ends=(1.0,))
_BETA_TO_ONE = GridAxis("beta", 0.0, 1.0, ends=(1.0,))
_P_LEMMA = DiscreteAxis("p", (0, 1, 2, 3))
_P_POWERS = DiscreteAxis("p", (1, 2, 3, 4))


def _register_all() -> list[IdentityCase]:
    """Build the full identity registry (28 cases)."""
    cases = [
        IdentityCase(
            id="E1",
            description="Basel integral: -int_0^1 log(1-t)/t dt = pi^2/6",
            source="classical (Basel problem)",
            lhs=Side("unit", _spec_basel),
            rhs=Side("closed", lambda: _Z2),
        ),
        IdentityCase(
            id="E2",
            description="int_0^1 arcsin(a x)/sqrt(1-x^2) dx = [Li2(a) - Li2(-a)]/2",
            source="arcsine route to the Basel problem",
            lhs=Side("unit", _spec_arcsin),
            rhs=Side("closed", _rhs_arcsin),
            continuous=(_ALPHA_SYM_TO_ONE,),
        ),
        IdentityCase(
            id="E4",
            description=(
                "2 int_0^inf arctan(a x)/(1+x^2) dx = "
                "log a log((1-a)/(1+a)) + Li2(a) - Li2(-a)"
            ),
            source="parameter differentiation; cf. Prudnikov 2.7.4(12)",
            lhs=Side("half_line", _spec_atan_cauchy),
            rhs=Side("closed", _rhs_atan_inf),
            continuous=(_ALPHA_CLOSED,),
        ),
        IdentityCase(
            id="E4alt",
            description="same integral in the tabulated alternative closed form",
            source="Prudnikov, Integrals and Series I, 2.7.4(12)",
            lhs=Side("half_line", _spec_atan_cauchy),
            rhs=Side("closed", _rhs_atan_inf_alt),
            continuous=(_ALPHA_CLOSED,),
        ),
        IdentityCase(
            id="E5",
            description=(
                "2 int_0^1 arctan(a x)/(1+x^2) dx = "
                "sum (log2 - H_n^-) a^(2n+1)/(2n+1)"
            ),
            source="skew-harmonic expansion via the incomplete beta series",
            lhs=Side("unit", _spec_atan_cauchy),
            rhs=Side("series", _gen_skew_odd_denom),
            continuous=(_ALPHA_TO_ONE,),
        ),
        IdentityCase(
            id="E6",
            description="pi^2/16 = sum_{n>=0} (log2 - H_n^-)/(2n+1)",
            source="skew-harmonic series at a = 1",
            lhs=Side("closed", lambda: _PI * _PI / 16.0),
            rhs=Side("series", _gen_skew_odd_denom),
        ),
        IdentityCase(
            id="E7",
            description=(
                "int_0^1 arctan(a x)^2/(1+x^2) dx = "
                "sum (h_n/n)(L_n - pi/4) a^(2n)"
            ),
            source="squared-arctangent expansion, odd harmonic numbers",
            lhs=Side("unit", _spec_atan_pow_cauchy),
            rhs=Side("series", _gen_odd_harmonic_leibniz),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="E8",
            description="pi^3 = 192 sum (h_n/n)(L_n - pi/4)",
            source="squared-arctangent series at a = 1",
            lhs=Side("closed", lambda: _PI**3),
            rhs=Side("series", lambda: _scaled(odd_harmonic_leibniz(), 192.0)),
        ),
        IdentityCase(
            id="E9",
            description=(
                "int_0^inf log(1+a x)/(x(1+x)) dx = log a log(1-a) + Li2(a); "
                "verified for a in (0,1] (negative a puts 1 + a x through zero "
                "on the half-line)"
            ),
            source="G&R 4.295.18 at a=1; Prudnikov 2.6.10.52",
            lhs=Side("half_line", _spec_log_kernel),
            rhs=Side("closed", _rhs_log_inf),
            continuous=(_ALPHA_TO_ONE,),
        ),
        IdentityCase(
            id="E10",
            description="int_0^1 log(1+a x)/(x(1+x)) dx = Li2(1/2) - Li2((1-a)/2)",
            source="G&R 4.291.12 at a=1; Prudnikov 2.6.10.8",
            lhs=Side("unit", _spec_log_kernel),
            rhs=Side("closed", _rhs_li2_half_diff),
            continuous=(_ALPHA_TO_ONE,),
        ),
        IdentityCase(
            id="E10b",
            description="int_0^1 log(1+x)/(x(1+x)) dx = pi^2/12 - log^2(2)/2",
            source="Gradshteyn-Ryzhik, entry 4.291.12",
            lhs=Side("unit", _spec_log_kernel),
            rhs=Side("closed", _rhs_log_kernel_at_one),
        ),
        IdentityCase(
            id="EC6",
            description="Li2(1/2) - Li2((1-a)/2) = sum (log2 - H_n^-) a^(n+1)/(n+1)",
            source="dilogarithm as a skew-harmonic power series",
            lhs=Side("closed", _rhs_li2_half_diff),
            rhs=Side("series", _gen_skew_linear_denom),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="EC6b",
            description="sum (log2 - H_n^-)/(n+1) = pi^2/12 - log^2(2)/2",
            source="skew-harmonic series at a = 1",
            lhs=Side("series", _gen_skew_linear_denom),
            rhs=Side("closed", _rhs_log_kernel_at_one),
        ),
        IdentityCase(
            id="E11",
            description=(
                "int_0^1 log(x)^p log((1-b x)/(1+b x))/x dx = "
                "(-1)^(p+1) p! [Li_{p+2}(b) - Li_{p+2}(-b)]"
            ),
            source="log-power kernel; companion of Prudnikov 2.6.19.6",
            lhs=Side("unit", _spec_logpow_odd),
            rhs=Side("closed", _rhs_lemma_odd),
            discrete=(_P_LEMMA,),
            continuous=(_BETA_TO_ONE,),
        ),
        IdentityCase(
            id="E12",
            description="int_0^1 log(x)^p log(1-b x)/x dx = (-1)^(p+1) p! Li_{p+2}(b)",
            source="Prudnikov, Integrals and Series I, 2.6.19.6",
            lhs=Side("unit", _spec_logpow_single),
            rhs=Side("closed", _rhs_lemma_single),
            discrete=(_P_LEMMA,),
            continuous=(_BETA_TO_ONE,),
        ),
        IdentityCase(
            id="E13",
            description="int_0^1 arctan(t) arctan(1/t)/t dt = (7/8) zeta(3)",
            source="Catalan/zeta(3) companion integral",
            lhs=Side("unit", _spec_atan_recip),
            rhs=Side("closed", lambda: 0.875 * _Z3),
        ),
        IdentityCase(
            id="E13inf",
            description="int_0^inf arctan(t) arctan(1/t)/t dt = (7/4) zeta(3)",
            source="reciprocal-split form of E13",
            lhs=Side("half_line", _spec_atan_recip),
            rhs=Side("closed", lambda: 1.75 * _Z3),
        ),
        IdentityCase(
            id="E14",
            description="int_0^1 log(1+t) log(1+1/t)/t dt = zeta(3)",
            source="zeta(3) as a log-product integral",
            lhs=Side("unit", _spec_log_recip),
            rhs=Side("closed", lambda: _Z3),
        ),
        IdentityCase(
            id="E14inf",
            description="int_0^inf log(1+t) log(1+1/t)/t dt = 2 zeta(3)",
            source="reciprocal-split form of E14",
            lhs=Side("half_line", _spec_log_recip),
            rhs=Side("closed", lambda: 2.0 * _Z3),
        ),
        IdentityCase(
            id="E15",
            description="int_0^1 arctan(t)^2/t dt = (pi/2) G - (7/8) zeta(3)",
            source="Adamchik's Catalan list, entry 8; Bradley (2001), p. 18",
            lhs=Side("unit", _spec_atan_pow_over_x),
            rhs=Side("closed", lambda: 0.5 * _PI * _G - 0.875 * _Z3),
        ),
        IdentityCase(
            id="E16",
            description="int_0^1 arctan(a x)^2/x dx = (1/2) sum (-1)^(n-1) h_n a^(2n)/n^2",
            source="squared arctangent over x, odd-harmonic series",
            lhs=Side("unit", _spec_atan_pow_over_x),
            rhs=Side("series", lambda alpha: _scaled(_gen_alt_odd_harmonic_sq(alpha), 0.5)),
            continuous=(_ALPHA_TO_ONE,),
        ),
        IdentityCase(
            id="E17",
            description="sum (-1)^(n-1) h_n/n^2 = pi G - (7/4) zeta(3)",
            source="Bradley, Representations of Catalan's constant, entry (59)",
            lhs=Side("series", _gen_alt_odd_harmonic_sq),
            rhs=Side("closed", lambda: _PI * _G - 1.75 * _Z3),
        ),
        IdentityCase(
            id="E18",
            description=(
                "sum h_n a^(2n)/n^2 = (1/2) log a log^2((1-a)/(1+a)) + "
                "[Li2((1-a)/(1+a)) - Li2((a-1)/(1+a))] log((1-a)/(1+a)) - "
                "Li3((1-a)/(1+a)) + Li3((a-1)/(1+a)) + (7/4) zeta(3)"
            ),
            source="Ramanujan (Berndt, Notebooks I, p. 255)",
            lhs=Side("series", _gen_pos_odd_harmonic_sq),
            rhs=Side("closed", ramanujan_rhs),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="E18d",
            description=(
                "Li2((1-a)/(1+a)) - Li2((a-1)/(1+a)) = "
                "-log a log((1-a)/(1+a)) - Li2(a) + Li2(-a) + pi^2/4"
            ),
            source="dilogarithm reflection identity",
            lhs=Side("unit", _spec_dilog_pair),
            rhs=Side("closed", dilog_identity_rhs),
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
            lhs=Side("series", _gen_alt_odd_harmonic_sq),
            rhs=Side("closed", eq19_rhs),
            continuous=(_ALPHA_TO_ONE,),
        ),
        IdentityCase(
            id="E21",
            description="int_0^1 arctan(a x)^p/x dx = sum A(n,p) a^n/n",
            source="integer powers of arctan; Stirling/Lah coefficients",
            lhs=Side("unit", _spec_atan_pow_over_x),
            rhs=Side("series", _gen_atan_pow_over_n),
            discrete=(_P_POWERS,),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="E22",
            description=(
                "int_0^1 arctan(a x)^p/(1+x^2) dx = "
                "(1/2) sum A(n,p) beta((n+1)/2) a^n"
            ),
            source="arctan powers against the Cauchy kernel",
            lhs=Side("unit", _spec_atan_pow_cauchy),
            rhs=Side("series", lambda alpha, p: _scaled(_gen_atan_pow_beta(alpha, p), 0.5)),
            discrete=(_P_POWERS,),
            continuous=(_ALPHA_OPEN,),
        ),
        IdentityCase(
            id="E23",
            description="pi^(p+1) = (p+1) 2^(2p+1) sum A(n,p) beta((n+1)/2)",
            source="arctan-power series at a = 1",
            lhs=Side("closed", lambda p: _PI ** (p + 1)),
            rhs=Side("series", lambda p: _scaled(_gen_atan_pow_beta(1.0, p),
                                          (p + 1) * 2.0 ** (2 * p + 1))),
            discrete=(_P_POWERS,),
        ),
    ]
    return cases


_REGISTRY: dict[str, IdentityCase] | None = None


def registry() -> dict[str, IdentityCase]:
    global _REGISTRY
    if _REGISTRY is None:
        cases = _register_all()
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
