"""Shared numeric primitives: tolerance policy, compensated summation, reference
constants, and the parameter rows that the quadrature and series drivers batch.

Everything here is pure and immutable; values are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Accuracy target for quadrature, summation and identity comparison.

    A comparison passes when ``|a - b| <= abs_tol + rel_tol * max(|a|, |b|)``.
    ``max_work`` caps function evaluations (quadrature) or series terms.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_work: int = 2_000_000

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if (isinstance(self.max_work, bool) or not isinstance(self.max_work, numbers.Integral)
                or self.max_work < 1):
            raise ValueError("max_work must be a positive integer")

    def margin(self, a: float, b: float) -> float:
        return self.abs_tol + self.rel_tol * max(abs(a), abs(b))

    def passes(self, a: float, b: float) -> bool:
        d = abs(a - b)
        return bool(d <= self.margin(a, b)) if math.isfinite(d) else False


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class ConstantsTable:
    """Reference constants, 25+ significant decimal digits each.

    Provenance: standard decimal expansions, re-derived from scratch by the
    oracle computations in the test suite (Machin arctangent series for pi,
    binary log series for log2, zeta series with Euler-Maclaurin tails for
    zeta2/zeta3, Euler-transformed odd alternating squares for catalan).
    The literals are rounded to the nearest binary64 on parsing.
    """

    pi: float = 3.141592653589793238462643383279503
    log2: float = 0.6931471805599453094172321214581766
    zeta2: float = 1.644934066848226436472415166646025  # pi^2 / 6
    zeta3: float = 1.202056903159594285399738161511450
    catalan: float = 0.9159655941772190150546035149324


CONSTANTS = ConstantsTable()


@dataclass(frozen=True, eq=False)
class Rows:
    """Integrands, series or values over a table of points, one row per point,
    run in one pass by the quadrature and series drivers.

    ``points`` holds one dict of parameters per row. ``build`` receives each
    parameter of some rows as a ``(rows, 1)`` column keyword (numpy's dtype:
    integers stay integers) and returns their spec, generator or values, each
    row computed by the same elementwise operations as for scalar parameters;
    without parameters, it gives every row the same one. A parameter that
    some points lack raises ``KeyError``.
    """

    build: Callable[..., Any]
    points: Sequence[dict]

    @functools.cached_property
    def columns(self) -> dict[str, np.ndarray]:
        names = dict.fromkeys(name for point in self.points for name in point)
        return {name: np.array([point[name] for point in self.points])[:, None]
                for name in names}

    def at(self, rows=None):
        """The spec or generator of the rows at the given indices (all for None)."""
        return self.build(**{name: column if rows is None else column[rows]
                             for name, column in self.columns.items()})


def fsum_rows(*pieces):
    """``math.fsum`` of the pieces, one row at a time. Each piece is a scalar
    or an array of one value per row; the sums take the pieces' broadcast
    shape, and scalar pieces alone give a float."""
    table = np.broadcast_arrays(*pieces)
    sums = [math.fsum(row) for row in zip(*(t.ravel().tolist() for t in table))]
    return sums[0] if table[0].ndim == 0 else np.reshape(sums, table[0].shape)


class NeumaierSum:
    """Streaming compensated accumulator (Neumaier's variant of Kahan summation).

    Keeps the running error term alongside the sum so that long series can be
    accumulated one term at a time with O(eps) total drift.
    """

    __slots__ = ("_s", "_c")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        s = self._s
        t = s + x
        if abs(s) >= abs(x):
            self._c += (s - t) + x
        else:
            self._c += (x - t) + s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


def neumaier_prefix(s: np.ndarray, c: np.ndarray, terms: np.ndarray):
    """Running Neumaier sums of the rows of ``terms`` (shape ``(rows, m)``),
    seeded with each row's sum ``s`` and compensation ``c`` (shape ``(rows,)``).

    Returns the running sums and running compensations, each ``(rows, m)``:
    entry ``[i, j]`` holds the ``_s`` and ``_c`` of a :class:`NeumaierSum`
    started at ``(s[i], c[i])`` after adding ``terms[i, :j+1]``, bit for bit.
    ``np.cumsum`` (``np.add.accumulate``) adds left to right, so both are the
    accumulator's chain of additions; the correction of each step is computed
    elementwise from the running sums before and after it.
    """
    sums = np.cumsum(np.concatenate([s[:, None], terms], axis=1), axis=1)
    prev, cur = sums[:, :-1], sums[:, 1:]
    corr = np.where(np.abs(prev) >= np.abs(terms), (prev - cur) + terms, (terms - cur) + prev)
    comp = np.cumsum(np.concatenate([c[:, None], corr], axis=1), axis=1)[:, 1:]
    return cur, comp
