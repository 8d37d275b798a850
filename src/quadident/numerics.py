"""Shared numeric primitives: tolerance policy, compensated summation, reference
constants, and the parameter rows that the quadrature and series drivers batch.

Everything here is pure and immutable; values are safe to share across threads.
The records of the package are ``typing.NamedTuple`` types: a record that
checks its fields is a subclass whose ``__new__`` (and so ``_make`` and
``_replace``) runs the checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np


class _ToleranceFields(NamedTuple):
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_work: int = 2_000_000


class Tolerance(_ToleranceFields):
    """Accuracy target for quadrature, summation and identity comparison.

    A comparison passes when ``|a - b| <= abs_tol + rel_tol * max(|a|, |b|)``.
    ``max_work`` caps function evaluations (quadrature) or series terms, down
    to floors: the quadrature's level 0 (9, on either interval) and 5 CVZ terms.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if (isinstance(self.max_work, bool) or not isinstance(self.max_work, numbers.Integral)
                or self.max_work < 1):
            raise ValueError("max_work must be a positive integer")
        return self

    @classmethod
    def _make(cls, iterable):  # and so _replace: through the checks of __new__
        return cls(*iterable)


DEFAULT_TOL = Tolerance()


class ConstantsTable(NamedTuple):
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


class _RowsFields(NamedTuple):
    build: Callable[..., Any]
    points: Sequence[dict]


class Rows(_RowsFields):
    """Integrands, series or values over a table of points, one row per point,
    run in one pass by the quadrature and series drivers.

    ``points`` holds one dict of parameters per row. ``build`` receives each
    parameter of some rows as a ``(rows, 1)`` column keyword (integers stay
    integers, floats of any width become float64) and returns their spec,
    generator or values, each row computed by the same elementwise operations
    as for scalar parameters; without parameters, it gives every row the same
    one. A parameter that some points lack raises ``KeyError``. Points that
    carry ``columns`` (a ledger grid's cached read-only table) give those;
    else they are built once, on first use, and kept in the instance's
    ``__dict__``.
    """

    @property
    def columns(self) -> dict[str, np.ndarray]:
        columns = getattr(self.points, "columns", None)
        return self._built if columns is None else columns

    @functools.cached_property
    def _built(self) -> dict[str, np.ndarray]:
        names = dict.fromkeys(itertools.chain.from_iterable(self.points))
        columns = {name: np.array(list(map(operator.itemgetter(name), self.points)))[:, None]
                   for name in names}
        return {name: c.astype(float, copy=False) if c.dtype.kind == "f" else c
                for name, c in columns.items()}

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


def neumaier_prefix(s: np.ndarray, c: np.ndarray, terms: np.ndarray):
    """Running Neumaier sums of the rows of ``terms`` (shape ``(rows, m)``),
    seeded with each row's sum ``s`` and compensation ``c`` (shape ``(rows,)``).

    Returns the running sums and running compensations, each ``(rows, m)``:
    entry ``[i, j]`` holds, bit for bit, the sum and compensation of
    Neumaier's streaming accumulator (ZAMM 54, 1974) started at
    ``(s[i], c[i])`` after adding ``terms[i, :j+1]`` one at a time: adding x
    to the sum s gives t = s + x, and the compensation gains (s - t) + x if
    |s| >= |x|, else (x - t) + s; the compensated value is sum + compensation.
    ``np.cumsum`` (``np.add.accumulate``) adds left to right, so both are the
    accumulator's chain of additions; the correction of each step is computed
    elementwise from the running sums before and after it.
    """
    sums = np.cumsum(np.concatenate([s[:, None], terms], axis=1), axis=1)
    prev, cur = sums[:, :-1], sums[:, 1:]
    corr = np.where(np.abs(prev) >= np.abs(terms), (prev - cur) + terms, (terms - cur) + prev)
    comp = np.cumsum(np.concatenate([c[:, None], corr], axis=1), axis=1)[:, 1:]
    return cur, comp
