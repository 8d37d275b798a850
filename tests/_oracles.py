"""Scalar references for the tests: the exact Leibniz partial sums, against
which ``combinatorics.leibniz_partial_float`` and the incomplete beta series
are checked, and the one-pair pass rule, against which the ledger's array
judge is checked, with its margin. Only the tests use them."""

import math
from fractions import Fraction

_LEIBNIZ = [Fraction(0)]  # 1 - 1/3 + 1/5 - ...


def leibniz_partial(n: int) -> Fraction:
    """Partial sum 1 - 1/3 + ... + (-1)^(n-1)/(2n-1) of the Leibniz series; 0 for n = 0."""
    while len(_LEIBNIZ) <= n:
        k = len(_LEIBNIZ)
        _LEIBNIZ.append(_LEIBNIZ[-1] + Fraction(1 if k % 2 else -1, 2 * k - 1))
    return _LEIBNIZ[n]


def margin(tol, a: float, b: float) -> float:
    """``abs_tol + rel_tol * max(|a|, |b|)``: the width within which a and b agree."""
    return tol.abs_tol + tol.rel_tol * max(abs(a), abs(b))


def passes(tol, a: float, b: float) -> bool:
    """Whether ``a`` and ``b`` agree within ``margin(tol, a, b)``; a NaN or
    infinite difference never does."""
    d = abs(a - b)
    return bool(d <= margin(tol, a, b)) if math.isfinite(d) else False
