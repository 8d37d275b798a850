"""Closed-form oracles for the coefficients A(n, p) of (arctan x)^p.

The library builds A(n, p) column by column from a three-term recurrence.
These two routes compute each coefficient on its own from the closed formula
instead, and only the tests use them. For n = p + 2j the two sign terms of
the closed form coincide, giving

    A(n, p) = 2 (-1)^j * p!/2^(p+1) * sum_{k=p}^{n} 2^k C(n-1, k-1) s(k, p) / k!
            = 2 (-1)^j * p!/(n! 2^(p+1)) * sum_{k=p}^{n} 2^k L(n, k) s(k, p),

with s the signed Stirling numbers of the first kind and L the Lah numbers.
"""

import math
from fractions import Fraction

from quadident.combinatorics import lah, stirling_first


def arctan_power_coeff_stirling(n: int, p: int) -> Fraction:
    """A(n, p) by the Stirling/binomial sum over a common denominator n!."""
    if n < 1 or p < 1:
        raise ValueError("arctan_power_coeff_stirling requires n >= 1 and p >= 1")
    if n < p or (n - p) % 2:
        return Fraction(0)
    j = (n - p) // 2
    total = 0
    falling = 1  # n! / k!, built up while k descends from n to p
    for k in range(n, p - 1, -1):
        total += (1 << k) * math.comb(n - 1, k - 1) * stirling_first(k, p) * falling
        falling *= k
    # falling is now n!/(p-1)!; multiply the remaining (p-1)! to reach n!
    n_fact = falling * math.factorial(p - 1)
    sign = -1 if j % 2 else 1
    return Fraction(sign * math.factorial(p) * total, (1 << p) * n_fact)


def arctan_power_coeff_lah(n: int, p: int) -> Fraction:
    """A(n, p) by the Lah-number form of the closed formula."""
    if n < 1 or p < 1:
        raise ValueError("arctan_power_coeff_lah requires n >= 1 and p >= 1")
    if n < p or (n - p) % 2:
        return Fraction(0)
    j = (n - p) // 2
    total = sum((1 << k) * lah(n, k) * stirling_first(k, p) for k in range(p, n + 1))
    sign = -1 if j % 2 else 1
    return Fraction(sign * math.factorial(p) * total, (1 << p) * math.factorial(n))
