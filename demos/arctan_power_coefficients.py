"""Exact coefficients of (arctan x)^p and the pi-power series built from them.

Run:  python demos/arctan_power_coefficients.py
"""

from quadident import CONSTANTS, Tolerance
from quadident.combinatorics import (
    arctan_power_coeff,
    arctan_series,
    odd_harmonic,
    series_pow,
)
from quadident.registry import lookup

PI = CONSTANTS.pi

print("== coefficients A(n,p) of (arctan x)^p, exact rationals ==")
print("three-term recurrence vs brute-force Cauchy product:")
base = arctan_series(12)
for p in (2, 3, 4):
    powered = series_pow(base, p)
    row = [arctan_power_coeff(n, p) for n in range(1, 13)]
    ok = all(powered.coefficient(n) == row[n - 1] for n in range(1, 13))
    shown = ", ".join(str(c) for c in row if c != 0)
    print(f"  p={p}: [{shown}]  oracle match: {ok}")

print()
print("zeros by parity: A(n,p) = 0 whenever n < p or n - p is odd")
print(f"  A(1,2) = {arctan_power_coeff(1, 2)}, A(5,2) = {arctan_power_coeff(5, 2)}")

print()
print("the even coefficients of the square are odd harmonic numbers in disguise:")
for n in (1, 2, 3, 4):
    a = arctan_power_coeff(2 * n, 2)
    h = odd_harmonic(n)
    print(f"  A({2 * n},2) = {a}   (-1)^(n-1) h_{n}/{n} = {(-1) ** (n - 1) * h / n}")

print()
print("== pi^{p+1} from the coefficient series ==")
# pi^(p+1) = (p+1) 2^(2p+1) sum_n A(n,p) beta((n+1)/2), CVZ-accelerated;
# the side takes every p in one rows call, one value per point
ps = (1, 2, 3, 4)
values = lookup("E23").rhs([{"p": p} for p in ps], Tolerance(1e-8, 0.0)).value
for p, val in zip(ps, values.tolist()):
    print(f"  p={p}: series gives {val:.12f}   pi^{p + 1} = {PI ** (p + 1):.12f}   "
          f"err {abs(val - PI ** (p + 1)):.1e}")
