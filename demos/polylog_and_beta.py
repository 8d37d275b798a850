"""Polylogarithms on the closed unit disc and the alternating beta series.

Run:  python demos/polylog_and_beta.py
"""

import cmath

from quadident import CONSTANTS
from quadident.specfun import (
    dilog_identity_rhs,
    eq19_rhs,
    incomplete_beta,
    polylog_complex,
    polylog_real,
    ramanujan_rhs,
)

PI, G, Z2, Z3, LOG2 = (CONSTANTS.pi, CONSTANTS.catalan, CONSTANTS.zeta2,
                       CONSTANTS.zeta3, CONSTANTS.log2)

print("== classical dilogarithm/trilogarithm values ==")
rows = [
    ("Li2(1)  = pi^2/6", polylog_real(2, 1.0), Z2),
    ("Li2(-1) = -pi^2/12", polylog_real(2, -1.0), -PI * PI / 12.0),
    ("Li2(1/2) = pi^2/12 - log^2(2)/2", polylog_real(2, 0.5),
     Z2 / 2.0 - LOG2**2 / 2.0),
    ("Li3(-1) = -(3/4) zeta(3)", polylog_real(3, -1.0), -0.75 * Z3),
]
for label, got, want in rows:
    print(f"{label:<34} {got:+.15f}   err {abs(got - want):.1e}")

print()
print("== on the circle the series is too slow: the log-series in log z ==")
v = polylog_complex(2, 1j)
print(f"Li2(i)  = {v.real:+.15f} {v.imag:+.15f}i")
print(f"expected  {-PI * PI / 48.0:+.15f} {G:+.15f}i   (-pi^2/48 + iG)")
w = cmath.exp(-2j * cmath.atan(0.5).real)
print(f"Li3 at |z|=1, z=exp(-2i arctan 1/2): {polylog_complex(3, w):.12f}")

print()
print("== incomplete beta: the alternating series sum (-1)^k/(z+k) ==")
print(f"beta(1)   = log 2        err {abs(incomplete_beta(1.0) - LOG2):.1e}")
print(f"beta(1/2) = pi/2         err {abs(incomplete_beta(0.5) - PI / 2):.1e}")
print(f"beta(3)   = log 2 - 1/2  err {abs(incomplete_beta(3.0) - (LOG2 - 0.5)):.1e}")
print("recurrence beta(z) + beta(z+1) = 1/z:")
for z in (0.5, 2.0, 7.5):
    print(f"  z={z:4}: residual {abs(incomplete_beta(z) + incomplete_beta(z + 1) - 1 / z):.1e}")

print()
print("== odd-harmonic power series in closed form ==")
alpha = 0.5
series = sum(
    (sum(1.0 / (2 * k - 1) for k in range(1, n + 1))) / n**2 * alpha ** (2 * n)
    for n in range(1, 60)
)
print(f"sum h_n a^(2n)/n^2 at a=1/2:    series {series:.15f}")
print(f"closed form (Ramanujan):        {ramanujan_rhs(alpha):.15f}")
print(f"dilog reflection residual at a=1/2: "
      f"{abs(dilog_identity_rhs(0.5) - (polylog_real(2, 1 / 3) - polylog_real(2, -1 / 3))):.1e}")

print()
print("== the alternating variant is real despite its complex closed form ==")
for alpha in (0.5, 1.0):
    v = eq19_rhs(alpha)
    print(f"alpha={alpha}: value {v.real:+.15f}, imaginary part {abs(v.imag):.1e}")
print(f"at alpha=1 this is pi G - (7/4) zeta(3) = {PI * G - 1.75 * Z3:+.15f}")
