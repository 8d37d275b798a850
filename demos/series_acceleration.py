"""Acceleration of slowly convergent alternating series.

The series behind pi^2/16 and pi^3/192 have terms that decay only like
log(n)/n^2, so direct summation to 1e-10 would need billions of terms. The
algorithm of Cohen, Rodriguez Villegas and Zagier (Exp. Math. 9, 2000,
Algorithm 1) weights the first n terms by fixed Chebyshev-derived weights;
for terms whose magnitudes are moments of a positive measure on [0, 1] its
error falls like (3 + sqrt 8)^-n, so about 20 terms reach double precision.

Run:  python demos/series_acceleration.py
"""

import math

from quadident import CONSTANTS, TermGenerator, Tolerance
from quadident.combinatorics import skew_harmonic_float
from quadident.series import sum_alternating_accelerated, sum_direct, sum_eq8

PI, LOG2 = CONSTANTS.pi, CONSTANTS.log2


def cvz(terms, n):
    """S_n of Algorithm 1 from the first n terms t_k = (-1)^k a_k."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c, s = -1.0, -d, 0.0
    for k in range(n):
        c = b - c
        s += c * (-1) ** k * terms[k]
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1))
    return s / d


print("== pi^2/16 = sum_{n>=0} (log2 - H_n^-)/(2n+1) ==")
gen = TermGenerator(
    lambda n0, n1: [(LOG2 - skew_harmonic_float(n)) / (2 * n + 1) for n in range(n0, n1)]
)
target = PI * PI / 16.0

# raw partial sums barely move (the alternating tail is ~ 1/(4n)); the
# weighted sum S_n of the same n terms gains a factor of about 5.8 per term,
# ahead of its proven bound 2|t_0|/(3 + sqrt 8)^n
terms = list(gen.terms(0, 24))
print("   n   partial sum error   S_n error   proven bound")
for n in (4, 8, 12, 16, 20, 24):
    partial = math.fsum(terms[:n])
    bound = 2.0 * abs(terms[0]) / (3.0 + math.sqrt(8.0)) ** n
    print(f"  {n:2d}   {abs(partial - target):.2e}            "
          f"{abs(cvz(terms, n) - target):.2e}    {bound:.2e}")

res = sum_alternating_accelerated(gen, Tolerance(1e-10, 1e-10))
print(f"engine result: {res.value:.15f}  error {abs(res.value - target):.2e}  "
      f"raw terms {res.terms_used}  bound {res.remainder_bound:.1e}")

print()
print("== pi^3 = 192 sum (h_n/n)(L_n - pi/4) ==")
res = sum_eq8(Tolerance(1e-9, 0.0))
print(f"192 x sum = {192.0 * res.value:.12f}   pi^3 = {PI**3:.12f}")
print(f"absolute error {abs(192.0 * res.value - PI**3):.2e} "
      f"with {res.terms_used} raw terms")

print()
print("== direct summation still wins when decay is geometric ==")
alpha = 0.5
gen_half = TermGenerator(
    lambda n0, n1: [(LOG2 - skew_harmonic_float(n)) * alpha ** (2 * n + 1) / (2 * n + 1)
                    for n in range(n0, n1)]
)
direct = sum_direct(gen_half, Tolerance(1e-12, 0.0))
accel = sum_alternating_accelerated(gen_half, Tolerance(1e-12, 0.0))
print(f"direct:      {direct.value:.15f}  terms {direct.terms_used}")
print(f"accelerated: {accel.value:.15f}  terms {accel.terms_used}")
print(f"agreement within bounds: "
      f"{abs(direct.value - accel.value) <= direct.remainder_bound + accel.remainder_bound}")
