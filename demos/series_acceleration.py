"""Euler acceleration of slowly convergent alternating series.

The series behind pi^2/16 and pi^3/192 have terms that decay only like
log(n)/n^2, so direct summation to 1e-10 would need billions of terms.
Iterated averaging of the partial sums (the Euler transform) collapses them
in a few dozen terms.

Run:  python demos/series_acceleration.py
"""

from quadident import CONSTANTS, TermGenerator, Tolerance
from quadident.combinatorics import skew_harmonic_float
from quadident.numerics import NeumaierSum
from quadident.series import (
    ALTERNATING,
    sum_alternating_accelerated,
    sum_direct,
    sum_eq8,
)

PI, LOG2 = CONSTANTS.pi, CONSTANTS.log2

print("== pi^2/16 = sum_{n>=0} (log2 - H_n^-)/(2n+1) ==")
gen = TermGenerator(
    lambda n: (LOG2 - skew_harmonic_float(n)) / (2 * n + 1), 0, ALTERNATING
)
target = PI * PI / 16.0

# raw partial sums barely move: the alternating tail is ~ 1/(4n)
acc = NeumaierSum()
partials = []
for n in range(256):
    acc.add(gen.term(n))
    partials.append(acc.value)
print(f"partial sum after 256 terms:  error {abs(partials[-1] - target):.2e}")

# each averaging pass of the Euler transform (the mean of neighbouring
# partial sums) removes another factor
averaged = partials
for k in range(33):
    if k in (0, 2, 4, 8, 16, 32):
        print(f"  after {k:2d} averaging passes:  error {abs(averaged[-1] - target):.2e}")
    averaged = [0.5 * (a + b) for a, b in zip(averaged, averaged[1:])]

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
    lambda n: (LOG2 - skew_harmonic_float(n)) * alpha ** (2 * n + 1) / (2 * n + 1),
    0,
    ALTERNATING,
)
direct = sum_direct(gen_half, Tolerance(1e-12, 0.0))
accel = sum_alternating_accelerated(gen_half, Tolerance(1e-12, 0.0))
print(f"direct:      {direct.value:.15f}  terms {direct.terms_used}")
print(f"accelerated: {accel.value:.15f}  terms {accel.terms_used}")
print(f"agreement within bounds: "
      f"{abs(direct.value - accel.value) <= direct.remainder_bound + accel.remainder_bound}")
