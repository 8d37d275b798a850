"""Tour of the double-exponential integrators: smooth, singular, and half-line integrals.

Run:  python demos/quadrature_tour.py
"""

import numpy as np

from quadident import CONSTANTS, IntegrandSpec, Tolerance
from quadident.quadrature import integrate_semi_infinite, integrate_unit

PI, G, Z2, Z3 = CONSTANTS.pi, CONSTANTS.catalan, CONSTANTS.zeta2, CONSTANTS.zeta3


def show(label, result, truth):
    err = abs(result.value - truth)
    print(f"{label:<42} value={result.value:.15f}  true_err={err:.1e}  "
          f"est={result.error_estimate:.1e}  evals={result.evaluations}")


print("== smooth integrands on (0,1) ==")
show("int x dx = 1/2",
     integrate_unit(IntegrandSpec(lambda x: x)), 0.5)
show("int arctan(x)/x dx = G",
     integrate_unit(IntegrandSpec(lambda x: np.arctan(x) / x)), G)
show("int arctan(x)^2/x dx = (pi/2)G - (7/8)z3",
     integrate_unit(IntegrandSpec(lambda x: np.arctan(x) ** 2 / x)),
     0.5 * PI * G - 0.875 * Z3)

print()
print("== endpoint singularities ==")
# The weight of the double-exponential transformation decays faster than any
# endpoint blow-up of log or inverse-sqrt type, so no special-casing is needed.
# Nodes near 1 round to x = 1.0, so an integrand singular there supplies
# f_right, the integrand in terms of the exact distance to 1.
show("int log(x) dx = -1  (log-singular at 0)",
     integrate_unit(IntegrandSpec(np.log)), -1.0)
show("int -log(1-t)/t dt = pi^2/6  (Basel)",
     integrate_unit(IntegrandSpec(
         lambda t: -np.log1p(-t) / t,
         f_right=lambda d: -np.log(d) / (1.0 - d))), Z2)
show("int 1/sqrt(x(1-x)) dx = pi  (both ends)",
     integrate_unit(IntegrandSpec(
         lambda x: 1.0 / np.sqrt(x * (1.0 - x)),
         f_right=lambda d: 1.0 / np.sqrt(d * (1.0 - d)))), PI)

print()
print("== half-line integrals: exp-sinh nodes x = exp((pi/2) sinh t) ==")
show("int 2 arctan(x)/(1+x^2) dx = pi^2/4",
     integrate_semi_infinite(IntegrandSpec(
         lambda x: 2.0 * np.arctan(x) / (1.0 + x * x))),
     PI * PI / 4.0)
show("int log(1+x)/(x(1+x)) dx = pi^2/6",
     integrate_semi_infinite(IntegrandSpec(
         lambda x: np.log1p(x) / (x * (1.0 + x)))), Z2)
show("int arctan(t) arctan(1/t)/t dt = (7/4) z3",
     integrate_semi_infinite(IntegrandSpec(
         lambda x: np.arctan(x) * np.arctan(1.0 / x) / x)),
     1.75 * Z3)

print()
print("== the error estimate is an estimate, not a bound ==")
res = integrate_unit(IntegrandSpec(lambda x: np.exp(-x * x)),
                     Tolerance(1e-6, 1e-6))
print(f"loose tolerance: value={res.value:.12f}, estimate={res.error_estimate:.1e}, "
      f"evals={res.evaluations}")
res = integrate_unit(IntegrandSpec(lambda x: np.exp(-x * x)))
print(f"tight tolerance: value={res.value:.15f}, estimate={res.error_estimate:.1e}, "
      f"evals={res.evaluations}")
