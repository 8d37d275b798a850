"""One side at one point, the one-row call of the side as Python scalars.
Only the tests use it."""

import numpy as np

from quadident.registry import EvalRows


def one_point(side, params, tol):
    """``side([params], tol)`` as an ``EvalRows`` of Python scalars."""
    out = side([params], tol)
    return EvalRows(*(np.ravel(c)[0].item()
                      for c in (out.value, out.evals, out.terms, out.converged)))
