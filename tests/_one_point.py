"""Registered sides for the tests: the maker of a side, and one side at one
point, the one-row call of its rows function as Python scalars. Only the
tests use them."""

import numpy as np

from quadident.registry import EvalRows


def maker(side):
    """The side maker that made ``side``: ``_quad``, ``_series`` or ``_closed``."""
    return side.__qualname__.split(".")[0]


def one_point(side, params, tol):
    """``side([params], tol)`` as an ``EvalRows`` of Python scalars."""
    out = side([params], tol)
    return EvalRows(*(np.ravel(c)[0].item()
                      for c in (out.value, out.evals, out.terms, out.converged)))
