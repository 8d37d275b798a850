"""Every case with a continuous axis verifies over its whole declared domain,
not only on its grid: drawn points, half uniform over the open interval and
half 1e-14 to 1e-1 from one of its ends, for every discrete value."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadident.ledger import verify
from quadident.registry import registry

_CONTINUOUS = [case for case in registry().values() if case.continuous]
_PER_KIND = 3  # drawn points of each kind per case and discrete value


def _uniform(axis):
    return st.integers(1, 2**52 - 1).map(lambda k: axis.lo + (axis.hi - axis.lo) * (k / 2**52))


def _near_an_end(axis):
    return st.tuples(st.booleans(), st.floats(-14.0, -1.0)).map(
        lambda low_e: axis.lo + 10.0 ** low_e[1] if low_e[0] else axis.hi - 10.0 ** low_e[1])


def _discrete_points(case):
    return [dict(combo) for combo in itertools.product(
        *[[(d.name, v) for v in d.values] for d in case.discrete])]


def test_the_sweep_covers_every_case_with_a_continuous_axis():
    assert len(_CONTINUOUS) == 16


@pytest.mark.parametrize("case", _CONTINUOUS, ids=lambda case: case.id)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_every_case_verifies_over_its_declared_domain(case, data):
    axis = case.continuous[0]
    for fixed in _discrete_points(case):
        values = [v for kind in (_uniform, _near_an_end) for v in data.draw(
            st.lists(kind(axis), min_size=_PER_KIND, max_size=_PER_KIND, unique=True))]
        assert all(axis.lo < v < axis.hi for v in values), values
        points = [fixed | {axis.name: v} for v in values]
        for o in verify(case.id, points=points):
            assert o.passed, o

