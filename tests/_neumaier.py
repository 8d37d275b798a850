"""The streaming compensated accumulator, term by term: the oracle that
``numerics.neumaier_prefix`` and the float prefixes of ``combinatorics`` must
match bit for bit. Only the tests use it."""


class NeumaierSum:
    """Streaming compensated accumulator (Neumaier's variant of Kahan summation).

    Keeps the running error term alongside the sum so that long series can be
    accumulated one term at a time with O(eps) total drift.
    """

    __slots__ = ("_s", "_c")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        s = self._s
        t = s + x
        if abs(s) >= abs(x):
            self._c += (s - t) + x
        else:
            self._c += (x - t) + s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c
