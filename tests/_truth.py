"""The exact value of every registered identity, in mpmath at 30 digits.

Each identity is a theorem, so both of its sides equal one value at each
point. ``TRUTH`` maps every registered id to a function of the point's
parameters by name (p an integer, alpha or beta an mpmath number made from
the same exact double) that gives this value: polylogarithms, zeta and
Catalan's G for the closed forms; ``mpmath.quad`` of the integrand for E5,
E7, E16, E21 and E22, which have no closed form. Nothing here comes from
quadident, so a truth shares no code with the sides it judges.
"""

import functools

import mpmath

mp = mpmath.mp
_li = mp.polylog


def _atan_cauchy(alpha):
    # 2 int_0^inf arctan(a x)/(1+x^2) dx; the log term tends to 0 at a = 0 and 1
    log_term = 0 if alpha in (0, 1) else mp.log(alpha) * mp.log((1 - alpha) / (1 + alpha))
    return log_term + _li(2, alpha) - _li(2, -alpha)


def _li2_half_diff(alpha):
    return _li(2, mp.mpf(1) / 2) - _li(2, (1 - alpha) / 2)


def _lemma(sign):
    # (-1)^(p+1) p! [Li_{p+2}(b) + sign Li_{p+2}(-b)]
    return lambda p, beta: (-1) ** (p + 1) * mp.factorial(p) * (
        _li(p + 2, beta) + sign * _li(p + 2, -beta))


def _ramanujan(alpha):
    # sum h_n a^(2n)/n^2 (Berndt, Notebooks I, p. 255)
    w = (1 - alpha) / (1 + alpha)
    lw = mp.log(w)
    return (mp.log(alpha) * lw**2 / 2 + (_li(2, w) - _li(2, -w)) * lw
            - _li(3, w) + _li(3, -w) + 7 * mp.zeta(3) / 4)


def _circle_trilog(alpha):
    # sum (-1)^(n-1) h_n a^(2n)/n^2, the real part of E19's closed form
    ia = mp.mpc(0, alpha)
    w, at = (1 - ia) / (1 + ia), mp.atan(alpha)
    return mp.re(_li(3, w) - _li(3, -w) - 2j * at * (_li(2, ia) - _li(2, -ia) - mp.pi**2 / 4)
                 - 2 * (1j * mp.pi / 2 + mp.log(alpha)) * at**2 - 7 * mp.zeta(3) / 4)


def _atan_pow(kernel):
    # int_0^1 arctan(a x)^p kernel(x) dx
    return lambda alpha, p=2: mp.quad(lambda x: mp.atan(alpha * x) ** p * kernel(x), [0, 1])


_ATAN_CAUCHY = _atan_pow(lambda x: 1 / (1 + x * x))
_ATAN_OVER_X = _atan_pow(lambda x: 1 / x)

TRUTH = {
    "E1": lambda: mp.zeta(2),
    "E2": lambda alpha: (_li(2, alpha) - _li(2, -alpha)) / 2,
    "E4": _atan_cauchy,
    "E4alt": _atan_cauchy,
    "E5": lambda alpha: 2 * _ATAN_CAUCHY(alpha, 1),
    "E6": lambda: mp.pi**2 / 16,
    "E7": _ATAN_CAUCHY,
    "E8": lambda: mp.pi**3,
    # int_0^inf log(1+a x)/(x(1+x)) dx; the log term tends to 0 at a = 1
    "E9": lambda alpha: (0 if alpha == 1 else mp.log(alpha) * mp.log(1 - alpha)) + _li(2, alpha),
    "E10": _li2_half_diff,
    "E10b": lambda: mp.zeta(2) / 2 - mp.log(2) ** 2 / 2,
    "EC6": _li2_half_diff,
    "EC6b": lambda: mp.zeta(2) / 2 - mp.log(2) ** 2 / 2,
    "E11": _lemma(-1),
    "E12": _lemma(0),
    "E13": lambda: mp.zeta(3) * 7 / 8,
    "E13inf": lambda: mp.zeta(3) * 7 / 4,
    "E14": lambda: mp.zeta(3),
    "E14inf": lambda: mp.zeta(3) * 2,
    "E15": lambda: mp.pi * mp.catalan / 2 - mp.zeta(3) * 7 / 8,
    "E16": _ATAN_OVER_X,
    "E17": lambda: mp.pi * mp.catalan - mp.zeta(3) * 7 / 4,
    "E18": _ramanujan,
    "E18d": lambda alpha: _li(2, (1 - alpha) / (1 + alpha)) - _li(2, (alpha - 1) / (1 + alpha)),
    "E19": _circle_trilog,
    "E21": _ATAN_OVER_X,
    "E22": _ATAN_CAUCHY,
    "E23": lambda p: mp.pi ** (p + 1),
}


@functools.cache
def _exact(case_id, items):
    with mpmath.workdps(30):
        return TRUTH[case_id](**{name: v if name == "p" else mp.mpf(v) for name, v in items})


def truth(case_id, point):
    """The exact value of identity ``case_id`` at ``point``, a dict of its
    parameters; each (id, point) is computed once, for every side kind."""
    return _exact(case_id, tuple(sorted(point.items())))


def error(case_id, point, value):
    """|value - truth| as a float, for a float ``value`` of a side."""
    return float(abs(mp.mpf(value) - truth(case_id, point)))
