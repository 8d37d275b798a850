"""Registry series generators: the per-(n, p) coefficient cache."""

from quadident.combinatorics import arctan_power_coeff
from quadident.registry import _gen_atan_pow_beta, _gen_atan_pow_over_n
from quadident.specfun import incomplete_beta

_N_MAX = 430
_ALPHAS = (0.1, 0.5, 0.97, 1.0)


def test_cached_arctan_power_terms_are_the_uncached_doubles():
    # the cache must not change a single bit of any term, at every grid alpha
    for p in (1, 2, 3, 4):
        for a in _ALPHAS:
            beta_gen = _gen_atan_pow_beta(a, p)
            over_n_gen = _gen_atan_pow_over_n(a, p)
            for m in range((_N_MAX - p) // 2 + 1):
                n = p + 2 * m
                coeff = float(arctan_power_coeff(n, p))
                assert beta_gen.term(m) == (
                    coeff * incomplete_beta((n + 1) / 2.0) * a**n
                ), (p, a, n)
                assert over_n_gen.term(m) == coeff * a**n / n, (p, a, n)
