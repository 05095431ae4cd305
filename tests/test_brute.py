"""The structural oracles in brute.py against exhaustive enumeration and
the closed-form moments, on graphs small enough to enumerate, and its
empirical KS distance on samples with known answers."""

from fractions import Fraction

import pytest

from brute import (
    brute_composite_t3_law,
    brute_t3_third_central_moment,
    brute_t3_variance,
    central_moment,
    ks_statistic,
)
from monoclt.census import pyramid_counts, triangle_census
from monoclt.graph import bipyramid_chain, composite_chain_length, disjoint_union, pyramid
from monoclt.moments import standard_normal_cdf, t3_mean_var
from monoclt.sim import exact_distribution


@pytest.mark.parametrize("c", [2, 3])
def test_composite_law_matches_enumeration(c):
    g = disjoint_union(pyramid(4), bipyramid_chain(2))
    law = brute_composite_t3_law(4, 2, c)
    total = c**g.n
    assert sum(law.values()) == total
    assert exact_distribution(g, c).t3_pmf() == {t: Fraction(w, total) for t, w in law.items()}


@pytest.mark.parametrize("n", [6, 8, 12, 16])
def test_composite_law_matches_closed_form_moments(n):
    m = composite_chain_length(n, 2)
    law = brute_composite_t3_law(n, m, 2)
    mean = Fraction(sum(t * w for t, w in law.items()), sum(law.values()))
    g = disjoint_union(pyramid(n), bipyramid_chain(m))
    rep = t3_mean_var(pyramid_counts(triangle_census(g)), 2)
    assert (mean, central_moment(law, 2)) == (rep.mean, rep.variance)


def test_t3_second_and_third_central_moments_match_enumeration(small_corpus):
    for name, g in small_corpus:
        for c in (2, 3, 5):
            pmf = exact_distribution(g, c).t3_pmf()
            assert brute_t3_variance(g, c) == central_moment(pmf, 2), (name, c)
            assert brute_t3_third_central_moment(g, c) == central_moment(pmf, 3), (name, c)


def test_ks_quantile_construction():
    n = 200
    sample = [standard_normal_cdf_inverse((i + 0.5) / n) for i in range(n)]
    assert ks_statistic(sample, standard_normal_cdf) <= 1 / (2 * n) + 1e-9


def standard_normal_cdf_inverse(q: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if standard_normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_ks_point_mass():
    assert ks_statistic([0.0] * 5, standard_normal_cdf) == pytest.approx(0.5)


def test_ks_two_point():
    want = standard_normal_cdf(1.0) - 0.5
    assert ks_statistic([-1.0, 1.0], standard_normal_cdf) == pytest.approx(want)


def test_ks_empty_sample():
    with pytest.raises(ValueError):
        ks_statistic([], standard_normal_cdf)
