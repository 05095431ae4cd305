import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from brute import all_small_graph_stats, brute_joint_law, central_moment, relabeled
from helpers import t2_inputs
from monoclt.census import b_statistic, count_c4, pyramid_counts, triangle_census
from monoclt.errors import NoEdgesError, NoTrianglesError, UnsupportedFamilyError
from monoclt.graph import Graph, bipyramid_chain, complete, cycle, gnp, pyramid, star
from monoclt.moments import (
    clt_bound_t2,
    clt_bound_t3,
    limit_law_reference,
    t2_mean_var,
    t2_moments,
    t3_mean_var,
)


def _pc(g):
    return pyramid_counts(triangle_census(g))


def test_t3_examples():
    rep = t3_mean_var(_pc(complete(4)), 2)
    assert (rep.mean, rep.variance) == (Fraction(1), Fraction(3, 2))
    rep = t3_mean_var(_pc(complete(3)), 2)
    assert (rep.mean, rep.variance) == (Fraction(1, 4), Fraction(3, 16))
    rep = t3_mean_var(_pc(pyramid(10)), 3)
    assert (rep.mean, rep.variance) == (Fraction(10, 9), Fraction(260, 81))


def test_t3_rejects_triangle_free():
    with pytest.raises(NoTrianglesError):
        t3_mean_var(_pc(cycle(4)), 2)


def test_t2_examples():
    edge = Graph.from_edges(2, [(0, 1)])
    rep = t2_moments(*t2_inputs(edge), 2)
    assert (rep.mean, rep.variance, rep.excess4) == (Fraction(1, 2), Fraction(1, 4), Fraction(-2))
    rep = t2_moments(*t2_inputs(star(3)), 2)
    assert (rep.mean, rep.variance, rep.excess4) == (Fraction(3, 2), Fraction(3, 4), Fraction(-2, 3))
    rep = t2_moments(*t2_inputs(complete(4)), 2)
    assert (rep.mean, rep.variance, rep.excess4) == (Fraction(3), Fraction(3, 2), Fraction(5, 3))


def test_t2_rejects_edgeless():
    with pytest.raises(NoEdgesError):
        t2_moments(0, 0, 0, 2)
    with pytest.raises(NoEdgesError):
        t2_mean_var(0, 2)


def test_t2_mean_var_needs_only_the_edge_count():
    for g in (star(3), complete(4), pyramid(5)):
        for c in (2, 3, 7):
            full = t2_moments(*t2_inputs(g), c)
            rep = t2_mean_var(g.edge_count, c)
            assert (rep.mean, rep.variance, rep.excess4) == (full.mean, full.variance, None)


def test_closed_forms_match_pure_python_enumeration(small_corpus):
    # independent oracle: pure-Python coloring loop, distinct from both
    # the formulas and the numpy enumeration path
    for name, g in small_corpus:
        if g.n > 6:
            continue
        for c in (2, 3):
            (m2, v2), (m3, v3) = all_small_graph_stats(g, c)
            rep2 = t2_moments(*t2_inputs(g), c)
            assert (rep2.mean, rep2.variance) == (m2, v2), (name, c)
            law2 = Counter()
            for (t2, _), count in brute_joint_law(g, c).items():
                law2[t2] += count
            assert rep2.excess4 == central_moment(law2, 4) / central_moment(law2, 2) ** 2 - 3, (name, c)
            pc = _pc(g)
            if pc.n1 >= 1:
                rep3 = t3_mean_var(pc, c)
                assert (rep3.mean, rep3.variance) == (m3, v3), (name, c)


def test_t2_variance_identity_across_c():
    # variance must equal |E| x (1 - x) identically; five evaluation
    # points pin the quadratic
    g = gnp(10, 0.5, 2)
    m = g.edge_count
    counts = t2_inputs(g)
    for c in (2, 3, 5, 7, 11):
        rep = t2_moments(*counts, c)
        assert rep.variance == Fraction(m, c) * (1 - Fraction(1, c))


def test_t2_excess4_depends_only_on_counts():
    rng = random.Random(11)
    g = gnp(12, 0.4, 8)
    base_counts = t2_inputs(g)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabeled(g, perm)
        assert t2_inputs(h) == base_counts
        assert t2_moments(*t2_inputs(h), 3).excess4 == t2_moments(*base_counts, 3).excess4


def test_clt_bound_t3_examples():
    g = pyramid(10)
    bound = clt_bound_t3(_pc(g), b_statistic(triangle_census(g)))
    assert bound.r1 == Fraction(211, 3025)
    assert bound.r2 == Fraction(9, 605)
    k4 = complete(4)
    bound = clt_bound_t3(_pc(k4), b_statistic(triangle_census(k4)))
    assert bound.r1 == Fraction(1, 100)
    assert bound.r2 == Fraction(12, 25)
    with pytest.raises(NoTrianglesError):
        clt_bound_t3(_pc(cycle(5)), 0)


def test_clt_bound_t3_floats_consistent():
    bound = clt_bound_t3(_pc(pyramid(10)), 45)
    assert bound.bracket == pytest.approx(float(bound.r1) ** 0.25 + float(bound.r2), rel=1e-12)
    assert bound.bound**5 == pytest.approx(bound.bracket, rel=1e-12)


def test_clt_bound_t2_examples():
    k4 = complete(4)
    bound = clt_bound_t2(k4.edge_count, count_c4(k4), 2)
    assert bound.rational_part == Fraction(1, 3) + Fraction(3, 72)
    assert bound.bound == pytest.approx(0.9523, abs=5e-5)
    bound = clt_bound_t2(100, 0, 2)
    assert bound.rational_part == Fraction(2, 100)
    assert bound.inner == pytest.approx(0.12, rel=1e-12)
    assert bound.bound == pytest.approx(0.6544, abs=5e-5)
    with pytest.raises(NoEdgesError):
        clt_bound_t2(0, 0, 2)


def test_star_has_no_c4():
    assert count_c4(star(100)) == 0


def test_r1_limit_on_pyramids():
    # (1 + C(n,4)) / (n + C(n,2))^2 approaches 1/6
    n = 200
    pc = _pc(pyramid(n))
    bound = clt_bound_t3(pc, comb(n, 2))
    assert abs(float(bound.r1) - 1 / 6) < 0.01


def test_r2_limit_on_bipyramid_chains():
    # b = C(n,2), triangle count 2n, no shared-edge pairs: ratio tends to 1/8
    n = 200
    g = bipyramid_chain(n)
    tc = triangle_census(g)
    bound = clt_bound_t3(pyramid_counts(tc), b_statistic(tc))
    assert bound.r2 == Fraction(comb(n, 2), (2 * n) ** 2)
    assert abs(float(bound.r2) - 1 / 8) < 0.01


def test_limit_law_pyramid():
    law = limit_law_reference("pyramid", 2)
    assert law.atoms == ((Fraction(-1, 4), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2)))
    assert law.cdf(0.0) == pytest.approx(0.5)
    assert law.cdf(-0.3) == 0.0 and law.cdf(0.3) == 1.0
    law3 = limit_law_reference("pyramid", 3)
    assert law3.atoms == ((Fraction(-1, 9), Fraction(2, 3)), (Fraction(2, 9), Fraction(1, 3)))


def test_limit_law_bipyramid():
    law = limit_law_reference("bipyramid_chain", 2)
    assert law.components == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 4)),
    )
    assert law.total_variance == Fraction(3, 8)
    law3 = limit_law_reference("bipyramid_chain", 3)
    assert law3.components[0] == (Fraction(1, 3), Fraction(20, 81))
    assert law3.components[1] == (Fraction(2, 3), Fraction(14, 81))
    assert law3.total_variance == Fraction(16, 81)
    # cdf is a proper distribution function
    assert law.cdf(0.0) == pytest.approx(0.5)
    assert law.cdf(10.0) == pytest.approx(1.0)
    assert law.cdf(-10.0) == pytest.approx(0.0, abs=1e-12)


def test_limit_law_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        limit_law_reference("complete", 2)
