import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from brute import (brute_by_third, brute_class_key, brute_count_chunk, brute_cycle_sets, brute_discover_classes,
                   brute_t3_third_central_moment, relabeled)
from helpers import UNION, discovery_corpus
from monoclt import census, fourthmoment
from monoclt.census import PyramidCounts, index_triangles, pyramid_counts, triangle_census
from monoclt.errors import BudgetExceededError, NoTrianglesError
from monoclt.fourthmoment import (
    bipyramid_quad_coefficient,
    class_coefficient,
    class_key,
    discover_classes,
    fourth_moment_exact,
    key_representative,
    pyramid_class_coefficient,
)
from monoclt.graph import FamilySpec, bipyramid_chain, complete, generate, gnp, pyramid
from monoclt.moments import cumulant_coefficient, t2_mean_var, t2_moments, t3_mean_var
from monoclt.ratpoly import evaluate
from monoclt.sim import exact_distribution

# frozen closed forms for the structurally identifiable classes
DELTA1 = (0, 0, 1, 0, -7, 0, 12, 0, -6)
DELTA2 = (0, 0, 0, 14, -14, -72, 60, 96, -84)
DELTA3 = (0, 0, 0, 0, 36, -108, -72, 360, -216)
DELTA4 = (0, 0, 0, 0, 0, 24, -168, 288, -144)
H16 = (0, 0, 0, 0, 0, 0, 0, 24, -24)

QUAD_REP = ((0, 2, 4), (1, 2, 5), (0, 3, 6), (1, 3, 7))


# enough points to pin polynomials of degree <= 8 in x = 1/c
COLORS = range(2, 12)


def test_cumulant_order_2_reproduces_the_variances():
    tri, pair = [(0, 1, 2)], [(0, 1, 2), (0, 1, 3)]
    assert cumulant_coefficient(tri, 1) == (0, 0, 1)
    assert cumulant_coefficient([(0, 1)], 1) == (0, 1)
    assert cumulant_coefficient(tri, 2) == (0, 0, 1, 0, -1)
    assert cumulant_coefficient(pair, 2) == (0, 0, 0, 2, -2)
    assert cumulant_coefficient([(0, 1)], 2) == (0, 1, -1)
    for c in COLORS:
        x = Fraction(1, c)
        one = t3_mean_var(PyramidCounts(1, 0, 0, 0), c)
        assert (one.mean, one.variance) == (x**2, x**2 * (1 - x**2))
        assert evaluate(cumulant_coefficient(tri, 2), x) == one.variance
        two = t3_mean_var(PyramidCounts(2, 1, 0, 0), c).variance
        assert evaluate(cumulant_coefficient(pair, 2), x) == two - 2 * one.variance == 2 * (x**3 - x**4)
        edge = t2_mean_var(1, c)
        assert (edge.mean, edge.variance) == (x, x * (1 - x))
        assert evaluate(cumulant_coefficient([(0, 1)], 2), x) == edge.variance


def test_cumulant_order_4_on_edges_reproduces_g1_g2_g3():
    # the classical kappa4(T2) = g1 |E| + g2 N(K3) + g3 N(C4), with
    # g1 = x (1 - 7x + 12x^2 - 6x^3), g2 = 36 x^2 (1 - x)(1 - 2x) and
    # g3 = 24 x^3 (1 - x), pinned by value
    edge = [(0, 1)]
    k3 = [(0, 1), (0, 2), (1, 2)]
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g1, g2, g3 = (0, 1, -7, 12, -6), (0, 0, 36, -108, 72), (0, 0, 0, 24, -24)
    assert cumulant_coefficient(edge, 4) == g1
    assert cumulant_coefficient(k3, 4) == g2
    assert cumulant_coefficient(c4, 4) == g3
    # and t2_moments sums exactly these three classes
    for c in COLORS:
        x = Fraction(1, c)
        for m, n3, n4 in ((1, 0, 0), (6, 4, 3), (10, 10, 15), (7, 0, 2)):
            rep = t2_moments(m, n3, n4, c)
            want = evaluate(g1, x) * m + evaluate(g2, x) * n3 + evaluate(g3, x) * n4
            assert rep.excess4 * rep.variance**2 == want
    # a forest of edges is independent, so it contributes nothing
    assert cumulant_coefficient([(0, 1), (1, 2)], 4) == ()
    assert cumulant_coefficient([(0, 1), (1, 2), (1, 3), (3, 4)], 4) == ()


def test_cumulant_order_4_of_one_triangle_at_two_colors():
    # E(Y - p)^4 - 3 Var(Y)^2 with p = 1/4: 21/256 - 3 (3/16)^2
    value = evaluate(class_coefficient([(0, 1, 2)]), Fraction(1, 2))
    assert value == Fraction(21, 256) - 3 * Fraction(3, 16) ** 2


@pytest.mark.parametrize(
    "g", [gnp(9, 0.5, 1), gnp(10, 0.6, 2), complete(6), pyramid(4), bipyramid_chain(3)],
    ids=["gnp9", "gnp10", "K6", "pyramid4", "bipyramid_chain3"],
)
def test_cumulant_order_3_sums_to_the_third_central_moment(g):
    # kappa3 = E(T3 - E T3)^3 is the sum over connected sets of at most
    # three triangles; disconnected ones have zero joint cumulant
    class_counts, _ = brute_discover_classes(triangle_census(g).triangles)
    for c in (2, 3, 5):
        x = Fraction(1, c)
        kappa3 = sum(
            evaluate(cumulant_coefficient(key_representative(key), 3), x) * cnt
            for key, cnt in class_counts.items()
            if key[0] <= 3
        )
        assert kappa3 == brute_t3_third_central_moment(g, c), c


def test_cumulant_coefficient_validation():
    with pytest.raises(ValueError):
        cumulant_coefficient([(0, 1, 2), (2, 1, 0)], 4)  # same clique twice
    with pytest.raises(ValueError):
        cumulant_coefficient([], 4)
    with pytest.raises(ValueError):
        cumulant_coefficient([(0, 1), (1, 2), (2, 3)], 2)  # more cliques than positions
    with pytest.raises(ValueError):
        class_coefficient([(0, 1, 2 + i) for i in range(5)])


def test_class_coefficient_identifiable_rows():
    assert class_coefficient([(0, 1, 2)]) == DELTA1
    assert pyramid_class_coefficient(1) == DELTA1
    assert pyramid_class_coefficient(2) == DELTA2
    assert pyramid_class_coefficient(3) == DELTA3
    assert pyramid_class_coefficient(4) == DELTA4
    assert bipyramid_quad_coefficient() == H16
    assert class_coefficient(QUAD_REP) == H16


def test_class_coefficient_zero_classes():
    # two triangles sharing exactly one vertex
    assert class_coefficient([(0, 1, 2), (0, 3, 4)]) == ()
    # two vertex-disjoint edge-sharing pairs
    assert class_coefficient([(0, 1, 2), (0, 1, 3), (4, 5, 6), (4, 5, 7)]) == ()
    # disconnected sets cancel in general
    assert class_coefficient([(0, 1, 2), (3, 4, 5)]) == ()
    assert class_coefficient([(0, 1, 2), (0, 1, 3), (4, 5, 6)]) == ()
    assert class_coefficient([(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]) == ()


def test_class_coefficient_sign_dichotomy_rows():
    assert evaluate(pyramid_class_coefficient(4), Fraction(1, 2)) == Fraction(-3, 16)
    assert evaluate(bipyramid_quad_coefficient(), Fraction(1, 2)) == Fraction(3, 32)
    for c in (2, 3, 4):
        assert evaluate(pyramid_class_coefficient(4), Fraction(1, c)) < 0
    for c in (5, 6, 7, 10):
        assert evaluate(pyramid_class_coefficient(4), Fraction(1, c)) > 0


def test_class_key_invariant_under_relabeling_and_order():
    rng = random.Random(5)
    tris = [(0, 1, 2), (0, 1, 3), (1, 3, 4), (2, 3, 4)]
    base = class_key(tris)
    for _ in range(10):
        perm = list(range(30))
        rng.shuffle(perm)
        mapped = [tuple(sorted(perm[v] for v in t)) for t in tris]
        rng.shuffle(mapped)
        assert class_key(mapped) == base


def test_class_key_distinguishes_shapes():
    shared_edge = class_key([(0, 1, 2), (0, 1, 3)])
    shared_vertex = class_key([(0, 1, 2), (0, 3, 4)])
    disjoint = class_key([(0, 1, 2), (3, 4, 5)])
    assert len({shared_edge, shared_vertex, disjoint}) == 3


def _tuples(triangles):
    """The census's triangle rows as a tuple of tuples."""
    return tuple(map(tuple, triangles.tolist()))


def test_class_key_equals_the_brute_canonical_form_on_random_sets():
    tris = _tuples(triangle_census(complete(9)).triangles)
    rng = random.Random(17)
    for _ in range(3000):
        chosen = rng.sample(tris, rng.randint(1, 4))
        perm = list(range(9))
        rng.shuffle(perm)
        relabelled = [tuple(perm[v] for v in t) for t in chosen]
        rng.shuffle(relabelled)
        key = brute_class_key(chosen)
        assert class_key(chosen) == key == class_key(relabelled) == brute_class_key(relabelled), chosen


def _realize_cells(tris, cells):
    """Triangles of the graph realizing each cell (share, types, k): a
    connected pair a < b sharing `share` vertices, whose union's slots are
    its a-only, b-only and shared vertices (each ascending), and no, one
    or two other distinct triangles meeting the union in the slots of the
    bitmasks in types, the two sharing k vertices outside it."""
    found = {}
    for i, j in itertools.combinations(range(len(tris)), 2):
        a, b = set(tris[i]), set(tris[j])
        if not a & b:
            continue
        slots = sorted(a - b) + sorted(b - a) + sorted(a & b)
        others = [t for n, t in enumerate(tris) if n not in (i, j) and set(t) & (a | b)]
        for r in (0, 1, 2):
            for extra in itertools.permutations(others, r):
                types = tuple(sum(1 << n for n, v in enumerate(slots) if v in t) for t in extra)
                k = len(set(extra[0]) & set(extra[1]) - a - b) if r == 2 else 0
                if (len(a & b), types, k) in cells:
                    found.setdefault((len(a & b), types, k), [tris[i], tris[j], *extra])
        if len(found) == len(cells):
            return found
    raise AssertionError(f"no triangles realize the cells {set(cells) - set(found)}")


# the chain keys no cell: no two of its triangles share an edge, no
# triangle holds two vertices of another pair's union, and its quadruples
# are counted per 4-cycle instead
@pytest.mark.parametrize("g,sizes,outside", [(complete(9), {2, 3, 4}, True), (bipyramid_chain(20), set(), False)],
                         ids=["K9", "bipyramid_chain20"])
def test_every_cell_keys_like_its_concrete_triangles(g, sizes, outside, monkeypatch):
    cells = set()
    cell_key = fourthmoment._cell_key
    monkeypatch.setattr(fourthmoment, "_cell_key",
                        lambda share, types=(), k=0: cells.add((share, types, k)) or cell_key(share, types, k))
    tc = triangle_census(g)
    tris = tc.triangles
    discover_classes(tc)
    # cells of 2, 3 and 4 triangles, and c and w sharing a vertex outside the pair
    assert {2 + len(types) for _, types, _ in cells} == sizes
    assert any(k for *_, k in cells) == outside
    # every further triangle holds two or more slots, so at most one
    # vertex outside the pair
    assert all(t.bit_count() >= 2 for _, types, _ in cells for t in types)
    assert {k for *_, k in cells} <= {0, 1}
    for cell, members in _realize_cells(tris, cells).items():
        assert cell_key(*cell) == class_key(members) == brute_class_key(members), cell


def test_discovery_canonicalises_each_pattern_multiset_once():
    tc = triangle_census(complete(9))
    for f in (fourthmoment._cell_key, fourthmoment._canonical):
        f.cache_clear()
    first = discover_classes(tc)
    info = fourthmoment._cell_key.cache_info()
    canon = fourthmoment._canonical.cache_info()
    # every cell of 2, 3 or 4 triangles is keyed once, and each distinct
    # pattern multiset is minimised over the triangle orders once
    assert info.hits == 0 and info.misses == info.currsize
    assert canon.hits + canon.misses == info.misses
    assert canon.misses == canon.currsize < canon.hits
    # a second discovery costs no canonicalisation at all
    assert discover_classes(tc) == first
    assert fourthmoment._canonical.cache_info() == canon
    assert fourthmoment._cell_key.cache_info().misses == info.misses


def test_key_representative_round_trip():
    for tris in ([(0, 1, 2)], [(0, 1, 2), (0, 1, 3)], list(QUAD_REP)):
        key = class_key(tris)
        rep = key_representative(key)
        assert class_key(rep) == key


def test_fourth_moment_spot_values():
    cases = [
        (complete(3), 2, Fraction(-2, 3)),
        (complete(4), 2, Fraction(5, 3)),
        (pyramid(2), 2, Fraction(-1, 4)),
    ]
    for g, c, want in cases:
        tc = triangle_census(g)
        dec = fourth_moment_exact(tc, c)
        assert dec.excess4 == want


def test_fourth_moment_matches_enumeration(small_corpus):
    for name, g in small_corpus:
        tc = triangle_census(g)
        pc = pyramid_counts(tc)
        if pc.n1 == 0:
            continue
        for c in (2, 3, 4, 5, 7):
            if c**g.n > 10**7:
                continue
            dec = fourth_moment_exact(tc, c)
            dist = exact_distribution(g, c)
            assert dec.excess4 == dist.excess4("T3"), (name, c)


def test_fourth_moment_relabeling_invariant():
    rng = random.Random(2)
    g = gnp(9, 0.5, 4)
    tc = triangle_census(g)
    base = fourth_moment_exact(tc, 3).excess4
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabeled(g, perm)
    tch = triangle_census(h)
    assert fourth_moment_exact(tch, 3).excess4 == base


def test_fourth_moment_requires_triangles():
    from monoclt.graph import cycle

    tc = triangle_census(cycle(5))
    with pytest.raises(NoTrianglesError):
        fourth_moment_exact(tc, 2)


def test_budget_enforced():
    tc = triangle_census(complete(6))
    with pytest.raises(BudgetExceededError):
        fourth_moment_exact(tc, 2, budget=10)


def _separable(tris) -> bool:
    # the triangles split into two nonempty groups whose vertex sets
    # share at most one vertex
    k = len(tris)
    for mask in range(1, 2 ** (k - 1)):
        left = set().union(*(tris[i] for i in range(k) if mask >> i & 1))
        right = set().union(*(tris[i] for i in range(k) if not mask >> i & 1))
        if len(left & right) <= 1:
            return True
    return False


def _nonzero_classes(class_counts: dict) -> list:
    return [
        (key, cnt)
        for key, cnt in sorted(class_counts.items())
        if class_coefficient(key_representative(key)) != ()
    ]


@pytest.fixture(scope="module")
def k9_brute():
    return brute_discover_classes(triangle_census(complete(9)).triangles)


# the walk over every connected set, once per triangle list for the tests below
_walk = functools.lru_cache(maxsize=None)(brute_discover_classes)


@pytest.mark.parametrize("g", discovery_corpus())
def test_discovery_matches_visiting_every_configuration(g):
    tc = triangle_census(g)
    disc = discover_classes(tc)
    class_counts, _ = _walk(_tuples(tc.triangles))
    assert [(rec.key, cnt) for rec, cnt in disc.entries] == _nonzero_classes(class_counts)


def _levels(counts) -> list[int]:
    # the sets of 1, 2, 3 and 4 triangles among class counts
    levels = [0] * 4
    for key, cnt in counts:
        levels[key[0] - 1] += cnt
    return levels


@pytest.mark.parametrize("g", discovery_corpus())
def test_connected_sets_per_level_match_the_walk(g):
    # discovery keys every single triangle and every pair on an edge, and
    # of each larger size no more sets than the walk finds connected
    tc = triangle_census(g)
    keyed = _levels((rec.key, cnt) for rec, cnt in discover_classes(tc).entries)
    connected = _levels(_walk(_tuples(tc.triangles))[0].items())
    assert keyed[:2] == [len(tc.triangles), sum(d * (d - 1) // 2 for d in tc.edge_d.tolist())]
    assert keyed[1] <= connected[1] and keyed[2] <= connected[2] and keyed[3] <= connected[3]


def _rows_read(monkeypatch) -> list[int]:
    # the triangle rows the cell and contact-cycle passes receive
    rows = [0]
    count_chunk, cycle_counts = fourthmoment._count_chunk, fourthmoment._cycle_counts

    def chunk(tc, slots, eid):
        rows[0] += int(np.where(eid < 0, 0, tc.edge_d[eid]).sum())
        return count_chunk(tc, slots, eid)

    def cycles(tc, e):
        rows[0] += int(tc.edge_d[e].sum())
        return cycle_counts(tc, e)

    monkeypatch.setattr(fourthmoment, "_count_chunk", chunk)
    monkeypatch.setattr(fourthmoment, "_cycle_counts", cycles)
    return rows


@pytest.mark.parametrize("g", discovery_corpus() + [pytest.param(complete(9), id="K9"),
                                                     pytest.param(gnp(60, 0.3, 1), id="gnp60")])
def test_budget_bounds_the_rows_the_passes_read(g, monkeypatch):
    tc = triangle_census(g)
    rows = _rows_read(monkeypatch)
    disc = discover_classes(tc, budget=fourthmoment._work(tc))
    assert disc.enumerated == fourthmoment._work(tc) >= rows[0] > 0


@pytest.mark.parametrize("g,bound", [
    pytest.param(g, bound, id=name + suffix)
    for bound, suffix in ((census._PASS, ""), (1, "-pass1"))
    for g, name in ((complete(7), "K7"), (complete(9), "K9"), (gnp(24, 0.4, 1), "gnp24"))
])
def test_contact_cycles_match_brute(g, bound, monkeypatch):
    # the two classes no pair reaches, per 4-cycle, against the sets of
    # four triangles whose intersection graph is a 4-cycle; at bound 1 the
    # census's wedge kernel takes one (top, bottom) group per pass
    tc = triangle_census(g)
    monkeypatch.setattr(census, "_PASS", bound)
    cycles = brute_cycle_sets(tc.triangles)
    got = fourthmoment._contact_cycles(tc)
    assert got == (cycles.get(CYCLE8, 0), cycles.get(CYCLE7, 0))
    assert min(got) > 0 or g.n == 7  # K7 has too few vertices for eight


def test_discovery_matches_visiting_every_configuration_on_k9(k9_brute):
    # every relabelling of K9 has the same triangle list, so one copy covers them
    class_counts, visited = k9_brute
    disc = discover_classes(triangle_census(complete(9)))
    assert [(rec.key, cnt) for rec, cnt in disc.entries] == _nonzero_classes(class_counts)
    assert visited == 1_893_675


def test_k9_zero_classes_are_exactly_the_separable_ones(k9_brute):
    # the bulk fourth level skips a triangle meeting the rest in one
    # vertex; this pins that such sets, and separable sets in general,
    # contribute nothing
    class_counts, visited = k9_brute
    assert len(class_counts) == 63
    zero = 0
    for key in class_counts:
        tris = [frozenset(t) for t in key_representative(key)]
        coeffs = class_coefficient(tris)
        # integer coefficients, trailing zeros stripped: a Fraction or a
        # padded row would still compare equal as a tuple
        assert all(type(a) is int for a in coeffs) and coeffs[-1:] != (0,), key
        is_zero = coeffs == ()
        assert is_zero == _separable(tris), key
        zero += is_zero
        for i, t in enumerate(tris):
            rest = set().union(*(u for j, u in enumerate(tris) if j != i))
            if len(tris) > 1 and len(t & rest) == 1:
                assert is_zero, key
    assert (zero, len(class_counts) - zero) == (31, 32)
    levels = {k: 0 for k in (1, 2, 3, 4)}
    for (k, _), cnt in class_counts.items():
        levels[k] += cnt
    assert levels == {1: 84, 2: 2_646, 3: 79_884, 4: 1_811_061}
    assert visited == 1_893_675


def _nonseparable(reps):
    return [rep for rep in reps if len(rep) == 4 and not _separable([set(t) for t in rep])]


def test_nonseparable_sets_meet_the_union_of_every_pair(k9_brute):
    # why the fourth level counts each such set from every connected pair
    reps = [key_representative(key) for key in k9_brute[0]] + [QUAD_REP]
    for rep in reps:
        tris = [set(t) for t in rep]
        if len(tris) < 3 or _separable(tris):
            continue
        for i, j in itertools.combinations(range(len(tris)), 2):
            union = tris[i] | tris[j]
            assert all(t & union for n, t in enumerate(tris) if n not in (i, j)), (rep, i, j)
    assert len(_nonseparable(reps)) == 25 + 1  # K9's four-triangle classes, H16 again


def _qualifying(rep) -> int:
    # connected pairs whose union holds two or more vertices of every other member
    tris = [set(t) for t in rep]
    return sum(
        bool(tris[i] & tris[j])
        and all(len(t & (tris[i] | tris[j])) >= 2 for n, t in enumerate(tris) if n not in (i, j))
        for i, j in itertools.combinations(range(len(tris)), 2)
    )


CYCLE8, CYCLE7 = class_key(QUAD_REP), class_key([(0, 1, 4), (1, 2, 5), (2, 3, 6), (3, 0, 6)])


def test_fourth_level_reaches_a_set_twice_per_qualifying_pair(k9_brute):
    # the cells reach a non-separable set of four once per order of the
    # other two from each qualifying pair; the two contact-cycle classes
    # have none and are counted per 4-cycle: counted on its own four
    # triangles, each set is found exactly once
    for rep in _nonseparable([key_representative(key) for key in k9_brute[0]] + [QUAD_REP]):
        key = class_key(rep)
        if key in (CYCLE8, CYCLE7):
            assert _qualifying(rep) == 0, rep
        else:
            assert fourthmoment._divisor(key) == 2 * _qualifying(rep) > 0, rep
        counts = fourthmoment._count_configurations(index_triangles(rep))
        assert counts[key] == 1, rep
        assert sum(cnt for (k, _), cnt in counts.items() if k == 4) == 1, rep


@pytest.mark.parametrize("m", [3, 4])
def test_qualifying_pairs_of_every_nonzero_class(k9_brute, m):
    # K9 realizes every nonzero class; each of m = 3 or 4 triangles has a
    # pair whose union holds two vertices of every other member, but the
    # two contact-cycle classes, and its divisor is that count (twice it
    # for four triangles: both orders of the other two)
    keys = [key for key, _ in _nonzero_classes(k9_brute[0]) if key[0] == m]
    assert len(keys) == {3: 5, 4: 25}[m]
    assert (CYCLE8 in keys and CYCLE7 in keys) == (m == 4)
    assert fourthmoment._CYCLE8 == CYCLE8 and fourthmoment._CYCLE7 == CYCLE7
    for key in keys:
        rep = key_representative(key)
        if key in (CYCLE8, CYCLE7):
            assert _qualifying(rep) == 0, key
        else:
            assert fourthmoment._divisor(key) == _qualifying(rep) * (m - 2) > 0, key
    if m == 3:
        # all five classes of three qualify at every one of their pairs
        assert [fourthmoment._divisor(key) for key in keys] == [3] * 5


def test_budget_bound_is_exact_through_python_integers(monkeypatch):
    # past 2^63 the bound's terms are summed as Python integers
    for g in (complete(9), gnp(16, 0.45, 3)):
        tc = triangle_census(g)
        want = fourthmoment._work(tc)
        monkeypatch.setattr(census, "_INT64", 1)
        got = fourthmoment._work(tc)
        monkeypatch.undo()
        assert got == want and type(got) is int


def test_k9_configurations_per_level():
    # of K9's 84, 2,646, 79,884 and 1,811,061 connected sets of one to four
    # triangles, those of a nonzero class
    counts = fourthmoment._count_configurations(triangle_census(complete(9)))
    assert _levels(counts.items()) == [84, 756, 23_184, 701_316]


def _forbid_passes(m):
    m.setattr(fourthmoment, "_count_chunk", lambda *a: pytest.fail("a pass ran"))
    m.setattr(fourthmoment, "_contact_cycles", lambda *a: pytest.fail("a 4-cycle pass ran"))


def test_budget_refuses_one_below_the_count_before_any_pass(monkeypatch):
    # W is 181,692 on K9 and 22,368 on composite(12): one less refuses
    # before any cell or 4-cycle is counted, and W itself runs
    for g, work in ((complete(9), 181_692), (generate(FamilySpec("composite", n=12, c=2)), 22_368)):
        tc = triangle_census(g)
        with monkeypatch.context() as m:
            _forbid_passes(m)
            with pytest.raises(BudgetExceededError, match=f"up to {work} rows"):
                discover_classes(tc, budget=work - 1)
        assert discover_classes(tc, budget=work).enumerated == work


def test_budget_refuses_k20_before_any_pass(monkeypatch):
    # K20's bound passes the default budget 4.7 times over, K30's 64 times
    _forbid_passes(monkeypatch)
    for n in (20, 30):
        with pytest.raises(BudgetExceededError):
            discover_classes(triangle_census(complete(n)))


@pytest.mark.parametrize("chunk,block,wedges", [(1, 5, 1), (1 << 20, 1 << 20, 1 << 20)], ids=["one_pair", "2^20"])
@pytest.mark.parametrize(
    "g", [complete(9), generate(FamilySpec("composite", n=12, c=2)), UNION],
    ids=["K9", "composite12", "union"],
)
def test_discovery_does_not_depend_on_the_chunk_bound(g, chunk, block, wedges, monkeypatch):
    # one connected pair per pass, five rows per Gram block and one
    # (top, bottom) group of contact-cycle wedges per pass, or everything
    # at once
    tc = triangle_census(g)
    want = discover_classes(tc)
    monkeypatch.setattr(fourthmoment, "_CHUNK", chunk)
    monkeypatch.setattr(fourthmoment, "_BLOCK", block)
    monkeypatch.setattr(census, "_PASS", wedges)
    assert discover_classes(tc) == want


@pytest.mark.parametrize(
    "g", [complete(9), generate(FamilySpec("composite", n=12, c=2)), gnp(16, 0.45, 3)],
    ids=["K9", "composite12", "gnp16"],
)
def test_index_of_bare_rows_matches_the_census(g):
    # the census's rows, in another order and each row shuffled, index to
    # the same census: every triangle's largest vertex is g.n - 1 here
    tc = triangle_census(g)
    rng = random.Random(3)
    rows = [rng.sample(t, 3) for t in tc.triangles.tolist()]
    rng.shuffle(rows)
    got = index_triangles(rows)
    assert got.n == tc.n
    for a, b in [(got.triangles, tc.triangles), (got.edge_keys, tc.edge_keys), (got.edge_d, tc.edge_d),
                 *zip(got.at, tc.at), *zip(got.on, tc.on)]:
        assert a.tolist() == b.tolist()
    assert discover_classes(got) == discover_classes(tc)


def test_discovery_counts_on_k4():
    # K4: 4 single triangles, 6 shared-edge pairs, 4 one-face-missing
    # triples, 1 full tetrahedron quadruple; every class connected
    disc = discover_classes(triangle_census(complete(4)))
    by_size = {}
    for rec, cnt in disc.entries:
        assert rec.is_connected()
        by_size[rec.specified_triangles] = by_size.get(rec.specified_triangles, 0) + cnt
    assert by_size == {1: 4, 2: 6, 3: 4, 4: 1}


def test_decomposition_counts_on_pyramid():
    # the n-pyramid realizes exactly the four shared-edge classes
    g = pyramid(6)
    tc = triangle_census(g)
    dec = fourth_moment_exact(tc, 2)
    got = {rec.key: cnt for rec, cnt in dec.entries}
    expected = {
        class_key([(0, 1, 2 + i) for i in range(s)]): n
        for s, n in ((1, 6), (2, 15), (3, 20), (4, 15))
    }
    assert got == expected


def test_decomposition_counts_on_bipyramid_chain():
    # 2n single triangles plus C(n,2) hub-alternation quadruples
    g = bipyramid_chain(3)
    tc = triangle_census(g)
    dec = fourth_moment_exact(tc, 2)
    got = {rec.key: cnt for rec, cnt in dec.entries}
    assert got == {class_key([(0, 1, 2)]): 6, class_key(QUAD_REP): 3}


def test_k9_all_classes_against_enumeration():
    # K9 realizes every one of the 32 classes, so this one equality
    # validates all coefficient polynomials at once (1.95M colorings)
    g = complete(9)
    tc = triangle_census(g)
    dec = fourth_moment_exact(tc, 5)
    assert len(dec.entries) == 32
    assert dec.excess4 == Fraction(4673, 252)
    assert dec.excess4 == exact_distribution(g, 5, threads=4).excess4("T3")


def test_composite_decomposition_frozen_value():
    # pyramid(8) + chain(17) at c=2: the five contributing classes give
    # (42 d1 + 28 d2 + 56 d3 + 70 d4 + 136 h16) / sigma^4 = -1123/8281,
    # frozen from an independent hand evaluation of the closed forms
    from monoclt.graph import disjoint_union

    g = disjoint_union(pyramid(8), bipyramid_chain(17))
    tc = triangle_census(g)
    dec = fourth_moment_exact(tc, 2)
    assert dec.excess4 == Fraction(-1123, 8281)
    got = {rec.key: cnt for rec, cnt in dec.entries}
    expected = {
        class_key([(0, 1, 2 + i) for i in range(s)]): cnt
        for s, cnt in ((1, 8 + 34), (2, 28), (3, 56), (4, 70))
    }
    expected[class_key(QUAD_REP)] = 136
    assert got == expected


def test_decomposition_json_schema():
    tc = triangle_census(complete(4))
    dec = fourth_moment_exact(tc, 2)
    blob = dec.to_json_dict()
    assert blob["excess4"] == {"num": "5", "den": "3", "float": pytest.approx(5 / 3)}
    assert len(blob["classes"]) == 4
    for entry in blob["classes"]:
        assert set(entry) == {
            "signature",
            "representative_triangles",
            "representative_edges",
            "coefficient",
            "count",
        }
        int(entry["count"])
        for coef in entry["coefficient"]:
            int(coef)


# a triangle cut in four without its centre 345: the edges 34, 35 and 45
# carry triangles, but the triple 345 is not one
TRIFORCE = index_triangles([(0, 3, 5), (1, 3, 4), (2, 4, 5)])


@pytest.mark.parametrize("chunk", [1, fourthmoment._CHUNK], ids=["one_run", "default"])
@pytest.mark.parametrize("g", discovery_corpus() + [
    pytest.param(complete(9), id="K9"),
    pytest.param(relabeled(gnp(30, 0.4, 2), random.Random(5).sample(range(30), 30)), id="gnp30_relabelled")])
def test_pairs_yield_each_connected_pair_once_with_its_slots(g, chunk, monkeypatch):
    # every connected pair a < b of triangles once, its slots the sets a - b,
    # b - a and a & b in that order, against a listing of all pairs
    tc = triangle_census(g)
    monkeypatch.setattr(fourthmoment, "_CHUNK", chunk)
    got = []
    for sh, slots in fourthmoment._pairs(tc):
        assert slots.shape[1] == 6 - sh
        got += [(sorted(r[:3 - sh]), sorted(r[3 - sh:6 - 2 * sh]), sorted(r[6 - 2 * sh:])) for r in slots.tolist()]
    tris = [set(t) for t in tc.triangles.tolist()]
    want = [(sorted(a - b), sorted(b - a), sorted(a & b)) for a, b in itertools.combinations(tris, 2) if a & b]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("chunk", [1, fourthmoment._CHUNK], ids=["one_pair", "default"])
@pytest.mark.parametrize("g", discovery_corpus() + [
    pytest.param(g, id=name) for name, g in (
        ("K9", complete(9)), ("K12", complete(12)), ("pyramid100", pyramid(100)),
        ("bipyramid_chain60", bipyramid_chain(60)), ("gnp30", gnp(30, 0.4, 2)), ("triforce", TRIFORCE))
])
def test_cells_equal_the_row_reference(g, chunk, monkeypatch):
    # the cells from per-pair counts, against those from typing every row
    # on the slot edges, at one pair per pass and at the default bound
    tc = g if isinstance(g, census.TriangleCensus) else triangle_census(g)
    monkeypatch.setattr(fourthmoment, "_CHUNK", chunk)
    got = fourthmoment._cells(tc)
    monkeypatch.setattr(fourthmoment, "_count_chunk", brute_count_chunk)
    want = fourthmoment._cells(tc)
    assert [a.tolist() for sh in (1, 2) for a in got[sh]] == [a.tolist() for sh in (1, 2) for a in want[sh]]


@pytest.mark.parametrize("g", discovery_corpus() + [pytest.param(complete(9), id="K9")])
def test_grouping_by_third_vertex_equals_the_row_reference(g):
    # random owners over edges drawn with repeats, and no edges at all
    tc = triangle_census(g)
    rng = np.random.default_rng(5)
    for size in (0, 1, 3 * len(tc.edge_keys)):
        e = rng.integers(len(tc.edge_keys), size=size)
        owner = rng.integers(4, size=size)
        k, group, owners, x = fourthmoment._by_third(tc, owner, e)
        want = brute_by_third(tc, owner, e)
        assert len(k) == len(group) == sum(map(len, want.values()))
        got = {(o, v): k[group == j].tolist() for j, (o, v) in enumerate(zip(owners.tolist(), x.tolist()))}
        assert list(got.items()) == list(want.items())
