import io
import math
import random
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest

from brute import brute_joint_law, brute_mono_counts, relabeled
from helpers import t2_inputs
from monoclt import sim
from monoclt.census import _rank, pyramid_counts, triangle_census
from monoclt.errors import BadParamsError, TooLargeError
from monoclt.graph import Graph, complete, cycle, gnp, pyramid, star
from monoclt.moments import t2_moments, t3_mean_var
from monoclt.sim import (
    SimConfig,
    _block_rng,
    atom_summary,
    exact_distribution,
    sample_statistics,
)


def test_exact_distribution_examples():
    assert exact_distribution(complete(3), 2).t3_pmf() == {0: Fraction(3, 4), 1: Fraction(1, 4)}
    assert exact_distribution(pyramid(2), 2).t3_pmf() == {
        0: Fraction(10, 16),
        1: Fraction(4, 16),
        2: Fraction(2, 16),
    }
    assert exact_distribution(complete(4), 2).t3_pmf() == {
        0: Fraction(6, 16),
        1: Fraction(8, 16),
        4: Fraction(2, 16),
    }


def test_exact_distribution_is_a_pmf(small_corpus):
    for name, g in small_corpus:
        if g.n > 8:
            continue
        dist = exact_distribution(g, 2)
        assert sum(dist.joint.values()) == 1, name
        assert all(p > 0 for p in dist.joint.values())


BRUTE_LAW_CASES = [
    ("n0", Graph.from_edges(0, []), 3),
    ("n1", Graph.from_edges(1, []), 3),
    ("edgeless", Graph.from_edges(5, []), 3),
    *((f"K4_c{c}", complete(4), c) for c in range(2, 7)),
    *((f"gnp8_c{c}", gnp(8, 0.4, 1), c) for c in (2, 3)),
    *((f"gnp8_perm{i}_c{c}", relabeled(gnp(8, 0.4, 1), perm), c)
      for i, perm in enumerate([(7, 6, 5, 4, 3, 2, 1, 0), (3, 0, 6, 1, 7, 4, 2, 5)])
      for c in (2, 3)),
    ("edge_c300", Graph.from_edges(2, [(0, 1)]), 300),
    # prefixes of two or three vertices, picked by load away from the
    # first ids: the leaves, the apexes, the isolated vertices
    ("star9_c3", star(9), 3),
    ("pyramid7_c3", pyramid(7), 3),
    ("gnp10_c3", gnp(10, 0.5, 1), 3),
    ("gnp15_c2", gnp(15, 0.3, 1), 2),
    ("isolated_c3", Graph.from_edges(9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]), 3),
]


@pytest.mark.parametrize("name,g,c", BRUTE_LAW_CASES, ids=[case[0] for case in BRUTE_LAW_CASES])
def test_exact_distribution_matches_visiting_every_coloring(name, g, c):
    # the prefix holds the least loaded vertices; the relabelled copies and
    # the uneven graphs put other vertices than the first ones there
    total = c**g.n
    want = {key: Fraction(k, total) for key, k in brute_joint_law(g, c).items()}
    assert exact_distribution(g, c).joint == want


def test_exact_distribution_cap():
    with pytest.raises(TooLargeError):
        exact_distribution(complete(10), 5, cap=10**6)


def test_exact_law_does_not_depend_on_vertex_labels():
    g = gnp(13, 0.4, 1)
    law = exact_distribution(g, 3).joint
    rng = random.Random(13)
    for _ in range(3):
        perm = rng.sample(range(g.n), g.n)
        assert exact_distribution(relabeled(g, perm), 3).joint == law


def test_exact_distribution_thread_invariance():
    g = gnp(10, 0.4, 6)
    a = exact_distribution(g, 3)
    b = exact_distribution(g, 3, threads=4)
    assert a.joint == b.joint


def test_exact_moments_match_closed_forms(small_corpus):
    for name, g in small_corpus:
        tc = triangle_census(g)
        pc = pyramid_counts(tc)
        for c in (2, 3, 5):
            dist = exact_distribution(g, c)
            mu2, v2, m42 = dist.moments("T2")
            rep2 = t2_moments(*t2_inputs(g), c)
            assert (mu2, v2) == (rep2.mean, rep2.variance), (name, c)
            assert dist.excess4("T2") == rep2.excess4, (name, c)
            if pc.n1 >= 1:
                rep3 = t3_mean_var(pc, c)
                assert dist.moments("T3")[:2] == (rep3.mean, rep3.variance), (name, c)


def test_sampler_determinism_same_seed():
    g = pyramid(20)
    cfg = SimConfig(c=2, replications=3000, seed=99)
    assert sample_statistics(g, cfg) == sample_statistics(g, cfg)


def test_sampler_thread_invariance():
    g = gnp(15, 0.4, 12)
    cfg = SimConfig(c=3, replications=5000, seed=5)
    reports = [sample_statistics(g, cfg, threads=t) for t in (None, 1, 4, 8)]
    assert all(r == reports[0] for r in reports)


def test_sampler_seed_sensitivity():
    g = pyramid(20)
    a = sample_statistics(g, SimConfig(c=2, replications=2000, seed=1))
    b = sample_statistics(g, SimConfig(c=2, replications=2000, seed=2))
    assert a["T3"].distribution != b["T3"].distribution


def test_sampler_statistic_selection():
    g = complete(4)
    only_t2 = sample_statistics(g, SimConfig(c=2, replications=100, seed=0, statistic="T2"))
    assert list(only_t2) == [s.statistic for s in only_t2.values()] == ["T2"]
    both = sample_statistics(g, SimConfig(c=2, replications=100, seed=0))
    assert list(both) == [s.statistic for s in both.values()] == ["T2", "T3"]


def test_sampler_mean_within_four_standard_errors(small_corpus):
    reps = 20000
    for name, g in small_corpus:
        tc = triangle_census(g)
        pc = pyramid_counts(tc)
        if pc.n1 == 0:
            continue
        cfg = SimConfig(c=3, replications=reps, seed=17, statistic="T3")
        report = sample_statistics(g, cfg)
        model = t3_mean_var(pc, 3)
        se = math.sqrt(float(model.variance) / reps)
        assert abs(float(report["T3"].mean) - float(model.mean)) < 4 * se, name


def test_sampler_empirical_moments_are_exact_fractions():
    g = complete(4)
    report = sample_statistics(g, SimConfig(c=2, replications=1000, seed=3))
    s = report["T3"]
    values = []
    for v, n in s.distribution:
        values.extend([v] * n)
    mean = Fraction(sum(values), len(values))
    assert s.mean == mean
    assert s.variance == Fraction(sum(v * v for v in values), len(values)) - mean**2


def test_atom_summary_two_clusters():
    values = [-0.25, 0.24, 0.25, 0.26]
    masses = [0.5, 0.125, 0.25, 0.125]
    atoms = atom_summary(values, masses, min_gap=0.1)
    assert len(atoms) == 2
    assert atoms[0].location == pytest.approx(-0.25)
    assert atoms[0].mass == pytest.approx(0.5)
    assert atoms[1].location == pytest.approx(0.25)
    assert atoms[1].mass == pytest.approx(0.5)


def test_atom_summary_single_cluster():
    atoms = atom_summary([0.0, 0.01, 0.02], [0.2, 0.5, 0.3], min_gap=0.1)
    assert len(atoms) == 1
    assert atoms[0].mass == pytest.approx(1.0)


def test_triangle_free_graph_t3_report():
    g = cycle(6)
    report = sample_statistics(g, SimConfig(c=2, replications=500, seed=8))
    s = report["T3"]
    assert s.distribution == ((0, 500),)
    assert s.ks_normal is None


def test_report_distribution_invariants(small_corpus):
    for name, g in small_corpus[:4]:
        report = sample_statistics(g, SimConfig(c=2, replications=2000, seed=4))
        for s in report.values():
            counts = [n for _, n in s.distribution]
            values = [v for v, _ in s.distribution]
            assert values == sorted(values)
            assert sum(counts) == 2000  # empirical CDF ends at 1
            assert all(n > 0 for n in counts)
            if s.ks_normal is not None:
                assert 0.0 <= s.ks_normal <= 1.0


def test_raw_sample_streaming():
    import io

    g = complete(4)
    cfg = SimConfig(c=2, replications=3000, seed=13)
    sinks = {"T2": io.BytesIO(), "T3": io.BytesIO()}
    report = sample_statistics(g, cfg, raw_sinks=sinks)
    for stat in ("T2", "T3"):
        raw = np.frombuffer(sinks[stat].getvalue(), dtype="<i8")
        assert len(raw) == 3000
        counts = {v: int(n) for v, n in zip(*np.unique(raw, return_counts=True))}
        assert counts == dict(report[stat].distribution)
    # replication order is thread-invariant
    threaded = {"T3": io.BytesIO()}
    sample_statistics(g, cfg, threads=4, raw_sinks=threaded)
    single = {"T3": io.BytesIO()}
    sample_statistics(g, cfg, raw_sinks=single)
    assert threaded["T3"].getvalue() == single["T3"].getvalue()


KERNEL_CORPUS = {
    "gnp8": gnp(8, 0.4, 1),
    "K5": complete(5),
    "C4": cycle(4),
    "edgeless": Graph.from_edges(5, []),
}


def windmill(blades):
    """blades triangles sharing vertex 0 and nothing else."""
    spokes = [(0, v) for v in range(1, 2 * blades + 1)]
    return Graph.from_edges(2 * blades + 1, spokes + [(v, v + 1) for v in range(1, 2 * blades, 2)])


def wheel(m):
    """Vertex 0 joined to each vertex of the cycle 1..m: m triangles on m spokes."""
    spokes = [(0, v) for v in range(1, m + 1)]
    return Graph.from_edges(m + 1, spokes + [(v, v % m + 1) for v in range(1, m + 1)])


# each of the last three has one apex on more than 255 edges, and each of
# pyramid300 and windmill300 one on more than 255 triangles too
PLAN_CORPUS = {**KERNEL_CORPUS, "K30": complete(30), "gnp120": gnp(120, 0.5, 1),
               "pyramid300": pyramid(300), "star600": star(600), "windmill300": windmill(300)}


@pytest.mark.parametrize("c", [2, 3, 300])
@pytest.mark.parametrize("name", list(PLAN_CORPUS))
def test_mono_counts_equal_the_clique_reference(name, c):
    # the edge-row kernel against the k-clique kernel it replaced: T2 and
    # T3 together and each alone at the sampler's (degree, id) apexes, no
    # chunk gathering more than SLAB edge rows, and both at the exhaustive
    # oracle's least-label apexes, split at a prefix
    g = PLAN_CORPUS[name]
    tc = triangle_census(g)
    tris, none = tc.triangles, np.empty((0, 3), np.int64)
    carried = np.stack(np.divmod(tc.edge_keys, g.n), 1)  # the edges that carry a triangle
    rank = _rank(np.bincount(g.edge_array.ravel(), minlength=g.n))
    least, j = np.arange(g.n)[::-1], g.n // 3
    touch = [k.min(1) < j for k in (g.edge_array, tris)]
    rng = np.random.default_rng(c)
    for cols in (1, 3, 1023):
        ct = rng.integers(0, c, size=(g.n, cols)).astype(sim._color_dtype(c))
        t2, t3 = (brute_mono_counts(ct, k, 255).tolist() for k in (g.edge_array, tris))
        zero = [0] * cols
        for edges, k, count, want in ((g.edge_array, tris, True, (t2, t3)),
                                      (g.edge_array, none, True, (t2, zero)),
                                      (carried, tris, False, (zero, t3))):
            plan = sim._plan(rank, edges, k, sim.SLAB, count)
            assert max((len(v) for _, v, _, _ in plan), default=0) <= sim.SLAB
            assert [x.tolist() for x in sim._mono_counts(ct, plan)] == list(want)
        split = [sim._mono_counts(ct, sim._plan(least, g.edge_array[t], tris[u], sim.SLAB, True))
                 for t, u in ((~touch[0], ~touch[1]), touch)]
        assert [(split[0][x] + split[1][x]).tolist() for x in (0, 1)] == [t2, t3]


def _sample_bytes(g, threads):
    sinks = {"T2": io.BytesIO(), "T3": io.BytesIO()}
    cfg = SimConfig(c=3, replications=2500, seed=4)
    report = sample_statistics(g, cfg, threads=threads, raw_sinks=sinks)
    return report, sinks["T2"].getvalue(), sinks["T3"].getvalue()


@pytest.mark.parametrize("slab", [1, 2])
@pytest.mark.parametrize("name", list(KERNEL_CORPUS))
def test_results_do_not_depend_on_the_slab_size(monkeypatch, name, slab):
    # one- and two-clique slabs cross a slab boundary in every gather,
    # and two leaves a short last slab on odd clique counts
    g = KERNEL_CORPUS[name]
    laws = {c: exact_distribution(g, c).joint for c in (2, 3)}
    sample = _sample_bytes(g, 1)
    monkeypatch.setattr(sim, "SLAB", slab)
    for c, joint in laws.items():
        assert exact_distribution(g, c, threads=2).joint == joint
    assert _sample_bytes(g, 1) == sample
    assert _sample_bytes(g, 2) == sample


def _plain_counts(ct, cliques):
    """Per column of ct, the cliques whose vertices share one colour,
    counted one clique at a time."""
    rows = cliques.tolist()
    return [sum(len({col[v] for v in q}) == 1 for q in rows) for col in ct.T.tolist()]


def _sampler_plan(g, rows=sim.SLAB):
    """The sampler's plan of g for T2 and T3."""
    rank = _rank(np.bincount(g.edge_array.ravel(), minlength=g.n))
    return sim._plan(rank, g.edge_array, triangle_census(g).triangles, rows, True)


def _plan_rows(plan):
    """The edges a plan counts for T2 and the triangles it counts."""
    edges = sum(len(v) for _, v, count, _ in plan if count)
    return edges, sum(len(v[j]) for _, v, _, slabs in plan for _, j in slabs)


@pytest.mark.parametrize("c", [3, 300], ids=["uint8", "uint16"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("m", [254, 255, 256, 510, 511, 1000])
def test_mono_counts_across_the_uint8_tally_boundary(m, k, c):
    # one apex carries all m edges (a star) or all m triangles (a wheel,
    # its hub on m spokes), in one chunk up to 255 and as a hub past it;
    # column 0 is one colour, so every edge and triangle hits there and
    # each full chunk or slab tallies exactly 255; at c = 300 the colours
    # 43 and 299 (and 0 and 256) share a low byte but are distinct
    g = star(m) if k == 2 else wheel(m)
    tris = triangle_census(g).triangles
    plan = _sampler_plan(g)
    rng = np.random.default_rng(m * k + c)
    palette = np.array([0, 1, 2] if c == 3 else [0, 43, 256, 299])
    for cols in (1, 3, 1023):
        ct = palette[rng.integers(0, len(palette), size=(g.n, cols))].astype(sim._color_dtype(c))
        ct[:, 0] = c - 1
        t2, t3 = sim._mono_counts(ct, plan)
        assert t2.tolist() == _plain_counts(ct, g.edge_array)
        assert t3.tolist() == _plain_counts(ct, tris)
        assert (t2[0], t3[0]) == (g.edge_count, len(tris))


def test_partial_uint16_block_across_slabs_is_thread_invariant():
    # K13 has 286 triangles, two slabs; 1,500 replications leave a
    # partial second block; on a complete graph a colour used by j
    # vertices makes C(j, 2) monochromatic edges and C(j, 3) triangles
    g = complete(13)
    cfg = SimConfig(c=300, replications=1500, seed=8)
    runs = []
    for threads in (1, 2):
        sinks = {"T2": io.BytesIO(), "T3": io.BytesIO()}
        report = sample_statistics(g, cfg, threads=threads, raw_sinks=sinks)
        runs.append((report, sinks["T2"].getvalue(), sinks["T3"].getvalue()))
    assert runs[0] == runs[1]
    colors = np.concatenate([
        _block_rng(cfg.seed, b).integers(0, 300, size=(size, 13), dtype=np.uint16)
        for b, size in ((0, 1024), (1, 476))
    ])
    sizes = [np.bincount(row, minlength=300) for row in colors]
    for raw, k in ((runs[0][1], 2), (runs[0][2], 3)):
        expected = [sum(math.comb(int(j), k) for j in row) for row in sizes]
        assert np.frombuffer(raw, dtype="<i8").tolist() == expected


@pytest.mark.parametrize("suffix", [1, "c", 2**20])
@pytest.mark.parametrize("name", list(KERNEL_CORPUS))
def test_results_do_not_depend_on_the_suffix_size(monkeypatch, name, suffix):
    # 1 puts every vertex in the prefix; c gives a one-vertex suffix;
    # 2**20 leaves a one-vertex prefix on every graph here
    g = KERNEL_CORPUS[name]
    laws = {c: exact_distribution(g, c).joint for c in (2, 3)}
    for c, joint in laws.items():
        monkeypatch.setattr(sim, "SUFFIX", c if suffix == "c" else suffix)
        assert exact_distribution(g, c, threads=2).joint == joint


def test_exhaustive_oracle_evaluates_colourings_up_to_permutation(monkeypatch):
    columns = []
    mono_counts = sim._mono_counts

    def counting(ct, plan):  # one call per evaluated block
        columns.append(ct.shape[1])
        return mono_counts(ct, plan)

    monkeypatch.setattr(sim, "_mono_counts", counting)
    exact_distribution(complete(10), 4)
    # the suffix block once, then 15 growth strings on the 4 prefix
    # vertices, each times 4^6 suffix colourings: 16 x 4,096 = 65,536
    # columns, against the 4^10 = 1,048,576 covered
    assert sum(columns) < 70_000


def test_exhaustive_oracle_counts_suffix_cliques_once(monkeypatch):
    rows = []
    mono_counts = sim._mono_counts

    def recording(ct, plan):
        rows.append(_plan_rows(plan))
        return mono_counts(ct, plan)

    monkeypatch.setattr(sim, "_mono_counts", recording)
    exact_distribution(complete(10), 4)
    # the 15 edges and 20 triangles of the 6 suffix vertices once, then
    # the 30 and 100 that touch the 4 prefix vertices for each of the 15
    # growth strings: 1,985 rows, against 15 x 165 = 2,475 counted per string
    assert rows == [(15, 20)] + [(30, 100)] * 15


def test_exhaustive_oracle_memory_is_bounded_by_its_slabs():
    # what one prefix string holds at once: the colour block (10 x 4^6
    # uint8), the tally over (T2, T3) pairs and its three per-string
    # copies (counted, cast, weighted), three int64 counts per column (the
    # suffix cliques' counts, the string's sum and one count), and three
    # slab temporaries of at most 2^16 bytes (a chunk's two gathers and
    # their comparison, or its hits and a slab's two gathers of them), plus
    # 64 KB of small objects; 255-row slabs of 4096 columns alone pass 1 MB
    g = complete(10)
    tc = triangle_census(g)
    columns = 4**6
    tally = 8 * (g.edge_count + 1) * (len(tc.triangles) + 1)
    bound = g.n * columns + 4 * tally + 3 * 8 * columns + 3 * 2**16 + 2**16
    tracemalloc.start()
    try:
        exact_distribution(g, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_colour_kernel_holds_three_slab_temporaries():
    # a chunk over one-byte colours holds its apexes' and its other ends'
    # colours and their comparison, then the hits and a slab's two gathers
    # of them, of at most 16 x 4,096 bytes each, beside the two int64
    # counts, one uint8 row of tallies and 16 KB of small objects; a
    # fourth slab temporary would pass the bound
    ct = np.random.default_rng(0).integers(0, 3, size=(9, 4096), dtype=np.uint8)
    plan = _sampler_plan(complete(9), rows=16)
    tracemalloc.start()
    try:
        sim._mono_counts(ct, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**16 + 2 * 8 * 4096 + 4096 + 2**14


def test_exact_law_with_uint16_colours():
    law = exact_distribution(Graph.from_edges(2, [(0, 1)]), 300)
    assert law.t2_pmf() == {0: Fraction(299, 300), 1: Fraction(1, 300)}
    assert law.t3_pmf() == {0: Fraction(1)}


def test_exact_law_past_64_bit_masses():
    # c^n >= 2^63 only with a raised cap; the perm(c, m) weights and the
    # tallies must then stay exact
    c = 2**30
    law = exact_distribution(complete(3), c, cap=c**3)
    assert law.joint == {
        (3, 1): Fraction(1, c**2),
        (1, 0): Fraction(3 * (c - 1), c**2),
        (0, 0): Fraction((c - 1) * (c - 2), c**2),
    }


def test_block_pool_is_bounded_by_the_machine(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records max_workers, starts
        no thread and runs each call as it is submitted."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(sim, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    g = gnp(8, 0.4, 1)
    cfg = SimConfig(c=3, replications=5000, seed=2)  # 5 blocks
    assert sample_statistics(g, cfg, threads=10**6) == sample_statistics(g, cfg, threads=1)
    # the exhaustive oracle accepts threads but starts no pool
    law = exact_distribution(g, 4, threads=10**6)
    assert law.joint == exact_distribution(g, 4, threads=1).joint
    assert sizes == [3]
    monkeypatch.setattr(sim.os, "cpu_count", lambda: None)  # unknown: serial
    sample_statistics(g, cfg, threads=10**6)
    assert sizes == [3]


def test_block_streams_distinct_at_and_above_2_63():
    draws = {
        tuple(_block_rng(seed, 0).integers(0, 1000, size=6).tolist())
        for seed in (2**63, 2**63 + 1, 2**63 + 2, 2**64 - 1)
    }
    assert len(draws) == 4


def test_block_streams_pinned_below_2_63():
    # these streams predate the uint64 key and must not move, so that
    # reports made with seeds below 2^63 stay reproducible
    pinned = {
        (12345, 0): [57, 646, 544, 774, 961, 786],
        (2**62 + 7, 3): [802, 76, 760, 141, 83, 148],
        (2**63 - 1, 1): [979, 88, 744, 416, 570, 949],
    }
    for (seed, block), want in pinned.items():
        assert _block_rng(seed, block).integers(0, 1000, size=6).tolist() == want


# c = 2 rejects nothing; 129 rejects 127 of every 256 bytes; the rest
# cross each width's edges, c = 2^32 and 2^64 being full-range words. Each
# power of two (2, 4, 256, 2^16, 2^32, 2^33, 2^63, 2^64) keeps the top bits
# of a word by one shift
DRAW_COLORS = [2, 3, 4, 129, 256, 257, 300, 32769, 65536, 70000, 2**31 + 1, 2**32,
               2**32 + 1, 2**33, 2**40, 2**63, 2**63 + 1, 2**64 - 1, 2**64]


@pytest.mark.parametrize("c", DRAW_COLORS)
def test_draw_block_is_the_generators_bounded_integers(c):
    dtype = sim._color_dtype(c)
    for seed, block, n, size in ((5, 0, 13, 1), (5, 2, 13, 476), (7, 1, 1, 1024),
                                 (3, 6, 300, 1024), (9, 3, 0, 4), (2**64 - 1, 0, 257, 3)):
        want = _block_rng(seed, block).integers(0, c, size=(size, n), dtype=dtype).T
        got = sim._draw_block(seed, block, c, n, size)
        assert got.dtype == want.dtype and got.shape == (n, size)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("c", DRAW_COLORS)
def test_draw_block_does_not_depend_on_its_bounds(monkeypatch, c):
    # a 1-byte piece is one replication and a 1-word draw at most eight
    # colours, so colours carry across every cut; a 2^40-byte piece is a
    # whole block
    def blocks(piece, words, shapes):
        monkeypatch.setattr(sim, "_PIECE", piece)
        monkeypatch.setattr(sim, "_WORDS", words)
        return [sim._draw_block(11, 4, c, n, size).tobytes() for n, size in shapes]

    shapes = [(1, sim.BLOCK), (37, sim.BLOCK), (300, sim.BLOCK), (37, 40)]
    want = blocks(sim._PIECE, sim._WORDS, shapes)
    assert blocks(1, sim._WORDS, shapes) == want
    assert blocks(2**40, sim._WORDS, shapes) == want
    assert blocks(2**40, 1, shapes[3:]) == want[3:]
    assert blocks(1, 1, shapes[3:]) == want[3:]


@pytest.mark.parametrize("statistic", ["T2", "T3", "both"])
def test_each_block_yields_only_its_values(monkeypatch, statistic):
    # the value counts are the fold's: a finished block carries each
    # requested statistic's int64 per-replication values and nothing else
    g = gnp(8, 0.4, 1)
    cfg = SimConfig(c=3, replications=2500, seed=4, statistic=statistic)
    want = {"T2": g.edge_array, "T3": triangle_census(g).triangles}
    if statistic != "both":
        want = {statistic: want[statistic]}
    blocks = []
    map_blocks = sim._map_blocks

    def recorded(fn, items, threads):
        for out in map_blocks(fn, items, threads):
            blocks.append(out)
            yield out

    monkeypatch.setattr(sim, "_map_blocks", recorded)
    sample_statistics(g, cfg, threads=2)
    assert len(blocks) == 3
    for b, out in enumerate(blocks):
        size = min(sim.BLOCK, cfg.replications - b * sim.BLOCK)
        ct = _block_rng(cfg.seed, b).integers(0, cfg.c, size=(size, g.n), dtype=np.uint8).T
        assert list(out) == list(want)
        for name, values in out.items():
            assert values.dtype == np.int64 and values.shape == (size,)
            assert values.tolist() == _plain_counts(ct, want[name])


class _NullSink:
    def write(self, data):
        return len(data)


def _sampling_peak(g, blocks, threads):
    cfg = SimConfig(c=3, replications=blocks * sim.BLOCK, seed=6)
    tracemalloc.start()
    try:
        sample_statistics(g, cfg, threads=threads, raw_sinks={"T2": _NullSink(), "T3": _NullSink()})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads", [1, 2])
def test_sampler_memory_does_not_grow_with_replications(threads):
    # each block yields only its per-replication values (1,024 of T2 and of
    # T3), which are tallied and written as the block finishes, so 64
    # blocks on w workers hold no more than w one-block runs (each its
    # plan, colour block and slab temporaries) and 256 KB for the pool's
    # pending values. Two runs on two workers can differ by more: their
    # peaks depend on whether the workers' slab temporaries overlapped
    g = complete(30)
    assert _sampling_peak(g, 64, threads) < threads * _sampling_peak(g, 1, 1) + 256 * 1024


def test_unknown_statistic_is_a_domain_error():
    with pytest.raises(BadParamsError):
        SimConfig(c=3, replications=10, seed=0, statistic="T4")
