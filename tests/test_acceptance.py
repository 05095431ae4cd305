"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantities (run with pytest -s to watch them).

All exactness checks are zero-tolerance rational equalities; statistical
checks use the stated thresholds with fixed seeds, so every run is
reproducible bit-for-bit.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from brute import (
    brute_composite_t3_law,
    brute_t3_third_central_moment,
    brute_t3_variance,
    brute_triangles,
    central_moment,
    edgeworth_cdf,
    kolmogorov_distance,
    lattice_ks,
    normal_cdf,
)
from helpers import t2_inputs
from monoclt.census import b_statistic, pyramid_counts, triangle_census
from monoclt.cli import run as cli_run
from monoclt.fourthmoment import class_key, discover_classes, fourth_moment_exact
from monoclt.graph import (
    bipyramid_chain,
    complete,
    composite_chain_length,
    disjoint_union,
    gnp,
    pyramid,
    star,
)
from monoclt.moments import clt_bound_t3, limit_law_reference, t2_moments, t3_mean_var
from monoclt.ratpoly import evaluate
from monoclt.sim import SimConfig, exact_distribution, ks_from_distribution, sample_statistics

THREADS = 4

DELTA_ROWS = {
    1: (0, 0, 1, 0, -7, 0, 12, 0, -6),
    2: (0, 0, 0, 14, -14, -72, 60, 96, -84),
    3: (0, 0, 0, 0, 36, -108, -72, 360, -216),
    4: (0, 0, 0, 0, 0, 24, -168, 288, -144),
}
H16_ROW = (0, 0, 0, 0, 0, 0, 0, 24, -24)
QUAD_REP = ((0, 2, 4), (1, 2, 5), (0, 3, 6), (1, 3, 7))


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def k9_discovery():
    start = time.time()
    tc = triangle_census(complete(9))
    disc = discover_classes(tc)
    return disc, time.time() - start


def test_criterion_1_exact_moment_oracle_equality(small_corpus):
    start = time.time()
    checked = 0
    for name, g in small_corpus:
        tc = triangle_census(g)
        pc = pyramid_counts(tc)
        for c in (2, 3, 5):
            dist = exact_distribution(g, c, threads=THREADS)
            mu2, v2, _ = dist.moments("T2")
            rep2 = t2_moments(*t2_inputs(g), c)
            assert (rep2.mean, rep2.variance) == (mu2, v2), (name, c)
            mu3, v3, _ = dist.moments("T3")
            if pc.n1 >= 1:
                rep3 = t3_mean_var(pc, c)
                assert (rep3.mean, rep3.variance) == (mu3, v3), (name, c)
            else:
                assert (mu3, v3) == (Fraction(0), Fraction(0)), (name, c)
            checked += 1
    elapsed = time.time() - start
    _line(1, True, f"exact T2/T3 mean+variance equality on {checked} graph/color pairs "
                   f"({elapsed:.1f}s < 60s)")
    assert elapsed < 60


def test_criterion_2_fourth_moment_oracle_equality(small_corpus):
    start = time.time()
    cap = 10**7
    checked = 0
    for name, g in small_corpus:
        tc = triangle_census(g)
        pc = pyramid_counts(tc)
        if pc.n1 == 0:
            continue
        for c in (2, 3, 5):
            if c**g.n > cap:
                continue
            dec = fourth_moment_exact(tc, c)
            dist = exact_distribution(g, c, threads=THREADS)
            assert dec.excess4 == dist.excess4("T3"), (name, c)
            checked += 1
    spots = {
        (complete(3), 2): Fraction(-2, 3),
        (complete(4), 2): Fraction(5, 3),
        (pyramid(2), 2): Fraction(-1, 4),
    }
    for (g, c), want in spots.items():
        tc = triangle_census(g)
        assert fourth_moment_exact(tc, c).excess4 == want
    elapsed = time.time() - start
    _line(2, True, f"exact fourth-moment equality on {checked} pairs plus 3 spot values "
                   f"({elapsed:.1f}s < 300s)")
    assert elapsed < 300


def test_criterion_3_class_discovery_on_k9(k9_discovery):
    disc, elapsed = k9_discovery
    n_classes = len(disc.entries)
    found = {rec.key: (rec, cnt) for rec, cnt in disc.entries}
    ok = n_classes == 32
    for s in (1, 2, 3, 4):
        key = class_key([(0, 1, 2 + i) for i in range(s)])
        rec, _ = found[key]
        ok = ok and rec.coefficient == DELTA_ROWS[s]
    quad_key = class_key(QUAD_REP)
    rec, _ = found[quad_key]
    ok = ok and rec.coefficient == H16_ROW
    _line(3, ok, f"K9 discovery: {n_classes} nonzero classes (expect 32); "
                 f"4 shared-edge rows and the chain-quadruple row match coefficient-wise "
                 f"({disc.enumerated} configurations, {elapsed:.1f}s < 600s)")
    assert n_classes == 32
    for s in (1, 2, 3, 4):
        assert found[class_key([(0, 1, 2 + i) for i in range(s)])][0].coefficient == DELTA_ROWS[s]
    assert found[quad_key][0].coefficient == H16_ROW
    assert elapsed < 600


def test_criterion_4_sign_dichotomy(k9_discovery):
    disc, _ = k9_discovery
    all_positive = all(
        evaluate(rec.coefficient, Fraction(1, c)) > 0
        for c in (5, 6, 7, 10)
        for rec, _ in disc.entries
    )
    d4 = DELTA_ROWS[4]
    neg_small_c = all(evaluate(d4, Fraction(1, c)) < 0 for c in (2, 3, 4))
    spot = evaluate(d4, Fraction(1, 2)) == Fraction(-3, 16)
    spot = spot and evaluate(H16_ROW, Fraction(1, 2)) == Fraction(3, 32)
    ok = all_positive and neg_small_c and spot
    _line(4, ok, f"all 32 coefficients positive at c in 5,6,7,10: {all_positive}; "
                 f"4-pyramid negative at c in 2,3,4: {neg_small_c}; "
                 f"d4(2)=-3/16 and h16(2)=3/32: {spot}")
    assert ok


@pytest.fixture(scope="module")
def composite_runs():
    runs = {}
    for n in (6, 8, 12, 16):
        n_chain = composite_chain_length(n, 2)
        g = disjoint_union(pyramid(n), bipyramid_chain(n_chain))
        tc = triangle_census(g)
        dec = fourth_moment_exact(tc, 2)
        rep = sample_statistics(
            g, SimConfig(c=2, replications=100_000, seed=11, statistic="T3"), threads=THREADS
        )
        runs[n] = (n_chain, dec.excess4, rep["T3"])
    return runs


def test_criterion_5_counterexample_fourth_moment_trend(composite_runs):
    magnitudes = [abs(composite_runs[n][1]) for n in (6, 8, 12, 16)]
    decreasing = all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
    n_chain8, excess8, _ = composite_runs[8]
    in_interval = excess8 < 0 and Fraction(5, 100) < -excess8 < Fraction(3, 10)
    ok = decreasing and n_chain8 == 17 and in_interval
    _line(5, ok, "fourth-moment trend: |excess4| = "
          + ", ".join(f"{float(m):.4f}" for m in magnitudes)
          + f" strictly decreasing; n=8 uses chain 17 and excess4 = {excess8} in (-0.3, -0.05)")
    assert decreasing
    assert n_chain8 == 17
    assert in_interval


def test_criterion_5_ks_nonnormality_persists(composite_runs):
    # The sample must follow the exact law of T3 (brute_composite_t3_law)
    # within the Massart-DKW band, and that law must stay non-normal while
    # E(Z3^4) - 3 goes to 0. Its distance to Phi cannot serve as the meter:
    # it shrinks with the lattice spacing 1/sigma(n) (0.0387 at n = 16),
    # because the limit law itself lies only 0.0031 from Phi. That limit,
    # Z = A + B with A = +-sqrt(w_p) and B ~ N(0, V w_c), V = 4/3 or 2/3
    # (hubs alike or not), w_p = 1/(1 + sqrt 6) the pyramid's share of the
    # variance and w_c = 1 - w_p, has kappa3 = kappa4 = 0 and
    # kappa6 = E Z^6 - 15 = w_p^3 + 15 w_p^2 w_c + 50 w_p w_c^2 + 20 w_c^3 - 15,
    # about 0.390, where every normal law has kappa6 = 0.
    w_p = 1 / (1 + math.sqrt(6))
    w_c = 1 - w_p
    kappa6_floor = (w_p**3 + 15 * w_p**2 * w_c + 50 * w_p * w_c**2 + 20 * w_c**3 - 15) / 2
    reps = 100_000
    eps = math.sqrt(math.log(2 / 1e-6) / (2 * reps))  # DKW band at alpha = 1e-6
    rows = {}
    for n in (6, 8, 12, 16):
        n_chain, _, summary = composite_runs[n]
        law = brute_composite_t3_law(n, n_chain, 2)
        total = sum(law.values())
        exact = {t: Fraction(w, total) for t, w in law.items()}
        sampled = {v: Fraction(cnt, reps) for v, cnt in summary.distribution}
        mu2, mu3, mu4, mu6 = (central_moment(law, r) for r in (2, 3, 4, 6))
        kappa6 = (mu6 - 15 * mu4 * mu2 - 10 * mu3**2 + 30 * mu2**3) / mu2**3
        mean = sum(t * p for t, p in exact.items())
        sd = math.sqrt(mu2)
        ks_exact = kolmogorov_distance(
            [(t - mean) / sd for t in exact], [float(p) for p in exact.values()], normal_cdf
        )
        rows[n] = (lattice_ks(sampled, exact), summary.ks_normal, ks_exact, float(kappa6))
    ok = all(d <= eps and abs(ks - ks_exact) <= eps and k6 >= kappa6_floor
             for d, ks, ks_exact, k6 in rows.values())
    _line(5, ok, f"KS(sample, exact law) <= DKW eps {eps:.4f}; kappa6 >= {kappa6_floor:.4f}: "
          + "; ".join(f"n={n}: {d:.4f}, KS(Z3, Phi) {ks:.4f} (exact {ks_exact:.4f}), "
                      f"kappa6 {k6:.4f}" for n, (d, ks, ks_exact, k6) in rows.items()))
    for n, (d, ks, ks_exact, k6) in rows.items():
        assert d <= eps, f"n={n}: sample is {d:.4f} from the exact law"
        assert abs(ks - ks_exact) <= eps, f"n={n}: reported KS {ks:.4f}, exact {ks_exact:.4f}"
        assert k6 >= kappa6_floor, f"n={n}: kappa6 {k6:.4f} < {kappa6_floor:.4f}"


def test_criterion_6_pyramid_limit_law():
    start = time.time()
    n, c, reps = 2000, 2, 100_000
    g = pyramid(n)
    gap = 5 * math.sqrt(n * (1 / c) * (1 - 1 / c))
    rep = sample_statistics(
        g,
        SimConfig(c=c, replications=reps, seed=6, statistic="T3", atom_gap=gap),
        threads=THREADS,
    )
    atoms = rep["T3"].atoms
    law = limit_law_reference("pyramid", c)
    scaled = sorted(((a.location - n / c**2) / n, a.mass) for a in atoms)
    targets = [(float(loc), float(mass)) for loc, mass in law.atoms]
    ok = len(scaled) == 2
    detail = []
    for (loc, mass), (want_loc, want_mass) in zip(scaled, targets):
        ok = ok and abs(loc - want_loc) < 0.035 and abs(mass - want_mass) < 0.01
        detail.append(f"atom {loc:+.4f} (mass {mass:.4f}) vs {want_loc:+.2f} (1/2)")
    elapsed = time.time() - start
    _line(6, ok, "; ".join(detail) + f" ({elapsed:.1f}s < 120s)")
    assert len(scaled) == 2
    for (loc, mass), (want_loc, want_mass) in zip(scaled, targets):
        assert abs(loc - want_loc) < 0.035
        assert abs(mass - want_mass) < 0.01
    assert elapsed < 120


def test_criterion_7_bipyramid_limit_law():
    n, c, reps = 4000, 2, 100_000
    g = bipyramid_chain(n)
    rep = sample_statistics(
        g, SimConfig(c=c, replications=reps, seed=7, statistic="T3"), threads=THREADS
    )
    s = rep["T3"]
    law = limit_law_reference("bipyramid_chain", c)
    var_scaled = float(s.variance) / n
    target = float(law.total_variance)
    rel_err = abs(var_scaled - target) / target
    mu = 2 * n / c**2
    sd = math.sqrt(n)
    zs = [(v - mu) / sd for v, _ in s.distribution]
    masses = [cnt / reps for _, cnt in s.distribution]
    ks = ks_from_distribution(zs, masses, law.cdf)
    ok = rel_err < 0.03 and ks <= 0.02
    _line(7, ok, f"scaled variance {var_scaled:.5f} vs {target:.5f} "
                 f"(rel err {rel_err:.4f} < 3%); KS vs mixture {ks:.4f} <= 0.02")
    assert rel_err < 0.03
    assert ks <= 0.02


def test_criterion_8_normal_regime_gnp60():
    # At this size T3 still has skewness gamma = 0.628 (exact), so its
    # distance to Phi is about phi(0) gamma / 6 = 0.042 whatever the
    # sampler does. The normal regime is judged against the normal law
    # with its exact first-order skewness correction instead.
    g = gnp(60, 0.3, 1)
    rep = sample_statistics(
        g, SimConfig(c=3, replications=100_000, seed=8, statistic="T3"), threads=THREADS
    )
    s = rep["T3"]
    mean = len(brute_triangles(g)) * Fraction(1, 9)
    variance = brute_t3_variance(g, 3)
    assert (s.model_mean, s.model_variance) == (mean, variance)
    sd = math.sqrt(variance)
    gamma = float(brute_t3_third_central_moment(g, 3)) / sd**3
    cdf, turning = edgeworth_cdf(gamma)
    ks = kolmogorov_distance(
        [(v - mean) / sd for v, _ in s.distribution],
        [cnt / s.replications for _, cnt in s.distribution],
        cdf,
        turning,
    )
    _line(8, ks <= 0.03, f"gnp(60, 0.3) c=3: exact skewness {gamma:.4f}; "
                         f"KS(Z3, Edgeworth) = {ks:.4f} (threshold <= 0.03); "
                         f"KS(Z3, Phi) = {s.ks_normal:.4f}")
    assert ks <= 0.03, f"KS to the skewness-corrected normal is {ks:.4f} > 0.03"


def test_criterion_8_normal_regime_edges_and_bounds():
    g2 = gnp(200, 0.1, 2)
    r2 = sample_statistics(
        g2, SimConfig(c=2, replications=100_000, seed=9, statistic="T2"), threads=THREADS
    )
    ks2 = r2["T2"].ks_normal
    g3 = star(5000)
    r3 = sample_statistics(
        g3, SimConfig(c=2, replications=100_000, seed=10, statistic="T2"), threads=THREADS
    )
    ks3 = r3["T2"].ks_normal

    g = pyramid(10)
    tc = triangle_census(g)
    bound = clt_bound_t3(pyramid_counts(tc), b_statistic(tc))
    exact_ok = bound.r1 == Fraction(211, 3025) and bound.r2 == Fraction(9, 605)
    finite_ok = math.isfinite(bound.bracket) and math.isfinite(bound.bound)
    ok = ks2 <= 0.02 and ks3 <= 0.03 and exact_ok and finite_ok
    _line(8, ok, f"gnp(200, 0.1) c=2: KS(Z2) = {ks2:.4f} <= 0.02; "
                 f"star 5000 c=2: KS(Z2) = {ks3:.4f} <= 0.03; "
                 f"pyramid(10) brackets exact (211/3025, 9/605) and finite")
    assert ks2 <= 0.02
    assert ks3 <= 0.03
    assert exact_ok and finite_ok


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    sim_argv = [
        "simulate", "--family", "gnp", "--n", "40", "--p", "0.3", "--graph-seed", "5",
        "--c", "3", "--reps", "20000", "--seed", "21",
    ]
    blobs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"sim_t{threads}.json"
        assert cli_run(sim_argv + ["--threads", threads, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    sim_ok = blobs[0] == blobs[1] == blobs[2]

    fm_blobs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"fm_t{threads}.json"
        argv = [
            "fourth-moment", "--family", "complete", "--n", "7", "--c", "3",
            "--threads", threads, "--out", str(out),
        ]
        assert cli_run(argv) == 0
        fm_blobs.append(out.read_bytes())
    fm_ok = fm_blobs[0] == fm_blobs[1] == fm_blobs[2]

    gen_blobs = []
    for rep in range(2):
        out = tmp_path / f"gen_{rep}.txt"
        argv = [
            "generate", "--family", "gnp", "--n", "50", "--p", "0.5",
            "--graph-seed", "3", "--out", str(out),
        ]
        assert cli_run(argv) == 0
        gen_blobs.append(out.read_bytes())
    gen_ok = gen_blobs[0] == gen_blobs[1]
    capsys.readouterr()

    ok = sim_ok and fm_ok and gen_ok
    _line(9, ok, f"simulate identical across threads 1/4/8: {sim_ok}; "
                 f"fourth-moment identical across threads: {fm_ok}; "
                 f"gnp generation repeatable: {gen_ok}")
    assert ok

    report = json.loads(blobs[0])
    assert "threads" not in report["config"]
