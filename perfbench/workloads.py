"""The four workloads: their inputs, the operations of one round, and the
checks of every output against perfbench/reference.py.

A plan is plain JSON shared by run.py and worker.py. Inputs are graphs
the worker builds with monoclt.graph and writes as edge lists; an input
with a "perm_seed" has its vertices relabelled by a seeded permutation,
and a gnp input takes the first graph seed derived from the workload seed
whose graph passes the "accept" windows (see accepted_gnp_seed), so that
every seed asks for the same amount of work. An operation is either a CLI
command run on one input or a call of monoclt.sim.exact_distribution.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import reference as ref

DKW_ALPHA = 1e-6


def derive(seed: int, label: str) -> int:
    """A 56-bit seed for one input, from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def accepted_gnp_seed(seed: int, spec: dict, gnp, limit: int = 1_000_000) -> int:
    """First derived graph seed whose gnp(n, p) graph has every count named
    in spec["accept"] inside its [low, high] window; counts come from
    reference.dense_counts."""
    for k in range(limit):
        graph_seed = derive(seed, f"{spec['name']}/{k}")
        g = gnp(spec["n"], spec["p"], graph_seed)
        counts = ref.dense_counts(g.n, g.edges)
        if all(lo <= counts[key] <= hi for key, (lo, hi) in spec["accept"].items()):
            return graph_seed
    raise RuntimeError(f"no graph seed accepted for {spec['name']} in {limit} tries")


def _family(name, family, n, seed, **extra):
    return {"name": name, "family": family, "n": n, "perm_seed": derive(seed, f"perm/{name}"), **extra}


def _gnp(name, n, p, accept):
    return {"name": name, "family": "gnp", "n": n, "p": p, "accept": accept}


# ---------------------------------------------------------------------------
# plans


HUBS = (("star", "star", 2000), ("pyramid", "pyramid", 600), ("chain", "bipyramid_chain", 300))
HUBS_C = 3

CLASSES = (("k9", 5), ("composite", 2), ("gnp16", 2))
COMPOSITE_N = 12

# (input, c, statistic, replications)
SAMPLING = (("gnp120", 3, "both", 4096), ("pyramid", 2, "T3", 32768), ("star", 3, "T2", 8192))

ENUMERATION = (("k10", 4), ("gnp13", 3), ("gnp18", 2))


def plan(workload: str, seed: int, nproc: int) -> dict:
    threads = (1, nproc)
    if workload == "hubs":
        inputs = [_family(name, fam, n, seed) for name, fam, n in HUBS]
        ops = [
            {"id": f"{cmd}-{name}", "command": cmd, "input": name,
             "args": [] if cmd == "census" else ["--c", str(HUBS_C)]}
            for name, _, _ in HUBS
            for cmd in ("census", "moments", "bounds")
        ]
    elif workload == "classes":
        inputs = [
            _family("k9", "complete", 9, seed),
            _family("composite", "composite", COMPOSITE_N, seed, c=2),
            _gnp("gnp16", 16, 0.45, {"edges": (54, 54), "n1": (51, 51), "pairs_at_vertex": (885, 915)}),
        ]
        ops = [
            {"id": f"fourth-moment-{name}", "command": "fourth-moment", "input": name,
             "args": ["--c", str(c), "--threads", str(nproc)]}
            for name, c in CLASSES
        ]
    elif workload == "sampling":
        inputs = [
            _gnp("gnp120", 120, 0.5, {"edges": (3560, 3580), "n1": (35005, 35205)}),
            _family("pyramid", "pyramid", 2000, seed),
            _family("star", "star", 2000, seed),
        ]
        ops = [
            {"id": f"simulate-{name}-{t}", "command": "simulate", "input": name,
             "args": ["--c", str(c), "--reps", str(reps), "--statistic", stat,
                      "--seed", str(derive(seed, f"sample/{name}")), "--threads", str(t)]}
            for name, c, stat, reps in SAMPLING
            for t in threads
        ]
    elif workload == "enumeration":
        inputs = [
            _family("k10", "complete", 10, seed),
            _gnp("gnp13", 13, 0.4, {"edges": (31, 31), "n1": (18, 18)}),
            _gnp("gnp18", 18, 0.3, {"edges": (46, 46), "n1": (22, 22)}),
        ]
        ops = [
            {"id": f"exact-{name}-{t}", "exact": name, "c": c, "threads": t}
            for name, c in ENUMERATION
            for t in threads
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "nproc": nproc, "inputs": inputs, "ops": ops}


# ---------------------------------------------------------------------------
# checks: each returns a list of failures, empty when every output is right


def _frac(value: dict) -> Fraction:
    return Fraction(int(value["num"]), int(value["den"]))


def _same(failures: list, what: str, got, want):
    if got != want:
        failures.append(f"{what}: got {got!r}, want {want!r}")


def _same_frac(failures: list, what: str, value: dict, want: Fraction):
    _same(failures, what, (_frac(value), value["float"]), (want, float(want)))


class Outputs:
    """The input edge lists and round outputs of one run, read back."""

    def __init__(self, run_dir: Path, round_dir: Path):
        self.run_dir = run_dir
        self.round_dir = round_dir

    def graph(self, name: str):
        return ref.read_edge_list(self.run_dir / "inputs" / f"{name}.txt")

    def bytes(self, op_id: str) -> bytes:
        return (self.round_dir / f"{op_id}.json").read_bytes()

    def json(self, op_id: str) -> dict:
        return json.loads(self.bytes(op_id))


def _check_shape(failures, name, family, n, graph):
    nv, edges = graph
    _same(failures, f"{name} shape", (nv, len(edges), ref.degree_multiset(nv, edges)), ref.family_shape(family, n))


def check_hubs(p: dict, out: Outputs) -> list[str]:
    failures: list[str] = []
    c = HUBS_C
    for spec in p["inputs"]:
        name, fam, n = spec["name"], spec["family"], spec["n"]
        nv, edges = out.graph(name)
        _check_shape(failures, name, fam, n, (nv, edges))
        k = ref.family_counts(fam, n)

        census = out.json(f"census-{name}")
        _same(failures, f"{name} input", census["input"]["vertices"], nv)
        body = census["report"]
        _same(failures, f"{name} triangles", body["triangles"], str(k["n1"]))
        _same(failures, f"{name} pyramids", body["pyramids"],
              {str(s): str(k[f"n{s}"]) for s in (1, 2, 3, 4)})
        _same(failures, f"{name} four_cycles", body["four_cycles"], str(k["c4"]))
        _same(failures, f"{name} b", body["b_statistic"], str(k["b"]))
        _same(failures, f"{name} s", body["s_statistic_score_order"], str(k["s"]))
        _same(failures, f"{name} score ordering", sorted(body["score_ordering"]), list(range(nv)))

        body = out.json(f"moments-{name}")["report"]
        mean, var, ex4 = ref.t2_moments(k["edges"], k["n1"], k["c4"], c)
        for key, want in (("mean", mean), ("variance", var), ("excess4", ex4)):
            _same_frac(failures, f"{name} T2 {key}", body["T2"][key], want)
        _same(failures, f"{name} T2 inputs", body["T2"]["inputs"],
              {"edges": k["edges"], "triangles": k["n1"], "four_cycles": k["c4"]})
        _same(failures, f"{name} has T3", "T3" in body, k["n1"] > 0)
        if k["n1"] > 0:
            mean, var = ref.t3_mean_var(k["n1"], k["n2"], c)
            _same_frac(failures, f"{name} T3 mean", body["T3"]["mean"], mean)
            _same_frac(failures, f"{name} T3 variance", body["T3"]["variance"], var)

        body = out.json(f"bounds-{name}")["report"]
        rational, inner, bound = ref.t2_bracket(k["edges"], k["c4"], c)
        _same_frac(failures, f"{name} T2 rational part", body["T2"]["rational_part"], rational)
        _same(failures, f"{name} T2 bracket", (body["T2"]["sqrt_base"], body["T2"]["inner"],
                                              body["T2"]["bound_bracket"]), (k["edges"], inner, bound))
        _same(failures, f"{name} has T3 bracket", "T3" in body, k["n1"] > 0)
        if k["n1"] > 0:
            r1, r2, bracket, bound = ref.t3_bracket(k["n1"], k["n2"], k["n4"], k["b"])
            _same_frac(failures, f"{name} R1", body["T3"]["r1"], r1)
            _same_frac(failures, f"{name} R2", body["T3"]["r2"], r2)
            _same(failures, f"{name} T3 bracket", (body["T3"]["bracket"], body["T3"]["bound_bracket"]),
                  (bracket, bound))
    return failures


def check_classes(p: dict, out: Outputs) -> list[str]:
    failures: list[str] = []
    for name, c in CLASSES:
        nv, edges = out.graph(name)
        counts = ref.dense_counts(nv, edges)
        if name == "k9":
            _check_shape(failures, name, "complete", 9, (nv, edges))
            law = ref.marginal(ref.complete_graph_law(9, c), 1)
        elif name == "composite":
            n = COMPOSITE_N
            m, odd = divmod(counts["n1"] - n, 2)
            _same(failures, "composite shape", (odd, nv, len(edges)), (0, n + 3 * m + 4, 2 * n + 1 + 6 * m))
            law = ref.composite_t3_law(n, m, c)
        else:
            law = ref.enumerated_t3_law(nv, ref.triangles(nv, edges), c)
        body = out.json(f"fourth-moment-{name}")["report"]
        _, var, _ = ref.central_moments(law)
        _same_frac(failures, f"{name} sigma2", body["sigma2"], var)
        _same_frac(failures, f"{name} excess4", body["excess4"], ref.excess4(law))
        by_size: dict[int, int] = {}
        for cls in body["classes"]:
            size = cls["signature"]["specified_triangles"]
            by_size[size] = by_size.get(size, 0) + int(cls["count"])
        _same(failures, f"{name} 1- and 2-triangle class counts", (by_size.get(1, 0), by_size.get(2, 0)),
              (counts["n1"], counts["n2"]))
        if name == "k9":
            _same(failures, "K9 nonzero classes", len(body["classes"]), 32)
    return failures


def check_sampling(p: dict, out: Outputs) -> list[str]:
    failures: list[str] = []
    specs = {spec["name"]: spec for spec in p["inputs"]}
    one, many = 1, p["nproc"]
    for name, c, stat, reps in SAMPLING:
        report = out.bytes(f"simulate-{name}-{one}")
        _same(failures, f"{name} report at {one} and {many} threads identical",
              report == out.bytes(f"simulate-{name}-{many}"), True)
        nv, edges = out.graph(name)
        spec = specs[name]
        if spec["family"] == "gnp":
            counts = ref.dense_counts(nv, edges)
        else:
            _check_shape(failures, name, spec["family"], spec["n"], (nv, edges))
            counts = ref.family_counts(spec["family"], spec["n"])
        x = Fraction(1, c)
        model = {"T2": (counts["edges"] * x, counts["edges"] * x * (1 - x)),
                 "T3": ref.t3_mean_var(counts["n1"], counts["n2"], c)}
        exact = {("star", "T2"): lambda: ref.binomial_law(spec["n"], c),
                 ("pyramid", "T3"): lambda: ref.pyramid_t3_law(spec["n"], c)}
        results = json.loads(report)["report"]
        _same(failures, f"{name} statistics", [r["statistic"] for r in results],
              ["T2", "T3"] if stat == "both" else [stat])
        for r in results:
            what = f"{name} {r['statistic']}"
            sample = {int(v): int(k) for v, k in r["distribution"]}
            _same(failures, f"{what} replications", (r["replications"], sum(sample.values())), (reps, reps))
            _same_frac(failures, f"{what} model mean", r["model_mean"], model[r["statistic"]][0])
            _same_frac(failures, f"{what} model variance", r["model_variance"], model[r["statistic"]][1])
            law = exact.get((name, r["statistic"]))
            if law is not None:
                ks, eps = ref.lattice_ks(sample, law()), ref.dkw_epsilon(reps, DKW_ALPHA)
                if not ks <= eps:
                    failures.append(f"{what}: KS {ks:.5f} to the exact law exceeds the DKW band {eps:.5f}")
    return failures


def check_enumeration(p: dict, out: Outputs) -> list[str]:
    failures: list[str] = []
    one, many = 1, p["nproc"]
    for name, c in ENUMERATION:
        result = out.json(f"exact-{name}-{one}")
        _same(failures, f"{name} law at {one} and {many} threads identical",
              result == out.json(f"exact-{name}-{many}"), True)
        joint = {(t2, t3): Fraction(int(num), int(den)) for t2, t3, num, den in result["joint"]}
        _same(failures, f"{name} total mass", sum(joint.values()), 1)
        nv, edges = out.graph(name)
        counts = ref.dense_counts(nv, edges)
        mean, var, m4 = ref.central_moments(ref.marginal(joint, 0))
        _same(failures, f"{name} T2 mean, variance, excess4", (mean, var, m4 / var**2 - 3),
              ref.t2_moments(counts["edges"], counts["n1"], counts["c4"], c))
        mean, var, _ = ref.central_moments(ref.marginal(joint, 1))
        _same(failures, f"{name} T3 mean, variance", (mean, var), ref.t3_mean_var(counts["n1"], counts["n2"], c))
        if name == "k10":
            _check_shape(failures, name, "complete", 10, (nv, edges))
            _same(failures, "K10 joint law", joint == ref.complete_graph_law(10, c), True)
    return failures


CHECKS = {"hubs": check_hubs, "classes": check_classes, "sampling": check_sampling,
          "enumeration": check_enumeration}
WORKLOADS = tuple(CHECKS)
