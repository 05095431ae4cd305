"""One round of a workload, in a fresh process.

    python3 perfbench/worker.py round PLAN ROUND_DIR MODE SPAWNED_AT
    python3 perfbench/worker.py prepare PLAN

`round` sets up (imports monoclt, builds the plan's graphs and writes
their edge lists), then runs every operation of the plan in order, one
after another, writing each output into ROUND_DIR. It prints one JSON
line: set-up time from SPAWNED_AT (the caller's time.monotonic() just
before starting this process), wall and CPU time of the operations, peak
RSS, per-operation outcomes and, when MODE is "spans" or "memory", the
per-layer metrics. MODE "plain" installs no tracing.

Times are reported twice: as measured ("raw_*") and in reference seconds.
The speed a process gets on a shared machine drifts by up to half over
seconds to minutes, so a probe of fixed work (SpeedProbe) runs before
the first operation and after every one; each interval is scaled by the
mean factor of the probes around it.

`prepare` prints the graph seed accepted for every gnp input of the plan.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Durations of the two halves of the probe on an unloaded 2-vCPU Xeon at
# 2.1 GHz (Python 3.11, numpy 2.4), so that reference seconds read as
# seconds there.
REF_INTERPRETER_S = 0.0140
REF_ARRAY_S = 0.0120


class SpeedProbe:
    """Fixed work of the two kinds monoclt does: interpreted integer and
    dict operations, and numpy gathers, compares and row sums over a small
    colour array. It shares no code with the program, so no change to the
    program moves it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(5)
        self.colors = rng.integers(0, 3, size=(2048, 300), dtype=np.uint8)
        self.pairs = rng.integers(0, 300, size=(2, 600))

    def speed_factor(self) -> float:
        """Reference seconds per measured second, right now."""
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(120000):
            acc += i * i
            table[i & 1023] = acc
        interpreter = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(3):
            (self.colors[:, self.pairs[0]] == self.colors[:, self.pairs[1]]).sum(axis=1)
        array = time.perf_counter() - start
        return 0.5 * REF_INTERPRETER_S / interpreter + 0.5 * REF_ARRAY_S / array


def _import_monoclt() -> dict:
    sys.path.insert(0, str(SRC))
    from monoclt import census, cli, fourthmoment, graph, moments, ratpoly, sim

    return dict(census=census, cli=cli, fourthmoment=fourthmoment, graph=graph,
                moments=moments, ratpoly=ratpoly, sim=sim)


def build_graph(graph, spec: dict):
    import numpy as np

    family = spec["family"]
    if family == "gnp":
        return graph.gnp(spec["n"], spec["p"], spec["graph_seed"])
    if family == "composite":
        g = graph.generate(graph.FamilySpec("composite", n=spec["n"], c=spec["c"]))
    else:
        g = getattr(graph, family)(spec["n"])
    perm = np.random.default_rng(spec["perm_seed"]).permutation(g.n).tolist()
    return graph.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def run_round(plan: dict, round_dir: Path, mode: str, spawned_at: float) -> dict:
    mods = _import_monoclt()
    tracer = None
    if mode != "plain":
        from tracer import Tracer

        tracer = Tracer(memory=mode == "memory")
        tracer.install(mods)
    graph, cli, sim = mods["graph"], mods["cli"], mods["sim"]

    input_dir = round_dir.parent / "inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    graphs, paths = {}, {}
    for spec in plan["inputs"]:
        if tracer:
            g = tracer.call("graph.generate", build_graph, graph, spec)
        else:
            g = build_graph(graph, spec)
        paths[spec["name"]] = path = input_dir / f"{spec['name']}.txt"
        path.write_text(graph.serialize_edge_list(g), encoding="utf-8")
        graphs[spec["name"]] = g
    round_dir.mkdir(parents=True, exist_ok=True)
    raw_setup_s = time.monotonic() - spawned_at

    probe = SpeedProbe()
    factor = setup_factor = probe.speed_factor()
    outcomes, laws = [], {}
    first_op = time.perf_counter()
    for op in plan["ops"]:
        error = None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            if "exact" in op:
                laws[op["id"]] = sim.exact_distribution(graphs[op["exact"]], op["c"], threads=op["threads"])
            else:
                out = round_dir / f"{op['id']}.json"
                argv = [op["command"], "--input", str(paths[op["input"]]), *op["args"], "--out", str(out)]
                code = tracer.call("cli.run", cli.run, argv) if tracer else cli.run(argv)
                if code != 0:
                    error = f"exit code {code}"
        except (Exception, SystemExit) as exc:  # an operation that fails is counted, not fatal
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        after = probe.speed_factor()
        outcomes.append({"id": op["id"], "seconds": seconds, "cpu_s": cpu,
                         "factor": (factor + after) / 2, "error": error})
        factor = after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_bytes = sum(p.stat().st_size for p in round_dir.glob("*.json"))

    for op_id, law in laws.items():
        joint = [[t2, t3, str(p.numerator), str(p.denominator)] for (t2, t3), p in sorted(law.joint.items())]
        (round_dir / f"{op_id}.json").write_text(json.dumps({"c": law.c, "n": law.n, "joint": joint}))
    result = {
        "setup_s": raw_setup_s * setup_factor,
        "wall_s": sum(o["seconds"] * o["factor"] for o in outcomes),
        "cpu_s": sum(o["cpu_s"] * o["factor"] for o in outcomes),
        "peak_rss_mb": peak_rss_mb,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": sum(o["seconds"] for o in outcomes),
        "raw_cpu_s": sum(o["cpu_s"] for o in outcomes),
        "ops": outcomes,
    }
    if tracer:
        from tracer import layer_metrics

        layers = layer_metrics(tracer.spans, first_op, plan["nproc"])
        layers["cli.report_bytes"] = report_bytes
        layers["trace.accounted_share"] = layers["trace.self_sum_s"] / result["raw_wall_s"]
        result.update(layers=layers, peaks=tracer.peaks)
        (round_dir / "spans.json").write_text(json.dumps(tracer.dump()))
    return result


def prepare(plan: dict) -> dict:
    from workloads import accepted_gnp_seed

    graph = _import_monoclt()["graph"]
    return {spec["name"]: accepted_gnp_seed(plan["seed"], spec, graph.gnp)
            for spec in plan["inputs"] if spec["family"] == "gnp"}


def main(argv: list[str]) -> None:
    plan = json.loads(Path(argv[1]).read_text())
    if argv[0] == "prepare":
        result = prepare(plan)
    else:
        result = run_round(plan, Path(argv[2]), argv[3], float(argv[4]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
