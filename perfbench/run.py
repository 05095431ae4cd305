"""Run one workload of the benchmark, check its outputs, print its metrics.

    python3 perfbench/run.py --workload hubs --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Run from the root of a checkout; monoclt is imported from src/. A run is a
closed loop of one caller: rounds of the workload's operations, one after
another, each round in a fresh worker process (perfbench/worker.py) that
pays interpreter start, imports and input generation as set-up, then runs
every operation once. Rounds repeat until --seconds have passed, and at
least MIN_ROUNDS run. The outputs of the first round are checked against
perfbench/reference.py, and every later round must reproduce them byte for
byte.

With --trace 0 the metrics are the medians over rounds of wall_s, cpu_s,
peak_rss_mb and setup_s. With --trace 1 the rounds cycle through plain,
"spans" and "memory" rounds, and the metrics are the per-layer ones of
perfbench/tracer.py plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = Path(".perfbench_runs")  # relative, so reports name the same input paths in every checkout
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PEAKS = {"census.b_statistic_peak_mb": "census.b_statistic", "sim.sample_peak_mb": "sim.sample_statistics",
         "sim.exact_peak_mb": "sim.exact_distribution"}


class BenchmarkError(Exception):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_speedup")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def worker(*args: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(plan_path: Path, run_dir: Path, modes: tuple, seconds: float) -> list[tuple[str, dict]]:
    rounds: list[tuple[str, dict]] = []
    start = time.monotonic()
    while len(rounds) < max(MIN_ROUNDS, len(modes)) or time.monotonic() - start < seconds:
        mode = modes[len(rounds) % len(modes)]
        round_dir = run_dir / f"round-{len(rounds)}"
        rounds.append((mode, worker("round", str(plan_path), str(round_dir), mode, repr(time.monotonic()))))
    return rounds


def check(plan: dict, run_dir: Path, rounds: list) -> list[str]:
    failed_ops = {op["id"] for _, r in rounds for op in r["ops"] if op["error"]}
    try:
        failures = workloads.CHECKS[plan["workload"]](plan, workloads.Outputs(run_dir, run_dir / "round-0"))
    except (OSError, KeyError, ValueError) as exc:
        if not failed_ops:
            return [f"output unreadable: {exc!r}"]
        failures = []  # outputs of failed operations are missing; they are counted as failed
    for i in range(1, len(rounds)):
        for op in plan["ops"]:
            if op["id"] in failed_ops:
                continue
            first = (run_dir / "round-0" / f"{op['id']}.json").read_bytes()
            if (run_dir / f"round-{i}" / f"{op['id']}.json").read_bytes() != first:
                failures.append(f"round {i}: {op['id']} differs from round 0")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    nproc = len(os.sched_getaffinity(0))
    run_dir = RUNS / name
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir).mkdir(parents=True)
    plan = workloads.plan(name, seed, nproc)
    plan_path = run_dir / "plan.json"
    (plan_path).write_text(json.dumps(plan))
    if any(spec["family"] == "gnp" for spec in plan["inputs"]):
        seeds = worker("prepare", str(plan_path))
        for spec in plan["inputs"]:
            if spec["name"] in seeds:
                spec["graph_seed"] = seeds[spec["name"]]
        (plan_path).write_text(json.dumps(plan))

    modes = ("plain", "spans", "memory") if trace else ("plain",)
    rounds = run_rounds(plan_path, run_dir, modes, seconds)
    failures = check(plan, run_dir, rounds)

    def median(mode, key, source=None):
        values = [(r[source] if source else r).get(key, 0.0) for m, r in rounds if m == mode]
        return statistics.median(values)

    if trace:
        spans = [r for m, r in rounds if m == "spans"]
        metrics = {key: statistics.median(r["layers"][key] for r in spans) for key in spans[0]["layers"]}
        metrics.update({k: median("memory", span, "peaks") for k, span in PEAKS.items()})
        metrics["trace.wall_s"] = median("spans", "wall_s")
        metrics["trace.untraced_wall_s"] = median("plain", "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {key: median("plain", key) for key, _ in END_TO_END}
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": sum(len(r["ops"]) for _, r in rounds),
        "failed": sum(1 for _, r in rounds for op in r["ops"] if op["error"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    detail = {"plan": plan, "rounds": [{"mode": m, **r} for m, r in rounds], "failures": failures, "result": result}
    if trace:
        first_spans = next(i for i, (m, _) in enumerate(rounds) if m == "spans")
        detail["spans"] = json.loads((run_dir / f"round-{first_spans}" / "spans.json").read_text())
    (run_dir / ("trace.json" if trace else "result.json")).write_text(json.dumps(detail, indent=1))
    for i in range(1, len(rounds)):
        shutil.rmtree(run_dir / f"round-{i}")

    print(f"{name}: seed {seed}, {len(rounds)} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed, correct {result['correct']}")
    for failure in failures:
        print(f"  CHECK FAILED {failure}")
    for op in (op for _, r in rounds for op in r["ops"] if op["error"]):
        print(f"  FAILED {op['id']}: {op['error']}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:14.6f} {m['unit']}")
    if not trace:
        raw = {key: median("plain", f"raw_{key}") for key in ("wall_s", "cpu_s", "setup_s")}
        print("  as measured, before scaling to reference seconds: "
              + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "monoclt" / "__init__.py").is_file():
        print(f"no monoclt sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
