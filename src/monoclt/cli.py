"""Command-line front end.

Each graph command is declared once, in COMMANDS: its help, whether --c
is required, its own options, and a body that turns the parsed
arguments and the resolved graph into the report's config and body.
build_parser and _dispatch both read the table; verify, which takes no
graph, is added beside it.

Every JSON report embeds the tool version, the resolved configuration,
and the input graph digest; rerunning an embedded configuration
reproduces the report byte-for-byte. Exit codes: 0 success, 1 domain
error or an allocation the system refused, 2 usage error. The --threads
flag never changes results; class discovery in fourth-moment runs on
one thread whatever it is set to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict
from fractions import Fraction
from typing import Optional

from . import __version__
from .census import (
    b_statistic,
    count_c4,
    pyramid_counts,
    s_statistic,
    score_ordering,
    triangle_census,
)
from .errors import MonocltError
from .fourthmoment import DEFAULT_BUDGET, fourth_moment_exact
from .graph import FAMILIES, FamilySpec, Graph, generate
from .graph import parse_edge_list, serialize_edge_list
from .moments import clt_bound_t2, clt_bound_t3, t2_moments, t3_mean_var
from .ratpoly import evaluate, fraction_json
from .sim import SimConfig, sample_statistics

# the options that build a FamilySpec: flag -> (field, argparse keywords).
# graph.FAMILIES says which fields each family reads; --input reads none.
SPEC_OPTIONS = {
    "--n": ("n", {"type": int, "help": "family size parameter"}),
    "--p": ("p", {"type": float, "help": "edge probability (gnp)"}),
    "--graph-seed": ("seed", {"type": int, "help": "seed for the gnp family"}),
    "--parts": ("parts", {"nargs": "+", "metavar": "FAMILY:N",
                          "help": "parts of a disjoint_union, e.g. pyramid:8 bipyramid_chain:17"}),
}


def thread_count(text: str) -> int:
    """argparse type of --threads: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least one thread, got {value}")
    return value


THREADS = {"type": thread_count, "default": os.cpu_count()}  # every --threads option


def _parse_part(text: str) -> FamilySpec:
    name, _, arg = text.partition(":")
    if name not in FAMILIES or FAMILIES[name].reads != ("n",) or not arg:
        raise argparse.ArgumentTypeError(
            f"bad --parts entry {text!r}; use a deterministic family like pyramid:8")
    try:
        return FamilySpec(family=name, n=int(arg))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --parts entry {text!r}")


def _resolve_graph(args):
    """Returns (graph, source-config dict). Exactly one input source, and
    none of the graph options it does not read."""
    if (args.input is None) == (args.family is None):
        raise argparse.ArgumentTypeError("give exactly one graph source: --input FILE or --family NAME")
    given = {}  # argparse's dest is the flag without dashes, "-" as "_"
    for flag, (field, _) in SPEC_OPTIONS.items():
        given[field] = getattr(args, flag[2:].replace("-", "_"))
        if given[field] is not None and field not in (FAMILIES[args.family].reads if args.family else ()):
            source = "--input" if args.input is not None else f"--family {args.family}"
            raise argparse.ArgumentTypeError(f"{flag} does not apply to {source}")
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeError) as exc:
            raise argparse.ArgumentTypeError(f"cannot read {args.input}: {exc}")
        result = parse_edge_list(text)
        return result.graph, {"input": args.input}
    given["parts"] = tuple(_parse_part(p) for p in (given["parts"] or ()))
    spec = FamilySpec(family=args.family, c=args.c, **given)
    return generate(spec), spec.describe()


def _open_out(path: str, mode: str):
    """An output file opened for writing; one that cannot be opened is a usage error."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {path}: {exc}")


def _check_out(path: Optional[str]):
    """Refuses, before any work, an --out that is empty, a directory or not
    in a writable one; the file is opened only for the finished report."""
    folder = os.path.dirname(path or "") or "."
    writable = os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
    if path is not None and (not path or os.path.isdir(path) or not writable):
        raise argparse.ArgumentTypeError(f"cannot write {path}: not a file in a writable directory")


# stands in for the score ordering while the report is encoded: no other
# string holds a NUL
_ORDER = "\0score_ordering"


def _report(command: str, config: dict, graph: Graph, body) -> str:
    """The report as sorted, 2-space indented JSON. json's indented encoder
    is pure Python, value by value, so a census's score ordering (one
    entry per vertex) is encoded apart, by the C encoder, and spliced into
    the same layout: its entries sit at depth 3."""
    order = body.get("score_ordering") if isinstance(body, dict) else None
    report = {
        "tool": "monoclt",
        "version": __version__,
        "command": command,
        "config": config,
        "report": body if order is None else {**body, "score_ordering": _ORDER},
        "input": {"digest": graph.digest(), "vertices": graph.n, "edges": graph.edge_count},
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if order is None:
        return text
    entries = json.dumps(order, separators=(",\n      ", ""))[1:-1]
    return text.replace(json.dumps(_ORDER), f"[\n      {entries}\n    ]" if order else "[]", 1)


# ---------------------------------------------------------------------------
# command bodies (args, graph) -> (config, report body), and option
# tables. Bodies look the library up in this module's globals when they run,
# so tracers and tests that rebind those names see every call.


def _census(args, graph):
    tc = triangle_census(graph)
    pc = pyramid_counts(tc)
    order = score_ordering(tc)
    return {}, {
        "triangles": str(pc.n1),
        "pyramids": {str(s): str(v) for s, v in zip((1, 2, 3, 4), pc.as_tuple())},
        "four_cycles": str(count_c4(graph)),
        "b_statistic": str(b_statistic(tc)),
        "s_statistic_score_order": str(s_statistic(tc, order)),
        "score_ordering": order,
    }


def _moments(args, graph):
    pc = pyramid_counts(triangle_census(graph))
    body = {"T2": t2_moments(graph.edge_count, pc.n1, count_c4(graph), args.c).to_json_dict()}
    if pc.n1 >= 1:
        body["T3"] = t3_mean_var(pc, args.c).to_json_dict()
    return {"c": args.c}, body


def _bounds(args, graph):
    tc = triangle_census(graph)
    pc = pyramid_counts(tc)
    t2b = clt_bound_t2(graph.edge_count, count_c4(graph), args.c)
    body = {
        "T2": {
            "rational_part": fraction_json(t2b.rational_part),
            "sqrt_base": t2b.sqrt_base,
            "inner": t2b.inner,
            "bound_bracket": t2b.bound,
        }
    }
    if pc.n1 >= 1:
        t3b = clt_bound_t3(pc, b_statistic(tc))
        body["T3"] = {
            "r1": fraction_json(t3b.r1),
            "r2": fraction_json(t3b.r2),
            "bracket": t3b.bracket,
            "bound_bracket": t3b.bound,
        }
    body["note"] = "brackets bound the Kolmogorov distance up to unspecified absolute constants"
    return {"c": args.c}, body


FOURTH_MOMENT_OPTIONS = {
    "--budget": {"type": int, "default": DEFAULT_BUDGET,
                 "help": "cap on W, a bound on the triangle rows class discovery reads (>= 0)"},
    "--threads": {**THREADS, "help": "accepted and ignored: class discovery runs on one thread"},
}


def _fourth_moment(args, graph):
    dec = fourth_moment_exact(triangle_census(graph), args.c, budget=args.budget)
    return {"c": args.c, "budget": args.budget}, dec.to_json_dict()


SIMULATE_OPTIONS = {
    "--reps": {"type": int, "required": True, "help": "replications"},
    "--seed": {"type": int, "required": True, "help": "sampling seed"},
    "--statistic": {"choices": ("T2", "T3", "both"), "default": "both"},
    "--atom-gap": {"type": float, "help": "raw-scale gap for atom clustering"},
    "--raw-out": {"metavar": "BASE", "help": "also stream per-replication values to BASE.t2.bin / "
                  "BASE.t3.bin (little-endian 64-bit integers, replication order)"},
    "--threads": THREADS,
}


def _simulate(args, graph):
    cfg = SimConfig(
        c=args.c,
        replications=args.reps,
        seed=args.seed,
        statistic=args.statistic,
        atom_gap=args.atom_gap,
    )
    if args.raw_out == "":
        raise argparse.ArgumentTypeError("cannot write raw values to an empty --raw-out base")
    with ExitStack() as stack:
        raw_sinks = {
            stat: stack.enter_context(_open_out(f"{args.raw_out}.{stat.lower()}.bin", "wb"))
            for stat in ("T2", "T3")
            if args.raw_out is not None and cfg.statistic in (stat, "both")
        }
        summaries = sample_statistics(graph, cfg, threads=args.threads, raw_sinks=raw_sinks or None)
    return asdict(cfg), [s.to_json_dict() for s in summaries.values()]


# every graph command: name -> (help, whether --c is required, the
# command's own options as flag -> argparse keywords, body). generate has
# no body: it writes the edge list, not a report. Each subparser takes the
# graph source, then --c, then the command's own options, then --out.
COMMANDS = {
    "generate": ("write a family graph as an edge list", False, {}, None),
    "census": ("triangle census and derived statistics", False, {}, _census),
    "moments": ("exact closed-form moments", True, {}, _moments),
    "bounds": ("CLT error-bound brackets", True, {}, _bounds),
    "fourth-moment": ("exact fourth-moment decomposition", True, FOURTH_MOMENT_OPTIONS, _fourth_moment),
    "simulate": ("seeded Monte Carlo sampling", True, SIMULATE_OPTIONS, _simulate),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The program's parser. For a known command, only that command's
    subparser, with its options; otherwise every subcommand, with options
    only for command unless it is None."""
    parser = argparse.ArgumentParser(
        prog="monoclt",
        description="exact statistics and simulation oracles for monochromatic "
        "edge/triangle counts under uniformly random vertex colorings",
    )
    parser.add_argument("--version", action="version", version=f"monoclt {__version__}")
    subs = parser.subparsers = parser.add_subparsers(dest="command", required=True)
    known = (*COMMANDS, "verify")
    for name in (command,) if command in known else known:
        if name == "verify":
            subs.add_parser("verify", help="run the built-in acceptance checks")
            continue
        help_text, c_required, options, _ = COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        sub.add_argument("--input", help="edge-list file (one 'u v' pair per line)")
        sub.add_argument("--family", choices=tuple(FAMILIES), help="generated family")
        for flag, (_, keywords) in SPEC_OPTIONS.items():
            sub.add_argument(flag, **keywords)
        sub.add_argument(
            "--c", type=int, required=c_required,
            help="number of colors (>= 2)" if c_required else "colors (sizes the composite family)",
        )
        for flag, keywords in options.items():
            sub.add_argument(flag, **keywords)
        sub.add_argument("--out", help="output path (default stdout)")
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has only -h and --version: the first other token is the command
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # the command's parser reports them, with its own usage line
        parser.subparsers.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        _check_out(getattr(args, "out", None))
        return _dispatch(args)
    except argparse.ArgumentTypeError as exc:  # a usage error found after parsing
        parser.subparsers.choices[args.command].error(str(exc))
    except (MonocltError, MemoryError) as exc:
        error = {
            "tool": "monoclt",
            "version": __version__,
            "operation": args.command,
            "error": type(exc).__name__ if isinstance(exc, MonocltError) else "MemoryError",
            "detail": str(exc),
            "inputs": {  # a non-finite float goes in as text, which strict JSON allows
                k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in vars(args).items()
                if k not in ("command", "out") and v is not None
            },
        }
        sys.stderr.write(json.dumps(error, sort_keys=True, indent=2, default=str) + "\n")
        return 1


def _dispatch(args) -> int:
    if args.command == "verify":
        return _verify()
    graph, source = _resolve_graph(args)
    body = COMMANDS[args.command][3]
    if body is None:
        payload = serialize_edge_list(graph)
    else:
        config, report = body(args, graph)
        payload = _report(args.command, {"source": source, **config}, graph, report)
    if args.out is not None:
        with _open_out(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


# ---------------------------------------------------------------------------
# verify: condensed acceptance checks


def _verify() -> int:
    from .fourthmoment import (
        bipyramid_quad_coefficient,
        class_key,
        discover_classes,
        pyramid_class_coefficient,
    )
    from .graph import bipyramid_chain, complete, cycle, gnp, pyramid, star
    from .sim import exact_distribution

    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        if not ok:
            failures += 1

    path5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    corpus = [
        ("K3", complete(3)),
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("C4", cycle(4)),
        ("P5", path5),
        ("K1_3", star(3)),
        ("pyramid3", pyramid(3)),
        ("bipyramid2", bipyramid_chain(2)),
        ("gnp8", gnp(8, 0.4, 1)),
    ]
    ok = True
    detail = ""
    for name, g in corpus:
        tc = triangle_census(g)
        pc = pyramid_counts(tc)
        c4 = count_c4(g)
        for c in (2, 3):
            dist = exact_distribution(g, c)
            mu2, v2, _ = dist.moments("T2")
            rep2 = t2_moments(g.edge_count, pc.n1, c4, c)
            if (mu2, v2) != (rep2.mean, rep2.variance) or dist.excess4("T2") != rep2.excess4:
                ok, detail = False, f"T2 mismatch on {name}, c={c}"
            if pc.n1 >= 1:
                rep3 = t3_mean_var(pc, c)
                mu3, v3, _ = dist.moments("T3")
                if (mu3, v3) != (rep3.mean, rep3.variance):
                    ok, detail = False, f"T3 mismatch on {name}, c={c}"
                dec = fourth_moment_exact(tc, c)
                if dec.excess4 != dist.excess4("T3"):
                    ok, detail = False, f"fourth-moment mismatch on {name}, c={c}"
    check("oracle equality (closed forms vs full enumeration)", ok, detail)

    disc = discover_classes(triangle_census(complete(9)))
    check(
        "class discovery on K9 finds exactly 32 classes",
        len(disc.entries) == 32,
        f"found {len(disc.entries)}",
    )

    found = {rec.key for rec, _ in disc.entries}
    named = [class_key([(0, 1, 2 + i) for i in range(s)]) for s in (1, 2, 3, 4)]
    named.append(class_key([(0, 2, 4), (1, 2, 5), (0, 3, 6), (1, 3, 7)]))
    check("pyramid and chain-quadruple classes present", all(k in found for k in named))

    d4 = pyramid_class_coefficient(4)
    ok = all(
        evaluate(rec.coefficient, Fraction(1, c)) > 0 for c in (5, 6, 7, 10) for rec, _ in disc.entries
    )
    ok = ok and all(evaluate(d4, Fraction(1, c)) < 0 for c in (2, 3, 4))
    ok = ok and evaluate(d4, Fraction(1, 2)) == Fraction(-3, 16)
    ok = ok and evaluate(bipyramid_quad_coefficient(), Fraction(1, 2)) == Fraction(3, 32)
    check("sign dichotomy (all positive for c >= 5; 4-pyramid negative for c <= 4)", ok)

    print(f"{'OK' if failures == 0 else 'FAILED'}: {4 - failures}/4 checks passed")
    return 0 if failures == 0 else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
