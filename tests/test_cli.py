import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monoclt import census, cli, fourthmoment, graph, moments, sim
from monoclt.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_pyramid(capsys, tmp_path):
    out = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "generate", "--family", "pyramid", "--n", "10", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("# vertices=12 edges=21\n")
    assert len(text.strip().splitlines()) == 22


def test_generate_to_stdout_parses_back(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "complete", "--n", "4")
    assert code == 0
    from monoclt.graph import parse_edge_list

    assert parse_edge_list(out).graph.edge_count == 6


@pytest.mark.parametrize("size", [0, 1, 10**6])
def test_report_encodes_the_score_ordering_like_the_indented_encoder(size):
    # the ordering is spliced in by the C encoder; the bytes are those of
    # json's pure-Python indented encoder
    g = graph.complete(3)
    config = {"source": {"family": "complete", "n": 3}}
    body = {"pyramids": {"1": "1"}, "score_ordering": list(range(size))[::-1], "triangles": "1"}
    whole = {"tool": "monoclt", "version": cli.__version__, "command": "census", "config": config,
             "report": body, "input": {"digest": g.digest(), "vertices": 3, "edges": 3}}
    assert cli._report("census", config, g, body) == json.dumps(whole, sort_keys=True, indent=2) + "\n"


def test_census_report(capsys):
    code, out, _ = run_cli(capsys, "census", "--family", "pyramid", "--n", "10")
    assert code == 0
    report = json.loads(out)
    body = report["report"]
    assert body["pyramids"] == {"1": "10", "2": "45", "3": "120", "4": "210"}
    assert body["b_statistic"] == "45"
    assert report["input"]["vertices"] == 12


def test_fourth_moment_report(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    run_cli(capsys, "generate", "--family", "complete", "--n", "4", "--out", str(k4))
    code, out, _ = run_cli(capsys, "fourth-moment", "--input", str(k4), "--c", "2")
    assert code == 0
    report = json.loads(out)
    assert report["report"]["excess4"]["num"] == "5"
    assert report["report"]["excess4"]["den"] == "3"


def test_bounds_report(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "pyramid", "--n", "10", "--c", "2")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["T3"]["r1"] == {"num": "211", "den": "3025", "float": pytest.approx(211 / 3025)}
    assert body["T3"]["r2"]["num"] == "9" and body["T3"]["r2"]["den"] == "605"


def test_simulate_deterministic_across_threads(capsys):
    argv = [
        "simulate",
        "--family", "pyramid", "--n", "50",
        "--c", "2", "--reps", "4000", "--seed", "7", "--statistic", "T3",
    ]
    outputs = []
    for threads in ("1", "4", "8"):
        code, out, _ = run_cli(capsys, *argv, "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_reports_embed_config(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--family", "complete", "--n", "4",
        "--c", "3", "--reps", "100", "--seed", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 1
    assert report["config"]["source"] == {"family": "complete", "n": 4, "c": 3}
    assert report["version"]
    assert report["input"]["digest"]


def test_usage_error_two_sources(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(
            capsys,
            "census", "--family", "pyramid", "--n", "3",
            "--input", "nope.txt", "--out", str(out_file),
        )
    assert exc.value.code == 2
    assert not out_file.exists()


@pytest.mark.parametrize(
    "case",
    [
        ["census", "--input", "{bad}"],
        ["census", "--family", "pyramid", "--n", "3", "--out", "{missing}/x.json"],
        ["simulate", "--family", "pyramid", "--n", "3", "--c", "2", "--reps", "10", "--seed", "1",
         "--raw-out", "{missing}/base"],
    ],
    ids=["input-not-utf8", "out-unwritable", "raw-out-unwritable"],
)
def test_unusable_files_are_usage_errors(tmp_path, case):
    # run as a process, so a traceback would reach stderr
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n\xff\n")
    argv = [a.format(bad=bad, missing=tmp_path / "no" / "such") for a in case]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "monoclt.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "cannot" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("out", ["{missing}/x.json", "{tmp}"], ids=["no-directory", "a-directory"])
def test_unwritable_out_is_refused_before_the_computation(capsys, monkeypatch, tmp_path, out):
    def never(*args, **kwargs):
        raise AssertionError("class discovery entered")

    monkeypatch.setattr(fourthmoment, "discover_classes", never)
    path = out.format(missing=tmp_path / "no" / "such", tmp=tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "fourth-moment", "--family", "complete", "--n", "10", "--c", "5", "--out", path)
    assert exc.value.code == 2
    assert f"cannot write {path}" in capsys.readouterr().err


def test_usage_error_no_source(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "moments", "--c", "2")
    assert exc.value.code == 2


@pytest.mark.parametrize("entry", ["gnp:5", "composite:8", "pyramid", "pyramid:x"])
def test_bad_parts_entry_is_a_usage_error(capsys, entry):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "census", "--family", "disjoint_union", "--parts", entry)
    assert exc.value.code == 2
    assert f"bad --parts entry {entry!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--family", "pyramid", "--n", "3", "--input", "{g}"),
        ("moments", "--c", "2"),
        ("bounds", "--family", "star", "--n", "3", "--p", "0.9", "--c", "2"),
        ("generate", "--input", "{bad}"),
        ("census", "--family", "disjoint_union", "--parts", "pyramid:x"),
        ("fourth-moment", "--family", "complete", "--n", "5", "--c", "5", "--out", "{missing}/x.json"),
        ("simulate", "--family", "pyramid", "--n", "3", "--c", "2", "--reps", "10", "--seed", "1",
         "--raw-out", "{missing}/base"),
    ],
    ids=["two-sources", "no-source", "ignored-option", "input-not-utf8", "bad-parts",
         "out-unwritable", "raw-out-unwritable"],
)
def test_post_parse_usage_errors_print_the_command_usage(capsys, tmp_path, argv):
    (tmp_path / "g.txt").write_text("0 1\n")
    (tmp_path / "bad.txt").write_bytes(b"0 1\n\xff\n")
    paths = {"g": tmp_path / "g.txt", "bad": tmp_path / "bad.txt", "missing": tmp_path / "no" / "such"}
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *(a.format(**paths) for a in argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: monoclt {argv[0]} [-h]")
    assert f"\nmonoclt {argv[0]}: error: " in captured.err


@pytest.mark.parametrize(
    "argv,unknown",
    [
        (("census", "--bogus"), "--bogus"),
        (("census", "--family", "pyramid", "--n", "3", "--budget", "5"), "--budget 5"),
        (("verify", "--c", "3"), "--c 3"),
    ],
    ids=["unknown-option", "other-command-option", "verify"],
)
def test_unknown_arguments_print_the_command_usage(capsys, argv, unknown):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: monoclt {argv[0]} [-h]")
    assert captured.err.endswith(f"\nmonoclt {argv[0]}: error: unrecognized arguments: {unknown}\n")


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--family", "pyramid", "--n", "3", "--c", "2", "--reps", "10", "--seed", "1"),
        ("fourth-moment", "--family", "pyramid", "--n", "3", "--c", "2"),
    ],
    ids=["simulate", "fourth-moment"],
)
def test_threads_below_one_is_a_usage_error(capsys, argv, threads):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv, "--threads", threads)
    assert exc.value.code == 2
    assert "need at least one thread" in capsys.readouterr().err


def test_verify_passes_its_four_checks(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    assert out.splitlines() == [
        "PASS  oracle equality (closed forms vs full enumeration)",
        "PASS  class discovery on K9 finds exactly 32 classes",
        "PASS  pyramid and chain-quadruple classes present",
        "PASS  sign dichotomy (all positive for c >= 5; 4-pyramid negative for c <= 4)",
        "OK: 4/4 checks passed",
    ]
    assert err == ""


def test_domain_error_exit_code(capsys, tmp_path):
    # triangle-free input: fourth moment is a domain error, exit 1,
    # and no output file is created
    c4 = tmp_path / "c4.txt"
    run_cli(capsys, "generate", "--family", "cycle", "--n", "4", "--out", str(c4))
    out_file = tmp_path / "r.json"
    code, _, err = run_cli(
        capsys, "fourth-moment", "--input", str(c4), "--c", "2", "--out", str(out_file)
    )
    assert code == 1
    assert not out_file.exists()
    error = json.loads(err)
    assert error["error"] == "NoTrianglesError"
    assert error["operation"] == "fourth-moment"


def test_gnp_generation_deterministic(capsys):
    argv = ["generate", "--family", "gnp", "--n", "30", "--p", "0.5", "--graph-seed", "3"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_disjoint_union_parts(capsys):
    code, out, _ = run_cli(
        capsys,
        "generate", "--family", "disjoint_union",
        "--parts", "pyramid:8", "bipyramid_chain:17",
    )
    assert code == 0
    assert out.startswith(f"# vertices={10 + 53} edges={17 + 102}\n")


def test_composite_generation(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "composite", "--n", "8", "--c", "2")
    assert code == 0
    assert out.startswith("# vertices=63 edges=119\n")


def test_moments_and_bounds_on_triangle_free_graph(capsys):
    # T3 sections are omitted instead of erroring when no triangle exists
    code, out, _ = run_cli(capsys, "moments", "--family", "cycle", "--n", "4", "--c", "2")
    assert code == 0
    body = json.loads(out)["report"]
    assert "T2" in body and "T3" not in body
    code, out, _ = run_cli(capsys, "bounds", "--family", "cycle", "--n", "4", "--c", "2")
    assert code == 0
    body = json.loads(out)["report"]
    assert "T2" in body and "T3" not in body


def test_simulate_raw_out(capsys, tmp_path):
    import numpy as np

    base = tmp_path / "raw"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--family", "complete", "--n", "4",
        "--c", "2", "--reps", "2000", "--seed", "5", "--statistic", "T3",
        "--raw-out", str(base),
    )
    assert code == 0
    raw = np.frombuffer((tmp_path / "raw.t3.bin").read_bytes(), dtype="<i8")
    assert len(raw) == 2000
    report = json.loads(out)
    dist = {v: n for v, n in report["report"][0]["distribution"]}
    counts = {int(v): int(n) for v, n in zip(*np.unique(raw, return_counts=True))}
    assert counts == dist
    assert not (tmp_path / "raw.t2.bin").exists()


def _strict_json(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--c", "1"),
        ("bounds", "--c", "1"),
        ("simulate", "--c", "1", "--reps", "10", "--seed", "1"),
        ("simulate", "--c", "2", "--reps", "0", "--seed", "1"),
        ("simulate", "--c", "2", "--reps", "10", "--seed", "-1"),
        ("simulate", "--c", "2", "--reps", "10", "--seed", str(2**64)),
        ("fourth-moment", "--c", "0"),
        ("fourth-moment", "--c", "2", "--budget", "-5"),
        # colours past 2^64 do not fit a uint64 colour array
        ("moments", "--c", str(2**64 + 1)),
        ("bounds", "--c", str(2**64 + 1)),
        ("fourth-moment", "--c", str(2**64 + 1)),
        ("simulate", "--c", str(2**64 + 1), "--reps", "10", "--seed", "1"),
        # a non-finite gap used to reach the report as NaN / Infinity, and
        # a negative one made every support value its own atom
        *(("simulate", "--c", "2", "--reps", "10", "--seed", "1", f"--atom-gap={gap}")
          for gap in ("nan", "inf", "-inf", "-1")),
    ],
)
def test_bad_parameters_end_in_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--family", "pyramid", "--n", "3", *argv[1:])
    assert code == 1
    assert out == ""
    error = json.loads(err, parse_constant=_strict_json)
    assert error["error"] == "BadParamsError"
    assert error["operation"] == argv[0]


@pytest.mark.parametrize("command", ["census", "moments", "bounds", "fourth-moment", "generate"])
def test_oversized_family_is_a_domain_error(capsys, command):
    # K_{10^8} has about 5 * 10^15 edges; it used to be built until the
    # process was killed for memory
    argv = [command, "--family", "complete", "--n", "100000000"] + ([] if command == "generate" else ["--c", "3"])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "TooLargeError"
    assert error["operation"] == command
    assert error["detail"] == "complete would build 4999999950000000 edges, over the cap of 10000000"


def test_oversized_vertex_header_is_a_domain_error(capsys, tmp_path):
    # every array was sized by the header: 2 * 10^7 vertices took 27 s and
    # 2.6 GB for three edges
    cap = 2 * graph.MAX_EDGES
    path = tmp_path / "g.txt"
    path.write_text(f"# vertices={cap + 1}\n0 1\n1 2\n0 2\n")
    code, out, err = run_cli(capsys, "census", "--input", str(path))
    assert code == 1
    assert out == ""
    error = json.loads(err, parse_constant=_strict_json)
    assert error["error"] == "TooLargeError"
    assert error["detail"] == f"vertices={cap + 1} in the header is over the cap of {cap}"


def test_refused_allocation_is_a_domain_error(capsys, monkeypatch):
    def sampler(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.58 GiB for an array with shape (1024, 9000000)")

    monkeypatch.setattr(cli, "sample_statistics", sampler)
    code, out, err = run_cli(capsys, "simulate", "--family", "pyramid", "--n", "3", "--c", "3",
                             "--reps", "1024", "--seed", "1", "--statistic", "T2")
    assert code == 1
    assert out == ""
    error = json.loads(err, parse_constant=_strict_json)
    assert error["error"] == "MemoryError"
    assert error["operation"] == "simulate"
    assert error["detail"].startswith("Unable to allocate")


GNP20 = ("census", "--family", "gnp", "--n", "20", "--p", "0.5", "--graph-seed")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_graph_seed_outside_64_bits_is_a_domain_error(capsys, seed):
    # masked to 64 bits, -1 and 2^64 used to alias 2^64 - 1 and 0
    code, out, err = run_cli(capsys, *GNP20, str(seed))
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "BadParamsError"
    assert error["operation"] == "census"


def test_graph_seeds_at_both_ends_of_64_bits_are_distinct(capsys):
    digests = []
    for seed in (0, 2**64 - 1):
        code, out, _ = run_cli(capsys, *GNP20, str(seed))
        assert code == 0
        digests.append(json.loads(out)["input"]["digest"])
    assert digests[0] != digests[1]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("budget,code", [("0", 1), ("181691", 1), ("181692", 0)])
def test_fourth_moment_budget_bounds_the_total(capsys, threads, budget, code):
    # class discovery on K9 reads at most W = 181,692 rows, however many threads
    got, out, err = run_cli(
        capsys,
        "fourth-moment", "--family", "complete", "--n", "9", "--c", "5",
        "--budget", budget, "--threads", threads,
    )
    assert got == code
    if code:
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "BudgetExceededError"
        assert error["detail"] == f"class discovery reads up to 181692 rows, past budget {budget}"
    else:
        assert len(json.loads(out)["report"]["classes"]) == 32


@pytest.mark.parametrize("budget,code", [("22367", 1), ("22368", 0)])
def test_fourth_moment_budget_on_composite(capsys, budget, code):
    # class discovery on composite(12) at c = 2 reads at most W = 22,368 rows
    got, out, err = run_cli(
        capsys, "fourth-moment", "--family", "composite", "--n", "12", "--c", "2", "--budget", budget,
    )
    assert got == code
    if code:
        assert out == ""
        assert json.loads(err)["error"] == "BudgetExceededError"
    else:
        assert set(json.loads(out)["report"]) == {"c", "classes", "sigma2", "excess4"}


@pytest.mark.parametrize("c", [70000, 2**32 + 1, 2**64])
def test_simulate_more_colors_than_uint16(capsys, c):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--family", "pyramid", "--n", "3",
        "--c", str(c), "--reps", "10", "--seed", "1", "--threads", "1",
    )
    assert code == 0
    for result in json.loads(out)["report"]:
        assert sum(n for _, n in result["distribution"]) == 10


def _floats(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _floats(value)
    elif isinstance(node, list):
        for value in node:
            yield from _floats(value)


@pytest.mark.parametrize(
    "argv",
    [
        ("moments",),
        ("bounds",),
        ("fourth-moment",),
        ("simulate", "--reps", "10", "--seed", "1", "--threads", "1"),
    ],
)
def test_largest_colour_count_gives_finite_floats(capsys, argv):
    code, out, _ = run_cli(
        capsys, argv[0], "--family", "complete", "--n", "5", "--c", str(2**64 - 1), *argv[1:]
    )
    assert code == 0
    floats = list(_floats(json.loads(out)["report"]))
    assert floats and all(math.isfinite(f) for f in floats)


def _count_calls(monkeypatch, names):
    """Replace every binding of the named census functions in the package
    with a wrapper that records the call; returns the record."""
    calls = []
    for name in names:
        original = getattr(census, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (census, cli, fourthmoment, moments, sim):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_moments_runs_the_triangle_census_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, ("triangle_census",))
    code, _, _ = run_cli(capsys, "moments", "--family", "bipyramid_chain", "--n", "5", "--c", "3")
    assert code == 0
    assert calls == ["triangle_census"]


def test_simulate_t2_needs_no_census(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, ("triangle_census", "count_c4"))
    code, _, _ = run_cli(
        capsys,
        "simulate", "--family", "pyramid", "--n", "10",
        "--c", "3", "--reps", "100", "--seed", "1", "--statistic", "T2",
    )
    assert code == 0
    assert calls == []


# Every subcommand's options as (option strings, dest, default, required,
# choices, help), recorded before the commands were declared in one table.
# A dropped default or help string shows in no report, so only this
# catches it. CPUS stands for the os.cpu_count() default of --threads.
CPUS = object()
FAMILY_CHOICES = ("complete", "star", "cycle", "pyramid", "bipyramid_chain", "composite", "gnp",
                  "disjoint_union")
SOURCE_OPTIONS = [
    (("--input",), "input", None, False, None, "edge-list file (one 'u v' pair per line)"),
    (("--family",), "family", None, False, FAMILY_CHOICES, "generated family"),
    (("--n",), "n", None, False, None, "family size parameter"),
    (("--p",), "p", None, False, None, "edge probability (gnp)"),
    (("--graph-seed",), "graph_seed", None, False, None, "seed for the gnp family"),
    (("--parts",), "parts", None, False, None,
     "parts of a disjoint_union, e.g. pyramid:8 bipyramid_chain:17"),
]
C_OPTIONAL = (("--c",), "c", None, False, None, "colors (sizes the composite family)")
C_REQUIRED = (("--c",), "c", None, True, None, "number of colors (>= 2)")
OUT = (("--out",), "out", None, False, None, "output path (default stdout)")
SUBCOMMAND_OPTIONS = {
    "generate": ("write a family graph as an edge list", [*SOURCE_OPTIONS, C_OPTIONAL, OUT]),
    "census": ("triangle census and derived statistics", [*SOURCE_OPTIONS, C_OPTIONAL, OUT]),
    "moments": ("exact closed-form moments", [*SOURCE_OPTIONS, C_REQUIRED, OUT]),
    "bounds": ("CLT error-bound brackets", [*SOURCE_OPTIONS, C_REQUIRED, OUT]),
    "fourth-moment": ("exact fourth-moment decomposition", [
        *SOURCE_OPTIONS,
        C_REQUIRED,
        (("--budget",), "budget", 10_000_000, False, None,
         "cap on W, a bound on the triangle rows class discovery reads (>= 0)"),
        (("--threads",), "threads", CPUS, False, None,
         "accepted and ignored: class discovery runs on one thread"),
        OUT,
    ]),
    "simulate": ("seeded Monte Carlo sampling", [
        *SOURCE_OPTIONS,
        C_REQUIRED,
        (("--reps",), "reps", None, True, None, "replications"),
        (("--seed",), "seed", None, True, None, "sampling seed"),
        (("--statistic",), "statistic", "both", False, ("T2", "T3", "both"), None),
        (("--atom-gap",), "atom_gap", None, False, None, "raw-scale gap for atom clustering"),
        (("--raw-out",), "raw_out", None, False, None,
         "also stream per-replication values to BASE.t2.bin / BASE.t3.bin "
         "(little-endian 64-bit integers, replication order)"),
        (("--threads",), "threads", CPUS, False, None, None),
        OUT,
    ]),
    "verify": ("run the built-in acceptance checks", []),
}


def test_subcommand_options_are_unchanged():
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in subs._choices_actions}
    got = {}
    for name, sub in subs.choices.items():
        got[name] = (helps[name], [
            (tuple(a.option_strings), a.dest, CPUS if a.dest == "threads" else a.default,
             a.required, a.choices, a.help)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ])
        if name in ("fourth-moment", "simulate"):
            assert sub.get_default("threads") == os.cpu_count()
    assert got == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--family", "complete", "--n", "4", "--graph-seed", "7"),
        ("moments", "--family", "star", "--n", "3", "--p", "0.9", "--c", "2"),
        ("census", "--family", "disjoint_union", "--parts", "pyramid:3", "--n", "9"),
        ("census", "--family", "pyramid", "--n", "3", "--parts", "pyramid:2"),
        ("census", "--input", "{g}", "--n", "5"),
        ("census", "--input", "{g}", "--p", "0.3"),
        ("census", "--input", "{g}", "--graph-seed", "1"),
        ("census", "--input", "{g}", "--parts", "pyramid:2"),
    ],
)
def test_graph_options_the_source_ignores_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    # refused before the input is read or any graph is built
    def never(*args, **kwargs):
        raise AssertionError("graph built")

    monkeypatch.setattr(cli, "generate", never)
    monkeypatch.setattr(cli, "parse_edge_list", never)
    g = tmp_path / "g.txt"
    g.write_text("0 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *(a.format(g=g) for a in argv))
    assert exc.value.code == 2
    assert "does not apply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("-h",), ("bogus",), (), *((name, "-h") for name in (*cli.COMMANDS, "verify")), ("moments", "--family", "star")],
    ids=lambda argv: " ".join(argv) or "none",
)
def test_parser_of_one_command_prints_what_the_full_parser_prints(capsys, argv):
    # run builds only the named command's subparser; help, and the usage
    # errors argparse raises while parsing, must not tell the difference
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    assert outcome(run) == outcome(cli.build_parser().parse_args)


def test_a_known_command_builds_only_its_subparser(capsys):
    assert list(cli.build_parser("census").subparsers.choices) == ["census"]
    assert list(cli.build_parser("bogus").subparsers.choices) == [*cli.COMMANDS, "verify"]
    with pytest.raises(SystemExit):
        run(["-h"])
    listing = capsys.readouterr().out
    assert all(name in listing for name in (*cli.COMMANDS, "verify"))
