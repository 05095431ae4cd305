"""Byte pins: sha256 digests of reports and of an exact law. The simulate
reports and the gnp(10) law were recorded before the colouring kernel was
shared by the sampler and the exhaustive oracle; the other laws before
the exhaustive oracle enumerated colourings up to colour permutation;
the generate, census, moments and bounds reports before each graph
command was declared once in the CLI's command table; the simulate report
with atoms before post-parse usage errors were reported on the command's
own parser; the census, moments and bounds reports of star(2000),
pyramid(600), bipyramid_chain(300) and gnp(120, 0.5) before the census
layer was computed on numpy arrays; every fourth-moment report and
budget error when the budget came to cap W, a bound on the rows class
discovery reads, in place of the count of connected configurations. Any
change of a single byte fails here; a report change on purpose must
update the digest and say why in CHANGES.md."""

import hashlib

import pytest

from monoclt.cli import run
from monoclt.graph import complete, gnp
from monoclt.sim import exact_distribution

GNP60 = ("--family", "gnp", "--n", "60", "--p", "0.3", "--graph-seed", "1", "--seed", "8")

# (colors, replications) -> digest of the simulate report; c = 3, 300,
# 70000 and 2^40 take the uint8, uint16, uint32 and uint64 draw paths
REPORTS = {
    (3, 20000): "b98a12021720455a7fec98f9726fe26bd5a6414960298bc1bc36dbb1840135f4",
    (300, 20000): "d189f31474f3382b80270c9f388660e7dba8f1a3a14bec293606924ed39f8d61",
    (70000, 2000): "4bbae29452baaceadf0ef114a2dd0b514a862be92521c762a864a0ce23f89094",
    (2**40, 2000): "ec32203fdbe2411a34a2115c3e10c0d13b7d29cb648520b4b9835557148581f8",
}
RAW_C3 = {
    "t2": "bd72274835fd4899edb4ba814c259df16aeb248a9c927fd33a9533e719f958ac",
    "t3": "f95db242d790303f06d5440afe7eca4f043eca5a5c43bda9c095b9d6be16a3b8",
}
LAW_GNP10_C3 = "21438182630c9490c041168324f3ecd26d50efb9e6f3f145a1e034a41b365f4a"
# sorted joint laws of exact_distribution; K4 at c = 7 has more colours
# than vertices
LAWS = {
    "K10_c4": (complete(10), 4, "913590d987e46d53112fe6e9a18790bde6b5f4559861136b2a22251c08e8873e"),
    "gnp13_c3": (gnp(13, 0.4, 3), 3, "27871e119063bad5abb4a32a80eb60aa60951fe603abea3bbf0da080cbcde9b1"),
    "gnp18_c2": (gnp(18, 0.3, 5), 2, "fe4079f75a9a3be12437795c41bc3e2c411849e0e16cb1bb6f78acb748cff67d"),
    "K4_c7": (complete(4), 7, "336e3a2a010284c9851f2076f6b04fd98d4b6bc55b5d4572b84a92d2fe2288c9"),
}

# fourth-moment reports; K9 realizes all 32 nonzero classes, so these pin
# every coefficient polynomial with its counts.
# The bipyramid chain adds fourth triangles that bring a new vertex and the
# chain quadruple, whose 3-subsets are all separable
FOURTH_MOMENT = {
    "K9_c2": (("--family", "complete", "--n", "9", "--c", "2"),
              "2b1e7ebfcb7ba0a821d6535fbb27463e1dc9bacb83e509702de905fe7c5a684f"),
    "K9_c5": (("--family", "complete", "--n", "9", "--c", "5"),
              "3fbe44c2fb8be676647c8bd30f7a66d4f8875e09ee85c214afb63d4d7c159920"),
    "composite12_c2": (("--family", "composite", "--n", "12", "--c", "2"),
                       "e4a157d5b7d831bb1c27297c4cee5c6dbdc3120f8379746faec55da476a2a619"),
    "gnp16_c3": (("--family", "gnp", "--n", "16", "--p", "0.45", "--graph-seed", "0", "--c", "3"),
                 "4a3450c6f97cfaf03acdd48d95d197d6199dbf86ef08e3b0459887bbdce42cbf"),
    "bipyramid_chain20_c3": (("--family", "bipyramid_chain", "--n", "20", "--c", "3"),
                             "f74fdc79a9512934f640c7bd5c4b4028ca2d877af5bbdd2c70d7dba2ebb3a9fa"),
    "pyramid30_c2": (("--family", "pyramid", "--n", "30", "--c", "2"),
                     "27523241a7a0ca3325e23a165f061c0bcad7db15f366d4f1908f1ef6e19083f5"),
    "union_K6_pyramid5_chain6_c3": (("--family", "disjoint_union", "--parts", "complete:6", "pyramid:5",
                                     "bipyramid_chain:6", "--c", "3"),
                                    "e4e4fc200124b186b590fef7eabc375ee076476e543cb08704d7091b31a95d14"),
    "gnp18_c5": (("--family", "gnp", "--n", "18", "--p", "0.6", "--graph-seed", "1", "--c", "5"),
                 "905307c09dc5c04dfcf53ef518c0452bec74cf1a7e96a7de8a70d0ec4587f218"),
    # 3,759,715 connected configurations, twice K9's
    "gnp24_c3": (("--family", "gnp", "--n", "24", "--p", "0.4", "--graph-seed", "1", "--c", "3"),
                 "7f11b914efee8127f2db472628077b73c3a6ebd2ff21b8ec60c6bd5d63640f97"),
    # the paper's size, within the default budget
    "gnp60_c3": (("--family", "gnp", "--n", "60", "--p", "0.3", "--graph-seed", "1", "--c", "3"),
                 "fab5120af2b52372f0159fa9acdb0fffa1204a626dc4405a2ef8d66d97148ef4"),
}

# generate writes the edge list; composite(8) at c = 2 is pyramid(8) plus
# bipyramid_chain(17), the same graph as the union
GENERATE = {
    "union": (("--family", "disjoint_union", "--parts", "pyramid:8", "bipyramid_chain:17"),
              "9a3173e5e0fca328e0519a9750f2d2b6dd084f7bdaf1362472deeb3005e06b93"),
    "composite8_c2": (("--family", "composite", "--n", "8", "--c", "2"),
                      "9a3173e5e0fca328e0519a9750f2d2b6dd084f7bdaf1362472deeb3005e06b93"),
}

# census, moments and bounds reports; cycle(4) has no triangle, so its
# moments and bounds reports carry no T3 section
GRAPH_REPORTS = {
    "bipyramid_chain5_c3": ("--family", "bipyramid_chain", "--n", "5", "--c", "3"),
    "gnp20_c2": ("--family", "gnp", "--n", "20", "--p", "0.5", "--graph-seed", "4", "--c", "2"),
    "cycle4_c2": ("--family", "cycle", "--n", "4", "--c", "2"),
    # the hub graphs of the benchmark's sizes, and a dense gnp graph whose
    # s statistic and N(C4) pass 2^32
    "star2000_c3": ("--family", "star", "--n", "2000", "--c", "3"),
    "pyramid600_c3": ("--family", "pyramid", "--n", "600", "--c", "3"),
    "bipyramid_chain300_c3": ("--family", "bipyramid_chain", "--n", "300", "--c", "3"),
    "gnp120_c3": ("--family", "gnp", "--n", "120", "--p", "0.5", "--graph-seed", "1", "--c", "3"),
}
GRAPH_REPORT_DIGESTS = {
    ("census", "bipyramid_chain5_c3"): "8ef0ecfa4b0e7ba2b7c62e5ce3c2370a5a5803dc4a13ac740272af31ba3d3095",
    ("census", "gnp20_c2"): "c13428cdc848137815c7a0f7ba34e90d9901267ddda3762ae958c606d7b6c353",
    ("census", "cycle4_c2"): "542ce002382f6b94415f7ad6601e9cd492c4190b3f5be8bec444f46fc2f42ffd",
    ("moments", "bipyramid_chain5_c3"): "0cfd5cf26b89d59ee211b2adebb866faf15dbdb394f2d516d7fd421a996dd175",
    ("moments", "gnp20_c2"): "7db4ad3072d0ed523a92b5b256c87e2574c3d3e8ea375a53fac5eba0ef57e642",
    ("moments", "cycle4_c2"): "0bcedd668a99695ffc8eba45e4ee7ae3b1067526c6b7b8d7e88d91ba65f1ca5b",
    ("bounds", "bipyramid_chain5_c3"): "f11bee664428ec6ef553f2aa283c574a87c140ab58ec0f5697dba420abe1d1fb",
    ("bounds", "gnp20_c2"): "7ad1cd692ff3645e681e9e50954a261e1b26d7b290bb181ae60ce73188f559f6",
    ("bounds", "cycle4_c2"): "e018d661dd50d0c60c92e68fcc1340c3265af792b2848b2c5348ecaf4985a61a",
    ("census", "star2000_c3"): "76b377ff6565934c8f9102fb56485500f479f89471f45eaf90034509c2feba8f",
    ("census", "pyramid600_c3"): "ba116b6ff958dfa6c752e6866070a633ffc55398619bac19fc227b9ffae73c7d",
    ("census", "bipyramid_chain300_c3"): "bda2db1e1a29246507c2216df288e5cbefb99b75a90ac77b684100957ff311e4",
    ("census", "gnp120_c3"): "74ae2dd18b58241c8b640f9cf2dc8f7839f6bc319f75b8d24bece7cb96106509",
    ("moments", "star2000_c3"): "f06025beacce1ec12c68466afd1c19573bf0226809baf610f090653b909c9e0e",
    ("moments", "pyramid600_c3"): "a7d06a94c61b123e38976c2fc432b010b4457e317f721ef10d210463b0ff298a",
    ("moments", "bipyramid_chain300_c3"): "a0ca2be776c3ccd1d9b50b276eabb8683ab9585501c9fb14588deeaf963b481c",
    ("moments", "gnp120_c3"): "f949bce1693ce8ca141d417e4aa6ec318833ffa2bb0ecb9e992cf67e44c72f44",
    ("bounds", "star2000_c3"): "6762cf85df79a39db30a88881c5182bde287abf5958c867720d8b42af79edf31",
    ("bounds", "pyramid600_c3"): "b5da4b45ff35323f856964b4c32929e388d222e4ab95c96abd5c3fd191f59891",
    ("bounds", "bipyramid_chain300_c3"): "e337a24919581d809ae7af0748b5f1d794b3b4989f01ffb3e73bdc0c97b52c86",
    ("bounds", "gnp120_c3"): "9e35af8985f62cf9e4fcdcd0f5c595704b16cb24840d6adb83482816824f41b7",
}

# a T3 simulate report whose clustering finds two atoms
ATOMS = (
    ("simulate", "--family", "pyramid", "--n", "40", "--c", "2", "--reps", "4000", "--seed", "5",
     "--statistic", "T3", "--atom-gap", "5"),
    "c30a955e9b591446fd176b3169c81f93a17ec70e921db1d1b5781cb6fdeff50b",
)

# the JSON domain error on stderr, with every input echoed; W on K20 and
# K30 passes the default budget 4.7 and 64 times over
BUDGET_ERROR = (
    ("fourth-moment", "--family", "complete", "--n", "9", "--c", "5", "--budget", "0", "--threads", "2"),
    "9c3f417d41f7ef040f8d58016fe4b6333b368e215689f5c596aeba2aebd77693",
)
BUDGET_ERRORS = {
    "K20": (("fourth-moment", "--family", "complete", "--n", "20", "--c", "3", "--threads", "2"),
            "5a66365a2692c5e64297f5a53259e2e5178088543fb10609afde2095f74b9a95"),
    "K30": (("fourth-moment", "--family", "complete", "--n", "30", "--c", "3", "--threads", "2"),
            "2a1d954570168eaf9b56a691fc528a5532ccd9f488f67bb0c599d32d39000325"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _simulate(tmp_path, c, reps, threads, raw=None):
    out = tmp_path / "report.json"
    argv = ["simulate", *GNP60, "--c", str(c), "--reps", str(reps), "--statistic", "both",
            "--threads", str(threads), "--out", str(out)]
    if raw is not None:
        argv += ["--raw-out", str(raw)]
    assert run(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("c,reps", list(REPORTS))
def test_simulate_report_bytes_pinned(tmp_path, c, reps, threads):
    assert _sha(_simulate(tmp_path, c, reps, threads)) == REPORTS[(c, reps)]


def test_simulate_raw_out_bytes_pinned(tmp_path):
    base = tmp_path / "raw"
    report = _simulate(tmp_path, 3, 20000, 2, raw=base)
    assert _sha(report) == REPORTS[(3, 20000)]
    for stat, digest in RAW_C3.items():
        assert _sha((tmp_path / f"raw.{stat}.bin").read_bytes()) == digest


def _law_sha(g, c) -> str:
    joint = exact_distribution(g, c).joint
    text = "".join(f"{t2} {t3} {p.numerator}/{p.denominator}\n" for (t2, t3), p in sorted(joint.items()))
    return _sha(text.encode())


def test_exact_law_pinned():
    assert _law_sha(gnp(10, 0.4, 6), 3) == LAW_GNP10_C3


@pytest.mark.parametrize("case", list(LAWS))
def test_exact_laws_pinned(case):
    g, c, digest = LAWS[case]
    assert _law_sha(g, c) == digest


@pytest.mark.parametrize("case", list(FOURTH_MOMENT))
def test_fourth_moment_report_bytes_pinned(tmp_path, case):
    args, digest = FOURTH_MOMENT[case]
    out = tmp_path / "report.json"
    assert run(["fourth-moment", *args, "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == digest


@pytest.mark.parametrize("case", list(GENERATE))
def test_generate_bytes_pinned(capsysbinary, case):
    args, digest = GENERATE[case]
    assert run(["generate", *args]) == 0
    assert _sha(capsysbinary.readouterr().out) == digest


@pytest.mark.parametrize("command,graph", list(GRAPH_REPORT_DIGESTS))
def test_graph_report_bytes_pinned(capsysbinary, command, graph):
    assert run([command, *GRAPH_REPORTS[graph]]) == 0
    assert _sha(capsysbinary.readouterr().out) == GRAPH_REPORT_DIGESTS[(command, graph)]


def test_simulate_atoms_report_bytes_pinned(capsysbinary):
    argv, digest = ATOMS
    assert run(list(argv)) == 0
    assert _sha(capsysbinary.readouterr().out) == digest


def test_fourth_moment_budget_error_bytes_pinned(capsysbinary):
    argv, digest = BUDGET_ERROR
    assert run(list(argv)) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert _sha(captured.err) == digest


@pytest.mark.parametrize("case", list(BUDGET_ERRORS))
def test_fourth_moment_default_budget_error_bytes_pinned(capsysbinary, case):
    argv, digest = BUDGET_ERRORS[case]
    assert run(list(argv)) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert _sha(captured.err) == digest
