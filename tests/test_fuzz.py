"""A seeded argv fuzzer for the CLI contract: whatever the arguments, a run
ends in exit 0, in exit 1 with a strict-JSON domain error on stderr, or in
argparse's usage error (SystemExit(2)), and never in another exception.

The argv lists are drawn from a small grammar of commands, families,
values and files. What would run is capped so the whole test stays short:
n <= 9, --reps <= 2048, --input headers of at most 10^4 vertices, and
--threads 1 or 2 when valid. Sizes past a cap appear only where the
program refuses them before any work (family sizes, headers past 2 * 10^7).
"""

import json
import random

import pytest

from monoclt import cli
from monoclt.graph import FAMILIES

COMMANDS = (*cli.COMMANDS, "verify")

BAD_INTS = ("-1", "0", "nan", "inf", str(2**64), str(10**30), "x", "1.5", "")
BAD_FLOATS = ("-0.5", "1.5", "nan", "inf", "-inf", "x", "")

# --input files by name: text, or bytes for files that are not UTF-8
INPUTS = {
    "triangle": "0 1\n1 2\n0 2\n",
    "pyramid": "# vertices=6 edges=9\n0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n1 4\n1 5\n",
    "crlf": "# vertices=5\r\n0 1\r\n1 2\r\n0 2\r\n2 3\r\n",
    "sparse-ids": f"10 20\n20 30\n10 30  # ids\n{2**64} 10\n",
    "wide-header": "# vertices=10000\n0 1\n1 2\n0 2\n9999 0\n",
    "header-too-large": "# vertices=20000001\n0 1\n",
    "past-header": "# vertices=3\n0 1\n1 5\n",
    "self-loop": "0 1\n2 2\n",
    "malformed": "0 1\n1 two\n",
    "three-tokens": "0 1 2\n",
    "negative": "-1 2\n",
    "empty": "",
    "comments-only": "# vertices=4\n# nothing else\n",
    "binary": b"0 1\n\xff\xfe\x00\n",
}


def _value(rng, valid, bad):
    return rng.choice(bad) if rng.random() < 0.1 else str(rng.choice(valid))


def _draw(rng, command, family, inputs, folder, missing):
    """One argv for command, with its graph source and options drawn from
    the grammar; family None draws one of the inputs, or no source at all.
    Outputs go to folder, to folder itself or under the missing folder."""
    argv = [command]
    if command == "verify":  # verify runs only with extra arguments, so it always stops at parsing
        return argv + rng.choice((["--c", "3"], ["--bogus"], ["--n", "3", "--n", "4"], ["extra"]))
    if family is not None:
        argv += ["--family", family]
        spec = FAMILIES.get(family)
        for field in spec.reads if spec else ("n",):
            if field == "n":
                argv += ["--n", _value(rng, range(1, 10), BAD_INTS)]
            elif field == "p":
                argv += ["--p", _value(rng, (0.0, 0.3, 0.5, 1.0), BAD_FLOATS)]
            elif field == "seed":
                argv += ["--graph-seed", _value(rng, (0, 1, 7, 2**64 - 1), ("-1", str(2**64), "x"))]
            elif field == "parts":
                parts = [f"{rng.choice(('complete', 'star', 'cycle', 'pyramid', 'bipyramid_chain'))}:"
                         f"{rng.randrange(1, 10)}" for _ in range(rng.randrange(1, 4))]
                if rng.random() < 0.25:
                    parts.append(rng.choice(("gnp:5", "pyramid", "pyramid:x", "nosuch:3",
                                             f"star:{10**30}", "cycle:-1", ":")))
                argv += ["--parts", *parts]
    if family is None or rng.random() < 0.05:
        if rng.random() < 0.9:
            argv += ["--input", str(rng.choice(inputs))]
    c_valid = (2, 3, 4, 5, 7) if command != "fourth-moment" else (2, 3, 5)
    if cli.COMMANDS[command][1] or rng.random() < 0.3:
        if rng.random() < 0.9:
            argv += ["--c", _value(rng, c_valid, ("1", *BAD_INTS))]
    if command == "fourth-moment":
        if rng.random() < 0.5:
            argv += ["--budget", _value(rng, (0, 1000, 10**7), ("-5", "x", "nan", str(10**30), ""))]
        if rng.random() < 0.5:
            argv += ["--threads", _value(rng, (1, 2), ("0", "-1", "x"))]
    if command == "simulate":
        if rng.random() < 0.95:
            argv += ["--reps", _value(rng, (1, 7, 100, 1024, 2048), ("0", "-1", "nan", "inf", "x", ""))]
        if rng.random() < 0.95:
            argv += ["--seed", _value(rng, (0, 1, 2**64 - 1), ("-1", str(2**64), "x", ""))]
        if rng.random() < 0.5:
            argv += ["--statistic", _value(rng, ("T2", "T3", "both"), ("t2", ""))]
        if rng.random() < 0.3:
            argv += ["--atom-gap", _value(rng, (0, 0.5, 3), BAD_FLOATS)]
        if rng.random() < 0.3:
            argv += ["--raw-out", str(missing / "raw" if rng.random() < 0.1 else folder / "raw")]
        if rng.random() < 0.5:
            argv += ["--threads", _value(rng, (1, 2), ("0", "-1", "x"))]
    if rng.random() < 0.3:
        argv += ["--out", str(rng.choice((folder, missing / "out")) if rng.random() < 0.1 else folder / "out.txt")]
    if rng.random() < 0.1:  # an unknown flag, or one of another command
        argv += [rng.choice(("--bogus", "--budget", "--reps", "-x", "--n=3", "--family"))]
    if rng.random() < 0.1 and len(argv) > 2:  # a flag given twice, or its value dropped
        i = rng.randrange(1, len(argv))
        argv = argv + argv[i:i + 2] if rng.random() < 0.5 else argv[:i] + argv[i + 1:]
    return argv


def _strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_every_argv_ends_in_the_contract(capsys, tmp_path):
    missing = tmp_path / "no" / "such"
    inputs = [tmp_path, missing / "g.txt"]  # a directory and an absent file, neither readable
    for name, content in INPUTS.items():
        inputs.append(tmp_path / f"{name}.txt")
        if isinstance(content, bytes):
            inputs[-1].write_bytes(content)
        else:
            inputs[-1].write_text(content, newline="")

    rng = random.Random(5)
    families = (*FAMILIES, "nosuch", None, None)
    seen, codes = set(), {0: 0, 1: 0, 2: 0}
    for k in range(400):
        command = COMMANDS[k % len(COMMANDS)]
        family = families[(k // len(COMMANDS)) % len(families)]
        argv = _draw(rng, command, family, inputs, tmp_path, missing)
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2), argv
        except Exception as exc:  # anything else is a fault of the program
            pytest.fail(f"{argv!r} raised {exc!r}")
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 1:
            error = json.loads(captured.err, parse_constant=_strict)
            assert {"tool", "error", "detail"} <= set(error), argv
            assert captured.out == "", argv
        elif code == 0 and command != "generate" and "--out" not in argv:
            json.loads(captured.out, parse_constant=_strict)
        codes[code] += 1
        seen.add((command, family))
    # every command met every family and the no-family sources, and each outcome happened
    assert len(seen) == len(COMMANDS) * len(set(families))
    assert min(codes.values()) >= 40, codes
