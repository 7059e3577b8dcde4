"""Golden CLI output: exit code, stdout without its duration line, and
stderr of each subcommand in JSON and CSV, and the first error `qspec dla`
reports for inputs with more than one fault. Both corpora live in
tests/data/cli_golden.json and must match byte for byte. Floating-point
results are pinned to the last bit, so a numpy or BLAS build that rounds
differently needs the corpus re-recorded.

Re-record after an intended output change with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import re

import pytest

from qspec.cli import dispatch

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "cli_golden.json")
CONFIG = os.path.join(DATA, "golden_train.cfg")

OUTPUT_ARGV = [
    ["spectrum", "--eigs", "-1,0,1", "--eigs", "0,1,3"],
    ["spectrum", "--eigs", "-1,0,1", "--eigs", "0,1,1.4142135623730951"],   # non-commensurate
    ["bounds", "lower", "--d", "2", "--r", "2", "--K", "2,4,8"],
    ["bounds", "upper", "--count", "3", "--K", "1,2,4", "--seed", "1"],
    ["bounds", "limit", "--pairs", "2.5:1,3:4,3.5:5"],
    ["dla", "--paulis", "XI;YI;ZZ;II"],                # single strings
    ["dla", "--paulis", "0.5*IY+II;IZ;-XI+2*ZZ"],      # sums
    ["variance", "--weights", "0,0.5", "--samples", "10", "--seed", "0"],
    ["train", "--config", "{config}"],
    ["selftest", "--seed", "0"],
]

ERROR_PAULIS = [
    "XXXXXXX+abc*X",                      # the side cap, not the bad coefficient
    "X-;XXXXXXX",                         # the stray sign, not the side cap
    "X;YY;0*Z",                           # the zero matrix, not the mixed lengths
    "QQ;0*X",                             # the invalid label, not the zero matrix
    ";".join(["XZXZXZ"] * 300 + ["QQ"]),  # the entry cap, not the invalid label
    "X;Y",                                # only the tolerance
    " ; ",
]


def run(argv) -> dict:
    """One in-process run as the corpus records it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dispatch([CONFIG if a == "{config}" else a for a in argv])
    text = re.sub(r'(?m)^(\s*"duration_s": |duration_s,).*\n', "", out.getvalue())
    return {"argv": argv, "rc": rc, "stdout": text.replace(CONFIG, "{config}"),
            "stderr": err.getvalue()}


def cases() -> dict:
    return {"output": [argv + ["--format", fmt] for argv in OUTPUT_ARGV for fmt in ("json", "csv")],
            "errors": [["dla", "--paulis", p, "--tol", "-1"] for p in ERROR_PAULIS]}


def golden(section: str) -> list:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[section]


@pytest.mark.parametrize("want", golden("output"), ids=lambda c: " ".join(c["argv"])[:60])
def test_output_matches_golden(want):
    assert run(want["argv"]) == want


@pytest.mark.parametrize("want", golden("errors"), ids=lambda c: c["argv"][2][:30])
def test_dla_reports_the_first_fault(want):
    got = run(want["argv"])
    assert got == want
    assert got["rc"] == 1 and got["stdout"] == "" and got["stderr"].count("\n") == 1


def test_corpus_covers_every_case():
    assert {s: [c["argv"] for c in golden(s)] for s in ("output", "errors")} == cases()


if __name__ == "__main__":
    corpus = {section: [run(argv) for argv in argvs] for section, argvs in cases().items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
