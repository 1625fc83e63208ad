"""Command-line output bytes against expected outputs in ``tests/golden/``.

Every subcommand runs on inputs drawn here from fixed seeds, once with
``STRUCTENT_LOG_BASE=2`` and once with ``e``.  Its stdout and every
``--out`` file, with the temporary directory written as ``<tmp>``, must
equal the stored bytes.  An unknown base must fail every subcommand before
it writes anything.

After a deliberate change of output, rewrite the expected files with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from structent import (
    Distribution,
    LinearAlphabet,
    distribution_to_json,
    linear_structure,
    structure_to_json,
    tree_to_distance,
    tree_to_newick,
)
from structent.cli import main
from structent.io import distance_to_csv
from structent.sampling import (
    default_letters,
    random_distribution,
    random_joint_matrix,
    random_structure,
    random_ultrametric_tree,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
BASES = ("2", "e")

# name -> (argv, the --out files it writes); "{d}/" prefixes an input or output file
CASES = {
    "hu": (["hu", "--tree", "{d}/tree.nwk", "--probs", "{d}/probs.json", "--forms",
            "--out-structure", "{d}/bands.json"], ["bands.json"]),
    "hu_near_tied": (["hu", "--tree", "{d}/near_tied.nwk", "--lengths", "L", "--probs", "{d}/uniform4.json",
                      "--forms", "--out-structure", "{d}/near_tied_bands.json"], ["near_tied_bands.json"]),
    "hs": (["hs", "--structure", "{d}/structure.json", "--probs", "{d}/probs.json"], []),
    "notions_joint": (["notions", "--joint", "{d}/joint.json", "--row-structure", "{d}/rows.json",
                       "--col-structure", "{d}/cols.json"], []),
    "notions_divergence": (["notions", "--structure", "{d}/structure.json", "--probs", "{d}/probs.json",
                            "--probs2", "{d}/probs2.json"], []),
    "distance_matrix": (["distance", "--matrix", "{d}/ultra.csv", "--probs", "{d}/probs.json",
                         "--out", "{d}/tree_out.nwk"], ["tree_out.nwk"]),
    "distance_witness": (["distance", "--matrix", "{d}/skewed.csv"], []),
    "distance_structure": (["distance", "--structure", "{d}/structure.json", "--out", "{d}/states.csv"],
                           ["states.csv"]),
    "code": (["code", "--tree", "{d}/tree.nwk", "--probs", "{d}/probs.json", "--optimize",
              "--structure", "{d}/structure.json", "--out", "{d}/codes.csv"], ["codes.csv"]),
    "trials": (["trials", "--count", "5", "--seed", "13", "--min-n", "3", "--max-n", "12",
                "--violations-dir", "{d}", "--out", "{d}/report.json"], ["report.json"]),
    "itr_points": (["itr", "--points", "{d}/weighted.csv"], []),
    "itr_sample": (["itr", "--points", "{d}/sample.csv"], []),
    "sequences_typical": (["sequences", "--probs", "{d}/probs4.json", "--length", "9", "--epsilon", "0.1"], []),
    "sequences_classes": (["sequences", "--probs", "{d}/probs4.json", "--structure", "{d}/structure4.json",
                           "--length", "7", "--epsilon", "0.2"], []),
    "conserve": (["conserve", "--aln", "{d}/aln.fasta", "--gap-mode", "extra-letter",
                  "--out", "{d}/conserve.csv"], ["conserve.csv"]),
    "conserve_stockholm": (["conserve", "--aln", "{d}/aln.sto", "--gap-mode", "extra-letter",
                            "--out", "{d}/conserve.csv"], ["conserve.csv"]),
    "conserve_skip": (["conserve", "--aln", "{d}/gappy.fasta", "--gap-mode", "skip",
                       "--out", "{d}/conserve.csv"], ["conserve.csv"]),
    "notions_joint_line": (["notions", "--joint", "{d}/line_joint.json", "--row-structure", "{d}/line_rows.json",
                            "--col-structure", "{d}/line_cols.json"], []),
}


def write_inputs(d: str) -> None:
    """The input files of every case, drawn from fixed seeds."""

    def put(name: str, text: str) -> None:
        with open(os.path.join(d, name), "w") as fh:
            fh.write(text)

    rng = np.random.default_rng(1301)
    T = random_ultrametric_tree(9, rng)
    A = T.alphabet
    put("tree.nwk", tree_to_newick(T) + "\n")
    put("probs.json", distribution_to_json(random_distribution(A, rng)))
    put("probs2.json", distribution_to_json(random_distribution(A, rng)))
    put("structure.json", structure_to_json(random_structure(A, rng, normalized=True)))
    put("ultra.csv", distance_to_csv(tree_to_distance(T)))
    m = rng.uniform(0.1, 1.0, size=(6, 6))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    put("skewed.csv", "," + ",".join(default_letters(6).letters) + "\n" + "".join(
        f"{a}," + ",".join(repr(float(x)) for x in row) + "\n" for a, row in zip(default_letters(6).letters, m)
    ))
    rows, cols = default_letters(3), default_letters(4)
    put("joint.json", json.dumps({"row_alphabet": list(rows.letters), "col_alphabet": list(cols.letters),
                                  "matrix": random_joint_matrix(3, 4, rng).tolist()}))
    put("rows.json", structure_to_json(random_structure(rows, rng)))
    put("cols.json", structure_to_json(random_structure(cols, rng, normalized=True)))
    A4 = default_letters(4)
    put("probs4.json", distribution_to_json(random_distribution(A4, rng)))
    put("structure4.json", structure_to_json(random_structure(A4, rng, normalized=True)))
    points = np.sort(np.round(rng.uniform(-2.0, 3.0, size=7), 3))
    put("weighted.csv", "".join(f"{x!r},{p!r}\n" for x, p in zip(points.tolist(), rng.dirichlet(np.ones(7)).tolist())))
    put("sample.csv", "".join(f"{x!r}\n" for x in np.round(rng.normal(size=11), 2).tolist()))
    residues = np.array(list("ACDEFGHIKLMNPQRSTVWY-"))
    seqs = ["".join(residues[rng.integers(0, 21, size=16)]) for _ in range(5)]
    put("aln.fasta", "".join(f">r{k}\n{seq}\n" for k, seq in enumerate(seqs)))
    blocks = ["".join(f"r{k}  {seq[i:i + 10].lower()}\n" for k, seq in enumerate(seqs)) for i in (0, 10)]
    put("aln.sto", "# STOCKHOLM 1.0\n#=GF ID aln\n\n" + "\n".join(blocks) + "//\n")
    # skipped gaps: an all-gap column (coverage 0, flagged, every score 0),
    # coverage 1/3 (flagged) and 2/3 beside full columns
    put("gappy.fasta", ">r0\nA-AKWCE\n>r1\n--VF-CQ\n>r2\n--AFWDK\n")
    lines = [LinearAlphabet(np.cumsum(rng.uniform(0.05, 0.2, size=12)).tolist()) for _ in range(2)]
    put("line_joint.json", json.dumps({"row_alphabet": list(lines[0].points), "col_alphabet": list(lines[1].points),
                                       "matrix": random_joint_matrix(12, 12, rng).tolist()}))
    put("line_rows.json", structure_to_json(linear_structure(lines[0])))
    put("line_cols.json", structure_to_json(linear_structure(lines[1])))
    put("near_tied.nwk", "((a:0.5,b:0.5):0.5,(c:0.5000000006,d:0.5000000006):0.4999999994);\n")
    put("uniform4.json", distribution_to_json(Distribution(A4, [0.25] * 4)))


def run_case(name: str, d: str) -> tuple[int, str, str, dict]:
    """Exit code, stdout and stderr of one case, and the ``--out`` files it
    wrote, with ``d`` written as ``<tmp>``."""
    argv, outs = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(d=d) for a in argv])
    files = {}
    for f in outs:
        path = os.path.join(d, f)
        if os.path.exists(path):
            with open(path) as fh:
                files[f] = fh.read().replace(d, "<tmp>")
            os.remove(path)
    return code, out.getvalue().replace(d, "<tmp>"), err.getvalue(), files


def golden_path(base: str) -> str:
    return os.path.join(GOLDEN, f"cli_base_{base}.json")


@pytest.fixture(scope="module")
def expected() -> dict:
    out = {}
    for base in BASES:
        with open(golden_path(base)) as fh:
            out[base] = json.load(fh)
    return out


@pytest.fixture
def inputs(tmp_path) -> str:
    write_inputs(str(tmp_path))
    return str(tmp_path)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", list(CASES))
def test_same_bytes(monkeypatch, expected, inputs, name, base):
    monkeypatch.setenv("STRUCTENT_LOG_BASE", base)
    code, stdout, stderr, files = run_case(name, inputs)
    assert (code, stderr) == (0, "")
    assert stdout == expected[base][name]["stdout"]
    assert files == expected[base][name]["files"]


@pytest.mark.parametrize("base", BASES)
def test_stockholm_twin(expected, base):
    # the same alignment as Stockholm, in two lowercase blocks, prints the
    # same summary and writes the same report as the FASTA file
    assert expected[base]["conserve_stockholm"] == expected[base]["conserve"]


@pytest.mark.parametrize("name", list(CASES))
def test_unknown_base_writes_nothing(monkeypatch, inputs, name):
    monkeypatch.setenv("STRUCTENT_LOG_BASE", "7")
    code, stdout, stderr, files = run_case(name, inputs)
    assert code == 1
    assert stdout == ""
    assert stderr.count("\n") == 1 and stderr.startswith("validation error: STRUCTENT_LOG_BASE")
    assert files == {}


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for base in BASES:
        os.environ["STRUCTENT_LOG_BASE"] = base
        table = {}
        with tempfile.TemporaryDirectory() as d:
            write_inputs(d)
            for name in CASES:
                code, stdout, stderr, files = run_case(name, d)
                if code or stderr:
                    sys.exit(f"{name} under base {base} failed: {stderr}")
                table[name] = {"stdout": stdout, "files": files}
        with open(golden_path(base), "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
