"""Hypothesis strategies for the text files the parsers and the CLI read.

Each strategy mostly builds a file of the right shape, so that the fields
reach the number readers and the validators behind them, and fills the
number fields from a pool rich in edge cases: nan, infinities, overflow,
negatives and junk.  The structure and joint strategies build valid JSON
around measures and probabilities that are zero, tiny, denormal or huge.
"""

from __future__ import annotations

import json

from hypothesis import strategies as hst

NUMBER_TEXT = hst.sampled_from(
    ["0", "0.25", "0.5", "1", "-1", "1e-300", "1e308", "-1e308", "1e400", "nan", "inf", "-inf", "x", ""]
) | hst.floats().map(repr)


@hst.composite
def newick_trees(draw) -> tuple[str, list[str]]:
    """(Newick text, leaf names).  Either a cherry whose two arcs share one
    length, so the leaves are equidistant whatever that length is, or a
    random shape with independent lengths."""
    if draw(hst.booleans()):
        x = draw(NUMBER_TEXT)
        return f"(a0:{x},a1:{x});", ["a0", "a1"]
    n = draw(hst.integers(2, 5))
    names = [f"a{k}" for k in range(n)]
    nodes = list(names)
    while len(nodes) > 1:
        k = draw(hst.integers(2, min(3, len(nodes))))
        i = draw(hst.integers(0, len(nodes) - k))
        nodes[i : i + k] = ["(" + ",".join(f"{g}:{draw(NUMBER_TEXT)}" for g in nodes[i : i + k]) + ")"]
    return nodes[0] + ";", names


NEWICK_JUNK = hst.text(alphabet="(),:;ab01e.+-nif \n", max_size=30)
VALID_NEWICKS = ["(a:0.5,b:0.5);", "((a:0.1,b:0.1):0.4,(c:0.1,d:0.1):0.4);", "( a :0.25 ,\tb:2.5e-1\r\n) ;\n"]
NEWICK_EDIT_CHARS = "(),;: \t\r\n\x0b\x0cab.0123456789eE+-x"


@hst.composite
def edited_newicks(draw) -> str:
    """A valid Newick tree after one to four single-character inserts,
    deletes or replacements drawn from ``NEWICK_EDIT_CHARS``."""
    text = list(draw(hst.sampled_from(VALID_NEWICKS)))
    for _ in range(draw(hst.integers(1, 4))):
        i, ch = draw(hst.integers(0, len(text))), draw(hst.sampled_from(NEWICK_EDIT_CHARS))
        op = draw(hst.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            text.insert(i, ch)
        elif i < len(text):
            text[i:i + 1] = [ch] if op == "replace" else []
    return "".join(text)


@hst.composite
def distance_csvs(draw) -> tuple[str, list[str]]:
    """(distance CSV text, letters): a symmetric matrix with a zero
    diagonal, rows labelled or not."""
    n = draw(hst.integers(1, 4))
    letters = [f"a{k}" for k in range(n)]
    cells = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cells[i][j] = cells[j][i] = draw(NUMBER_TEXT)
    labelled = draw(hst.booleans())
    lines = ["," + ",".join(letters) if labelled else ",".join(letters)]
    lines += [(letters[i] + "," if labelled else "") + ",".join(row) for i, row in enumerate(cells)]
    return "\n".join(lines) + "\n", letters


@hst.composite
def points_csvs(draw) -> str:
    """Points CSV: an optional header, then rows of one or two cells."""
    width = draw(hst.sampled_from([1, 2]))
    rows = draw(hst.lists(hst.lists(NUMBER_TEXT, min_size=width, max_size=width), min_size=1, max_size=5))
    header = ["value,probability"] if draw(hst.booleans()) else []
    return "\n".join(header + [",".join(r) for r in rows]) + "\n"


RESIDUES = hst.text(alphabet="ACDGWY-.xz ", min_size=0, max_size=8)
FASTA_TEXT = hst.lists(
    hst.one_of(RESIDUES.map(lambda r: ">" + r), RESIDUES, hst.just("")), max_size=6
).map(lambda lines: "\n".join(lines) + "\n")
STOCKHOLM_TEXT = hst.lists(
    hst.one_of(hst.tuples(hst.sampled_from(["s1", "s2", "#=GC"]), RESIDUES).map(" ".join), hst.just("//"), RESIDUES),
    max_size=6,
).map(lambda lines: "\n".join(["# STOCKHOLM 1.0"] + lines) + "\n")


ASCII_RESIDUES = "ACDGWYacdgwy-."
NON_ASCII_LETTERS = ["\u0131", "\u017f", "\ufb01", "\u00df", "\u00e9"]  # ı, ſ, ﬁ, ß, é: their uppercase is ASCII or longer
BLANK_LINES = hst.sampled_from(["", " ", "\t", " \t "])
LINE_ENDS = hst.sampled_from(["\n", "\r\n", "\r"])


@hst.composite
def _ended(draw, lines: list[str]) -> str:
    """``lines``, each ended by LF, CRLF or CR; the last ending now and then left off."""
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    return text.rstrip("\r\n") if lines and draw(hst.booleans()) else text


@hst.composite
def _wrapped(draw, row: str) -> list[str]:
    """``row`` cut into lines, now and then with a space inside a line or a
    blank line after it."""
    cuts = sorted(draw(hst.lists(hst.integers(0, len(row)), max_size=3)))
    lines = []
    for a, b in zip([0] + cuts, cuts + [len(row)]):
        piece, i = row[a:b], draw(hst.integers(0, b - a))
        lines.append(piece[:i] + " " + piece[i:] if draw(hst.booleans()) else piece)
        if draw(hst.booleans()):
            lines.append(draw(BLANK_LINES))
    return lines


@hst.composite
def ascii_fastas(draw) -> str:
    """ASCII FASTA text: most often equal-width records over lowercase and
    uppercase letters, gaps and dots, wrapped, under headers with an
    indent or a description; otherwise free lines of headers (a bare ``>``
    among them), residues with inner spaces, tabs and foreign letters, and
    blank lines, so data may come before the first header."""
    if draw(hst.booleans()):
        width, lines = draw(hst.integers(0, 6)), []
        for k in range(draw(hst.integers(1, 3))):
            lines.append(draw(hst.sampled_from(["", " ", "\t"])) + f">s{k}" + draw(hst.sampled_from(["", " desc", "\tdesc more"])))
            lines += draw(_wrapped(draw(hst.text(alphabet=ASCII_RESIDUES, min_size=width, max_size=width))))
    else:
        header = hst.sampled_from(["", " ", "s1", "s2", " s1", "s1 a description", "s2\tx y"]).map(">".__add__)
        lines = draw(hst.lists(header | hst.text(alphabet=ASCII_RESIDUES + "xz* \t", max_size=8) | BLANK_LINES, max_size=8))
    return draw(_ended(lines))


@hst.composite
def ascii_stockholms(draw) -> str:
    """ASCII Stockholm text: a header line (most often right), then either
    equal-width blocks of ``name residues`` lines with ``#=GC`` and
    ``#=GS`` annotations, blank lines and a ``//`` that may be missing, or
    free lines of names, residues, annotations, ``//`` and blanks."""
    lines = [draw(hst.sampled_from(["# STOCKHOLM 1.0"] * 4 + ["# STOCKHOLM", "#STOCKHOLM 1.0", ""]))]
    names = ["s0", "s1", "s2"][:draw(hst.integers(1, 3))]
    sep = hst.sampled_from([" ", "   ", "\t"])
    if draw(hst.booleans()):
        width = draw(hst.integers(1, 5))
        for _ in range(draw(hst.integers(1, 3))):
            residues = hst.text(alphabet=ASCII_RESIDUES, min_size=width, max_size=width)
            lines += [draw(hst.sampled_from(["", " "])) + a + draw(sep) + draw(residues) for a in names]
            lines += draw(hst.lists(hst.sampled_from(["#=GC SS_cons " + "." * width, "#=GS s0 DE text"]) | BLANK_LINES, max_size=2))
        lines += draw(hst.sampled_from([[], ["//"], ["//", "junk line here"]]))
    else:
        residues = hst.text(alphabet=ASCII_RESIDUES + "x\t ", min_size=1, max_size=6)
        named = hst.tuples(hst.sampled_from(names + ["#=GC"]), sep, residues).map("".join)
        lines += draw(hst.lists(named | residues | hst.just("//") | BLANK_LINES, max_size=8))
    return draw(_ended(lines))


MEASURES = hst.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.25, 0.5, 1.0, 3.0, 1e300, 1e308]) | hst.floats(
    0.0, 2.0
)


@hst.composite
def structure_jsons(draw, letters) -> str:
    """Structure JSON over ``letters``: the alphabet and every block in a
    shuffled order, random partitions with measures from ``MEASURES``, and
    now and then a block that has lost a letter."""
    parts = []
    for _ in range(draw(hst.integers(0, 4))):
        labels = draw(hst.lists(hst.integers(0, len(letters) - 1), min_size=len(letters), max_size=len(letters)))
        blocks: dict[int, list] = {}
        for a, k in zip(draw(hst.permutations(letters)), labels):
            blocks.setdefault(k, []).append(a)
        components = draw(hst.permutations(list(blocks.values())))
        if draw(hst.integers(0, 9)) == 0:
            components[0] = components[0][1:]
        parts.append({"measure": draw(MEASURES), "components": components})
    return json.dumps({"alphabet": draw(hst.permutations(letters)), "partitions": parts})


@hst.composite
def joint_jsons(draw, rows, cols) -> str:
    """Joint JSON over shuffled row and column letters, with cells from
    ``MEASURES``, most often scaled to sum to 1."""
    cells = draw(hst.lists(MEASURES, min_size=len(rows) * len(cols), max_size=len(rows) * len(cols)))
    total = sum(cells)  # inf past the float range
    if draw(hst.integers(0, 4)) and 0.0 < total < float("inf"):
        cells = [x / total for x in cells]
    matrix = [cells[i * len(cols) : (i + 1) * len(cols)] for i in range(len(rows))]
    return json.dumps({"row_alphabet": draw(hst.permutations(rows)), "col_alphabet": list(cols), "matrix": matrix})
