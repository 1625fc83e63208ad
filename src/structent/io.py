"""Parsers and writers for the file formats the CLI speaks.

All parsers take text and return validated domain objects, raising
:class:`~structent.errors.ParseError` with a line/column anchor for
malformed input.  Writers round-trip: parsing their output reproduces an
equal object, and a writer raises :class:`~structent.errors.ValidationError`
for a letter its reader would not give back.

A Newick tree is a node then ``;`` (nothing after it is read), where a
node is an optional parenthesised comma-separated list of nodes, a name
running up to one of ``():,;`` or a space, tab, CR or LF, and an optional
``:length`` with no space after the colon; spaces, tabs, CRs and LFs may
stand between any other tokens.
"""

from __future__ import annotations

import json
import math
import re
import string
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alphabet import Alphabet, Distribution, Partition, PartitionStructure
from .errors import ParseError, ValidationError
from .notions import JointDistribution
from .ultrametric import DistanceMatrix, TreeNode, UltrametricTree, leaf, node

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
GAP = "-"
# byte -> code of AMINO_ACIDS + GAP (0-20), 255 for every other byte
_CODE_TABLE = bytes((AMINO_ACIDS + GAP).find(chr(b)) % 256 for b in range(256))
_RESIDUE_CASE = str.maketrans(string.ascii_lowercase + ".", string.ascii_uppercase + GAP)


@dataclass(frozen=True)
class Alignment:
    """Named equal-length rows over the amino-acid alphabet plus gap; ``_codes``
    holds them as a read-only rows x columns uint8 matrix of indices into
    ``AMINO_ACIDS + GAP``."""

    names: tuple[str, ...]
    rows: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.rows):
            raise ValidationError("one name per row required")
        if not self.rows:
            raise ValidationError("alignment must have at least one row")
        width = len(self.rows[0])
        codes = np.empty((len(self.rows), width), dtype=np.uint8)
        for i, (name, row) in enumerate(zip(self.names, self.rows)):
            if len(row) != width:
                raise ValidationError(
                    f"row {name!r} has length {len(row)}, expected {width}"
                )
            line = row.encode("ascii", "replace").translate(_CODE_TABLE)  # one byte per character
            j = line.find(255)
            if j >= 0:
                raise ValidationError(f"row {name!r} column {j + 1}: invalid character {row[j]!r}")
            codes[i] = np.frombuffer(line, dtype=np.uint8)
        codes.flags.writeable = False
        object.__setattr__(self, "_codes", codes)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> str:
        return "".join(row[j] for row in self.rows)


def _clean_residues(seq: str) -> str:
    """Uppercase ASCII letters and ``.`` as a gap; any other character stays
    as written, for :class:`Alignment` to accept or reject."""
    return seq.translate(_RESIDUE_CASE)


def parse_fasta(text: str) -> Alignment:
    lines = [raw.strip() for raw in text.splitlines()]
    first = next((i for i, line in enumerate(lines) if line), None)
    if first is None:
        raise ParseError("no FASTA records found")
    if not lines[first].startswith(">"):
        raise ParseError(f"line {first + 1}: sequence data before any '>' header")
    heads = [i for i, line in enumerate(lines) if line.startswith(">")]
    names = []
    for i in heads:
        words = lines[i][1:].split()
        if not words:
            raise ParseError(f"line {i + 1}: empty sequence name")
        names.append(words[0])
    ends = heads[1:] + [len(lines)]
    rows = (_clean_residues("".join(lines[i + 1:j]).replace(" ", "")) for i, j in zip(heads, ends))
    return Alignment(tuple(names), tuple(rows))


def parse_stockholm(text: str) -> Alignment:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# STOCKHOLM"):
        raise ParseError("line 1: missing '# STOCKHOLM' header")
    seqs: dict[str, list[str]] = {}  # in order of first appearance
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("//"):
            break
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {ln}: expected 'name sequence', got {line!r}")
        name, seq = parts
        seqs.setdefault(name, []).append(seq)
    if not seqs:
        raise ParseError("no sequence lines found")
    return Alignment(tuple(seqs), tuple(_clean_residues("".join(v)) for v in seqs.values()))


# ------------------------------------------------------------------ Newick


# ``\s`` would also end a name at \x0b and \x0c, so the four whitespace
# characters of the grammar are spelled out.
_NAME_CHAR = r"[^():,; \t\r\n]"
_NEWICK_NAME = re.compile(_NAME_CHAR + "+")
_NEWICK_WS = re.compile(r"[ \t\r\n]*")
_NEWICK_TAIL = re.compile(rf"({_NAME_CHAR}*)[ \t\r\n]*(?:(:)([0-9.eE+-]*))?")


def parse_newick(text: str, lengths: str = "arc") -> UltrametricTree:
    """Parse a Newick tree with branch lengths into an ultrametric tree.

    ``lengths="arc"`` reads branch lengths as physical arc lengths, so a
    node's height is twice its distance to the leaves below it (leaf-to-leaf
    distance through a node then equals the node height).  ``lengths="L"``
    reads them as height drops directly.  All leaves must be equidistant
    from the root.

    One pass with an explicit stack of open nodes reads the nodes in
    preorder; depths and tree nodes are then filled in over that order, so
    no step recurses.
    """
    if lengths not in ("arc", "L"):
        raise ValidationError("lengths must be 'arc' or 'L'")
    pos = 0  # an error names pos + 1, the 1-based position of the next unread character

    def error(msg: str) -> ParseError:
        return ParseError(f"newick position {pos + 1}: {msg}")

    parent: list[int] = []
    kids: list[list[int]] = []
    tail: list[tuple[str, Optional[float]]] = []
    open_nodes: list[int] = []  # internal nodes whose children are being read
    while True:
        pos = _NEWICK_WS.match(text, pos).end()
        i = len(parent)
        parent.append(open_nodes[-1] if open_nodes else -1)
        kids.append([])
        tail.append(("", None))
        if open_nodes:
            kids[open_nodes[-1]].append(i)
        if text.startswith("(", pos):
            pos += 1
            open_nodes.append(i)
            continue
        while True:  # end node i, and every parent whose ')' follows
            m = _NEWICK_TAIL.match(text, pos)
            pos = m.end()
            try:
                tail[i] = (m[1], _finite(m[3]) if m[2] else None)
            except ValueError:
                raise error("malformed or non-finite branch length") from None
            if not open_nodes:
                break
            pos = _NEWICK_WS.match(text, pos).end()
            ch = text[pos:pos + 1]
            if ch not in (",", ")"):
                raise error(f"expected ',' or ')', got {ch!r}")
            pos += 1
            if ch == ",":
                break
            i = open_nodes.pop()
        if not open_nodes:
            break
    pos = _NEWICK_WS.match(text, pos).end()
    if not text.startswith(";", pos):
        raise error("expected ';' at end of tree")
    factor = 2.0 if lengths == "arc" else 1.0

    depth = [0.0] * len(parent)
    for i in range(1, len(parent)):
        length = tail[i][1]
        if length is None:
            raise ValidationError("newick: branch length missing on an arc")
        depth[i] = depth[parent[i]] + length
    leaves = [i for i, k in enumerate(kids) if not k]
    dmax = max(depth[i] for i in leaves)
    dmin = min(depth[i] for i in leaves)
    if dmax - dmin > 1e-9 * max(1.0, dmax):
        raise ValidationError(
            f"newick leaves are not equidistant from the root ({dmin} vs {dmax})"
        )
    if not math.isfinite(factor * (dmax - min(depth))):
        raise ValidationError("newick: the tree height overflows")

    built: list[Optional[TreeNode]] = [None] * len(parent)
    for i in reversed(range(len(parent))):
        if kids[i]:
            built[i] = node(factor * (dmax - depth[i]), [built[c] for c in kids[i]])
        elif not tail[i][0]:
            raise ParseError("newick leaf without a name")
        else:
            built[i] = leaf(tail[i][0])
    return UltrametricTree(Alphabet(tuple(tail[i][0] for i in leaves)), built[0])


def tree_to_newick(T: UltrametricTree, lengths: str = "arc") -> str:
    """Serialize an ultrametric tree; inverse of :func:`parse_newick`."""
    if lengths not in ("arc", "L"):
        raise ValidationError("lengths must be 'arc' or 'L'")
    _letter_texts(T.alphabet, _NEWICK_NAME.fullmatch, "a Newick name")
    factor = 0.5 if lengths == "arc" else 1.0
    h, parent = T._height, T._parent

    def text(i: int, kids: list[str]) -> str:
        body = "(" + ",".join(kids) + ")" if kids else str(T._nodes[i].letter)
        if i == 0:
            return body
        return f"{body}:{factor * (h[parent[i]] - h[i]):.12g}"

    return T._fold(text) + ";"


# --------------------------------------------------------------- CSV/JSON


def parse_distance_csv(text: str) -> DistanceMatrix:
    """Square matrix CSV: header row of letters, then one row per letter
    (optionally prefixed by the row letter)."""
    rows = [r.strip() for r in text.splitlines() if r.strip()]
    if not rows:
        raise ParseError("empty distance CSV")
    header = [c.strip() for c in rows[0].split(",")]
    if header and header[0] == "":
        header = header[1:]
    if not header:
        raise ParseError("line 1: no letters in header")
    n = len(header)
    if len(rows) != n + 1:
        raise ParseError(f"expected {n} data rows, found {len(rows) - 1}")
    m = np.zeros((n, n))
    for i, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row.split(",")]
        if len(cells) == n + 1:
            if cells[0] != header[i - 2]:
                raise ParseError(
                    f"line {i}: row label {cells[0]!r} does not match header order"
                )
            cells = cells[1:]
        if len(cells) != n:
            raise ParseError(f"line {i}: expected {n} values, found {len(cells)}")
        for j, c in enumerate(cells):
            try:
                m[i - 2, j] = _finite(c)
            except ValueError:
                raise ParseError(f"line {i}, column {j + 1}: not a finite number: {c!r}") from None
    return DistanceMatrix(Alphabet(tuple(header)), m)


def _letter_texts(alphabet: Alphabet, writable, what: str) -> list[str]:
    """The letters' texts, refusing a letter its reader would not give back."""
    texts: dict = {}
    for a in alphabet.letters:
        if not writable(str(a)):
            raise ValidationError(f"letter {a!r} cannot be written as {what}")
        if texts.setdefault(str(a), a) is not a:
            raise ValidationError(f"letter {a!r} has the text of the earlier letter {texts[str(a)]!r}")
    return list(texts)


def distance_to_csv(D: DistanceMatrix) -> str:
    letters = _letter_texts(D.alphabet, lambda a: "," not in a and a == a.strip() == "".join(a.splitlines()),
                            "a CSV cell")
    lines = ["," + ",".join(letters)]
    for a, row in zip(letters, D.matrix):
        lines.append(a + "," + ",".join(f"{x:.12g}" for x in row))
    return "\n".join(lines) + "\n"


def _load_json(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{what}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected a JSON object")
    return obj


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what}: expected a list, got {value!r}")
    return value


def _json_letters(value, what: str) -> tuple:
    """A list of letters: strings, numbers, booleans or null."""
    for a in _json_list(value, what):
        if isinstance(a, (list, dict)):
            raise ParseError(f"{what}: a letter cannot be {a!r}")
    return tuple(value)


def _json_number(value, what: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ParseError(f"{what}: expected a finite number, got {value!r}")


def _json_rows(value, what: str) -> list[list]:
    """A list of lists."""
    for row in _json_list(value, what):
        _json_list(row, what)
    return value


def parse_distribution_json(text: str) -> Distribution:
    obj = _load_json(text, "distribution JSON")
    if "alphabet" not in obj or "probs" not in obj:
        raise ParseError("distribution JSON needs 'alphabet' and 'probs'")
    alpha = Alphabet(_json_letters(obj["alphabet"], "distribution JSON 'alphabet'"))
    what = "distribution JSON 'probs'"
    return Distribution(alpha, [_json_number(x, what) for x in _json_list(obj["probs"], what)])


def distribution_to_json(P: Distribution) -> str:
    return json.dumps(
        {"alphabet": list(P.alphabet.letters), "probs": list(P.probs)}, sort_keys=True
    )


def parse_structure_json(text: str) -> PartitionStructure:
    obj = _load_json(text, "structure JSON")
    if "alphabet" not in obj or "partitions" not in obj:
        raise ParseError("structure JSON needs 'alphabet' and 'partitions'")
    alpha = Alphabet(_json_letters(obj["alphabet"], "structure JSON 'alphabet'"))
    items = []
    for k, entry in enumerate(_json_list(obj["partitions"], "structure JSON 'partitions'")):
        if not isinstance(entry, dict) or "measure" not in entry or "components" not in entry:
            raise ParseError(f"partition {k}: needs 'measure' and 'components'")
        what = f"partition {k}: 'components'"
        blocks = [_json_letters(c, what) for c in _json_rows(entry["components"], what)]
        measure = _json_number(entry["measure"], f"partition {k}: 'measure'")
        items.append((Partition(alpha, blocks), measure))
    return PartitionStructure(alpha, items)


def structure_to_json(S: PartitionStructure) -> str:
    return json.dumps(
        {
            "alphabet": list(S.alphabet.letters),
            "partitions": [
                {"measure": m, "components": [list(c) for c in s.components]}
                for s, m in S.items()
            ],
        },
        sort_keys=True,
    )


def parse_joint_json(text: str) -> JointDistribution:
    """Joint distribution JSON: row_alphabet, col_alphabet, matrix."""
    obj = _load_json(text, "joint JSON")
    for key in ("row_alphabet", "col_alphabet", "matrix"):
        if key not in obj:
            raise ParseError(f"joint JSON needs {key!r}")
    rows = Alphabet(_json_letters(obj["row_alphabet"], "joint JSON 'row_alphabet'"))
    cols = Alphabet(_json_letters(obj["col_alphabet"], "joint JSON 'col_alphabet'"))
    what = "joint JSON 'matrix'"
    matrix = [[_json_number(x, what) for x in row] for row in _json_rows(obj["matrix"], what)]
    if any(len(row) != len(cols) for row in matrix):
        raise ParseError(f"{what}: every row needs one value per column letter")
    return JointDistribution(rows, cols, matrix)


def parse_points_csv(text: str) -> tuple[tuple[float, ...], Optional[tuple[float, ...]]]:
    """One column of values, or two columns (value, probability)."""
    pts: list[float] = []
    probs: list[float] = []
    two_col = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",") if c.strip()]
        if ln == 1 and cells and not _is_number(cells[0]):
            continue  # header row
        if two_col is None:
            two_col = len(cells) == 2
        if len(cells) != (2 if two_col else 1):
            raise ParseError(f"line {ln}: inconsistent column count")
        try:
            pts.append(_finite(cells[0]))
            if two_col:
                probs.append(_finite(cells[1]))
        except ValueError:
            raise ParseError(f"line {ln}: not a finite number") from None
    if not pts:
        raise ParseError("no points found")
    return tuple(pts), (tuple(probs) if two_col else None)


def _finite(text: str) -> float:
    """The number a text cell spells; ValueError unless finite, as in :func:`_json_number`."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not finite: {text!r}")
    return x


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
