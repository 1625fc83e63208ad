"""Positional conservation scoring for multiple sequence alignments.

Each column's letter frequencies form a distribution over the leaves of an
ultrametric tree of amino-acid distances; the tree-weighted entropy then
scores conservation.  A fully conserved column scores 0; a 50/50 split
inside a height-``h`` cluster scores ``h``; the same split across clusters
of a normalized tree scores 1.  Classical entropy is reported alongside so
the structure-blind and structure-aware views can be compared per column.
The alignment's uint8 codes are binned as they are, a few rows at a time,
into a columns x codes count matrix that one gather puts into tree-leaf
order.  The columns are then scored in blocks, with no per-column Python
call: integer prefix sums of the counts give every node's count exactly,
each node's mass is that count over the column total, and ``H_U`` is the
row sum of the elementwise kernel ``-m log2 m`` times the arc lengths, the
sum ``hu_arcwise`` takes per column.  Each row is summed on its own, so a
column's scores do not depend on the other columns scored with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alphabet import Alphabet, Partition
from .errors import AlphabetMismatch, ValidationError
from .io import AMINO_ACIDS, GAP, Alignment
from .notions import _entropy_terms, _onehot
from .ultrametric import UltrametricTree, leaf, node

DEFAULT_COVERAGE_THRESHOLD = 0.5

# Purely illustrative grouping used for the bundled example tree; it is NOT
# fitted to any substitution data.
_SYNTHETIC_GROUPS = (
    ("A", "V", "L", "I", "M"),  # small/aliphatic
    ("F", "W", "Y"),            # aromatic
    ("S", "T", "N", "Q"),       # polar
    ("K", "R", "H"),            # basic
    ("D", "E"),                 # acidic
    ("C", "G", "P"),            # special
)
SYNTHETIC_CLUSTER_HEIGHT = 0.25


def synthetic_aa_tree(include_gap: bool = False) -> UltrametricTree:
    """A synthetic amino-acid ultrametric: six coarse chemical groups as
    height-0.25 clusters under a height-1 root.

    The grouping is illustrative only — it demonstrates the scoring pipeline
    and is not derived from any substitution matrix.  With ``include_gap``
    the gap symbol sits directly under the root, maximally distant from
    every amino acid.
    """
    clusters = [
        node(SYNTHETIC_CLUSTER_HEIGHT, [leaf(a) for a in group])
        for group in _SYNTHETIC_GROUPS
    ]
    letters = [a for group in _SYNTHETIC_GROUPS for a in group]
    if include_gap:
        clusters.append(leaf(GAP))
        letters.append(GAP)
    return UltrametricTree(Alphabet(tuple(letters)), node(1.0, clusters))


@dataclass(frozen=True)
class ColumnScore:
    """Scores for one alignment column (1-based index)."""

    index: int
    coverage: float
    h_u: float
    h: float
    h_reduced: Optional[float]
    flagged: bool


@dataclass(frozen=True)
class ConservationReport:
    gap_mode: str
    coverage_threshold: float
    columns: tuple[ColumnScore, ...]

    @property
    def flagged_columns(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.columns if c.flagged)

    def to_csv(self) -> str:
        has_reduced = any(c.h_reduced is not None for c in self.columns)
        header = "column,coverage,h_u,h"
        if has_reduced:
            header += ",h_reduced"
        header += ",flagged"
        lines = [header]
        for c in self.columns:
            row = f"{c.index},{c.coverage:.12g},{c.h_u:.12g},{c.h:.12g}"
            if has_reduced:
                row += "," + ("" if c.h_reduced is None else f"{c.h_reduced:.12g}")
            row += f",{int(c.flagged)}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def conservation_score(
    aln: Alignment,
    T: UltrametricTree,
    gap_mode: str = "skip",
    coverage_threshold: float = DEFAULT_COVERAGE_THRESHOLD,
    reduce_partition: Optional[Partition] = None,
) -> ConservationReport:
    """Score every column of `aln` against the amino-acid ultrametric `T`.

    ``gap_mode="skip"`` drops gaps and renormalizes the residue frequencies
    (all-gap columns score 0 and are flagged); ``gap_mode="extra-letter"``
    treats the gap as an ordinary letter, which `T` must then include.
    Columns with coverage below `coverage_threshold` are flagged.
    """
    if gap_mode not in ("skip", "extra-letter"):
        raise ValidationError("gap_mode must be 'skip' or 'extra-letter'")
    if gap_mode == "extra-letter" and GAP not in T.alphabet:
        raise AlphabetMismatch("extra-letter mode needs the gap symbol in the tree")
    if not (0.0 <= coverage_threshold <= 1.0):
        raise ValidationError("coverage_threshold must lie in [0, 1]")

    letters = AMINO_ACIDS + GAP  # the codes of aln._codes
    # code k is counted in column k + 1 of the raw counts; column 0 stays 0
    raw = {a: k for k, a in enumerate(letters, start=1)}
    if gap_mode == "skip":
        raw.pop(GAP)  # a skipped gap only lowers the coverage
    missing = [k for a, k in raw.items() if a not in T.alphabet]
    lut = [0] + [raw.get(T.alphabet.letters[x], 0) for x in T._order]  # tree-leaf order
    codes, width = aln._codes, len(letters) + 1
    counts = np.zeros(aln.n_cols * width, dtype=np.intp)
    cell = np.arange(1, counts.size, width)  # column j counts code k at cell[j] + k
    for r in range(0, aln.n_rows, 16):  # 16 rows at a time bound the bin index
        counts += np.bincount((codes[r:r + 16] + cell).ravel(), minlength=counts.size)
    counts = counts.reshape(aln.n_cols, width)
    coverage = ((aln.n_rows - counts[:, width - 1]) / aln.n_rows).tolist()
    bad = np.flatnonzero(counts.take(missing, axis=1).any(axis=1))
    if bad.size:  # the first such column, and its first such letter in row order
        j = int(bad[0])
        a = next(letters[k] for k in codes[:, j].tolist() if k + 1 in missing)
        raise AlphabetMismatch(f"column {j + 1}: letter {a!r} is not a leaf of the tree")
    counts = counts.take(lut, axis=1)  # column i counts leaf i - 1 in tree order
    C = counts[:, 1:]
    total = C.sum(axis=1)
    if reduce_partition is not None and reduce_partition.alphabet != T.alphabet and total.any():
        raise AlphabetMismatch("operands are defined over different alphabets")
    empty = total == 0  # all gaps, skipped: every score is 0
    denom = np.where(empty, 1, total)[:, None]
    lo, hi, parent = (np.array(x[1:], dtype=np.intp) for x in (T._lo, T._hi, T._parent))
    height = np.array(T._height)
    arcs = height[parent] - height[1:]  # a negative arc counts, as in hu_arcwise
    leaves = [i for i, k in enumerate(T._kids[1:]) if not k]
    # every matrix summed is row-major (``take``, not ``[:, index]``), so
    # each row sums on its own, whatever the columns scored with it; 256
    # columns at a time keep the matrices small
    h_u, h = np.empty(len(C)), np.empty(len(C))
    for j in range(0, len(C), 256):
        block = slice(j, j + 256)
        S = np.cumsum(counts[block], axis=1)  # S[:, k] counts the first k leaves
        # a node's count is S[:, hi] - S[:, lo], exact, and its mass that over the total
        terms = _entropy_terms((S.take(hi, axis=1) - S.take(lo, axis=1)) / denom[block])
        h[block] = terms.take(leaves, axis=1).sum(axis=1) + 0.0
        terms *= arcs
        h_u[block] = terms.sum(axis=1) + 0.0
    if reduce_partition is None:
        h_red = [None] * len(total)
    else:
        groups = C @ _onehot(reduce_partition.labels[T._order])
        h_red = (_entropy_terms(groups / denom).sum(axis=1) + 0.0).tolist()
    flagged = [e or c < coverage_threshold for c, e in zip(coverage, empty.tolist())]
    scores = map(ColumnScore, range(1, len(coverage) + 1), coverage, h_u.tolist(), h.tolist(), h_red, flagged)
    return ConservationReport(gap_mode, coverage_threshold, tuple(scores))
