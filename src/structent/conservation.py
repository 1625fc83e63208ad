"""Positional conservation scoring for multiple sequence alignments.

Each column's letter frequencies form a distribution over the leaves of an
ultrametric tree of amino-acid distances; the tree-weighted entropy then
scores conservation.  A fully conserved column scores 0; a 50/50 split
inside a height-``h`` cluster scores ``h``; the same split across clusters
of a normalized tree scores 1.  Classical entropy is reported alongside,
the structure-blind view.  The alignment's uint8 codes are binned, a few
rows at a time, into a columns x codes count matrix that one gather puts
into tree-leaf order.  The columns are then scored in blocks, with no
per-column Python call: integer prefix sums of the counts give every
node's count exactly, each node's mass is that count over the column
total, and ``H_U`` is the row sum of the kernel ``-m log2 m`` times the arc
lengths, as ``hu_arcwise`` sums it per column.  Each row is summed on its
own, so a column's scores do not depend on the other columns scored with
it.  The column arrays are formatted once, for the CSV and the summary.
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
        cols, red = self.columns, [c.h_reduced for c in self.columns]
        floats = (_format12([getattr(c, k) for c in cols]) for k in ("coverage", "h_u", "h"))
        cells = iter(_format12([x for x in red if x is not None]))
        return _report_csv([c.index for c in cols], *floats, [c.flagged for c in cols],
                           ["" if x is None else next(cells) for x in red])


def _format12(values: list) -> list[str]:
    """Each value as ``f"{x:.12g}"`` writes it, in one format call."""
    return ("%.12g\n" * len(values) % tuple(values)).split()


def _report_csv(index, coverage, h_u, h, flagged, h_reduced=()) -> str:
    """The CSV report, its float cells already formatted by `_format12`; the
    ``h_reduced`` column is written when any of its cells is not empty."""
    red = [h_reduced] if any(h_reduced) else []
    header = "column,coverage,h_u,h" + ",h_reduced" * len(red) + ",flagged"
    rows = zip(map(str, index), coverage, h_u, h, *red, map(str, map(int, flagged)))
    return "\n".join([header, *map(",".join, rows)]) + "\n"


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
    columns = [[None] * aln.n_cols if x is None else x.tolist()
               for x in _score_columns(aln, T, gap_mode, coverage_threshold, reduce_partition)]
    scores = map(ColumnScore, range(1, aln.n_cols + 1), *columns)
    return ConservationReport(gap_mode, coverage_threshold, tuple(scores))


def _score_columns(aln: Alignment, T: UltrametricTree, gap_mode: str, threshold: float, reduce_partition=None):
    """`conservation_score`'s arrays: coverage, H_U, H, the reduced H (or None) and the flags."""
    if gap_mode not in ("skip", "extra-letter"):
        raise ValidationError("gap_mode must be 'skip' or 'extra-letter'")
    if gap_mode == "extra-letter" and GAP not in T.alphabet:
        raise AlphabetMismatch("extra-letter mode needs the gap symbol in the tree")
    if not (0.0 <= threshold <= 1.0):
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
    coverage = (aln.n_rows - counts[:, width - 1]) / aln.n_rows
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
    h_red = None
    if reduce_partition is not None:
        groups = C @ _onehot(reduce_partition.labels[T._order])
        h_red = _entropy_terms(groups / denom).sum(axis=1) + 0.0
    return coverage, h_u, h, h_red, empty | (coverage < threshold)
