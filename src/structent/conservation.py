"""Positional conservation scoring for multiple sequence alignments.

Each column's letter frequencies form a distribution over the leaves of an
ultrametric tree of amino-acid distances; the tree-weighted entropy then
scores conservation.  A fully conserved column scores 0; a 50/50 split
inside a height-``h`` cluster scores ``h``; the same split across clusters
of a normalized tree scores 1.  Classical entropy is reported alongside so
the structure-blind and structure-aware views can be compared per column.
A column's letter counts come from the alignment's uint8 code matrix, all
columns in one numpy pass; each column's score is still one ``hu_arcwise``
call on its own ``count / total`` distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alphabet import Distribution, Partition, reduce
from .errors import AlphabetMismatch, ValidationError
from .io import AMINO_ACIDS, GAP, Alignment
from .notions import entropy
from .ultrametric import UltrametricTree, hu_arcwise, leaf, node

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
    from .alphabet import Alphabet

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

    letters, gap = AMINO_ACIDS + GAP, len(AMINO_ACIDS)  # the codes of aln._codes
    codes = aln._codes
    counts = np.stack([(codes == k).sum(axis=0) for k in range(len(letters))], axis=1)
    coverage = ((aln.n_rows - counts[:, gap]) / aln.n_rows).tolist()
    if gap_mode == "skip":
        counts[:, gap] = 0
    missing = [k for k, a in enumerate(letters) if a not in T.alphabet]
    bad = np.flatnonzero(counts[:, missing].any(axis=1))
    if bad.size:  # the first such column, and its first such letter in row order
        j = int(bad[0])
        a = next(letters[k] for k in codes[:, j].tolist() if k in missing and counts[j, k])
        raise AlphabetMismatch(f"column {j + 1}: letter {a!r} is not a leaf of the tree")
    index = {a: k for k, a in enumerate(letters)}
    leaves = [index.get(a, len(letters)) for a in T.alphabet]  # a code past the end counts 0
    empty = None if reduce_partition is None else 0.0
    scores = []
    for j, row in enumerate(counts.tolist(), start=1):
        total = sum(row)
        if not total:  # all gaps, skipped
            scores.append(ColumnScore(j, 0.0, 0.0, 0.0, empty, True))
            continue
        row.append(0)
        P = Distribution(T.alphabet, [row[k] / total for k in leaves])
        h_red = None if reduce_partition is None else entropy(reduce(P, reduce_partition).probs)
        c = coverage[j - 1]
        scores.append(ColumnScore(j, c, hu_arcwise(T, P), entropy(P.probs), h_red, c < coverage_threshold))
    return ConservationReport(gap_mode, coverage_threshold, tuple(scores))
