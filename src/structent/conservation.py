"""Positional conservation scoring for multiple sequence alignments.

Each column's letter frequencies form a distribution over the leaves of an
ultrametric tree of amino-acid distances; the tree-weighted entropy then
scores conservation.  A fully conserved column scores 0; a 50/50 split
inside a height-``h`` cluster scores ``h``; the same split across clusters
of a normalized tree scores 1.  Classical entropy is reported alongside so
the structure-blind and structure-aware views can be compared per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .alphabet import Distribution, Partition, reduce
from .errors import AlphabetMismatch, ValidationError
from .io import GAP, Alignment
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


def _score_column(
    col: str,
    T: UltrametricTree,
    gap_mode: str,
    threshold: float,
    index: int,
    reduce_partition: Optional[Partition],
) -> ColumnScore:
    n = len(col)
    non_gap = sum(1 for ch in col if ch != GAP)
    coverage = non_gap / n
    if gap_mode == "skip":
        observed = [ch for ch in col if ch != GAP]
    else:
        observed = list(col)
    flagged = coverage < threshold
    if not observed:
        return ColumnScore(index, 0.0, 0.0, 0.0, None if reduce_partition is None else 0.0, True)
    counts: dict = {}
    for ch in observed:
        if ch not in T.alphabet:
            raise AlphabetMismatch(
                f"column {index}: letter {ch!r} is not a leaf of the tree"
            )
        counts[ch] = counts.get(ch, 0) + 1
    total = len(observed)
    P = Distribution.from_mapping(
        T.alphabet, {a: counts.get(a, 0) / total for a in T.alphabet}
    )
    hu = hu_arcwise(T, P)
    h = entropy(P.probs)
    h_red = None
    if reduce_partition is not None:
        h_red = entropy(reduce(P, reduce_partition).probs)
    return ColumnScore(index, coverage, hu, h, h_red, flagged)


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

    scores = [
        _score_column(aln.column(j), T, gap_mode, coverage_threshold, j + 1, reduce_partition)
        for j in range(aln.n_cols)
    ]
    return ConservationReport(gap_mode, coverage_threshold, tuple(scores))
