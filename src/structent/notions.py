"""Classical information kernels and their structure-weighted counterparts.

Every structure-weighted notion has the same shape: reduce the distribution
through each partition of the structure, apply the classical notion to the
reduced distribution, and sum weighted by the partition measures.  Under the
traditional structure (singletons, measure 1) each notion collapses exactly
to its classical counterpart.

The joint notions read one pair table per :class:`StructuredJoint`.  A
reduced joint is the product onehot(sA).T @ (P @ onehot(sB)); one product
per row partition gives its blocks with every column partition, and one
pass of the elementwise kernel ``-m log2 m`` gives all their entropies.
The table keeps each pair's joint entropy next to the entropies of the two
reduced marginals, each taken once per partition.

All logarithms are base 2; values are in bits.  The conventions
0 * log(0) = 0 and 0 * log(0/0) = 0 apply throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .alphabet import (
    Alphabet,
    Distribution,
    Partition,
    PartitionStructure,
    PROB_TOL,
    StructuredSpace,
    build_q,
    reduced_probs,
)
from .errors import AlphabetMismatch, NotNormalized, ValidationError

# ---------------------------------------------------------------- kernels


def entropy(probs: Iterable[float]) -> float:
    """Shannon entropy -sum p log2 p in bits."""
    if isinstance(probs, np.ndarray):
        probs = probs.tolist()  # the same values; Python floats loop faster
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0) + 0.0


def _entropy_terms(m: np.ndarray) -> np.ndarray:
    """-m * log2 m elementwise, 0 where m <= 0: the terms of :func:`entropy`
    for every cell of an array at once.  Summing a row and adding ``0.0``
    gives that row's entropy, never ``-0``."""
    terms = np.zeros_like(m)
    np.log2(m, out=terms, where=m > 0.0)
    terms *= m
    return np.negative(terms, out=terms)


def binary_entropy(p: float) -> float:
    """Entropy of a (p, 1-p) split."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Relative entropy D(p || q); +inf when p puts mass where q has none."""
    if len(p) != len(q):
        raise ValidationError("KL divergence needs vectors of equal length")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0.0:
            continue
        if qi <= 0.0:
            return math.inf
        total += pi * math.log2(pi / qi)
    return total


# ------------------------------------------------------------ structured


def _onehot(labels: np.ndarray) -> np.ndarray:
    """The letters x blocks 0/1 matrix of a partition's label row."""
    return np.eye(labels.max() + 1)[labels]


@dataclass(frozen=True)
class StructuredAlphabet:
    """An alphabet with a distribution and a partition structure over it."""

    P: Distribution
    S: PartitionStructure

    def __post_init__(self) -> None:
        if self.P.alphabet != self.S.alphabet:
            raise AlphabetMismatch("distribution and structure use different alphabets")

    @property
    def alphabet(self) -> Alphabet:
        return self.P.alphabet


class JointDistribution:
    """A joint probability matrix over a pair of alphabets."""

    __slots__ = ("row_alphabet", "col_alphabet", "matrix")

    def __init__(self, row_alphabet: Alphabet, col_alphabet: Alphabet, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (len(row_alphabet), len(col_alphabet)):
            raise ValidationError("joint matrix shape must match the alphabets")
        if np.isnan(m).any() or (m < -1e-12).any():
            raise ValidationError("joint probabilities must be non-negative")
        m = np.clip(m, 0.0, None)
        with np.errstate(over="ignore"):  # a sum past the float range is inf, and rejected
            total = float(m.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"joint probabilities sum to {total!r}, expected 1")
        self.row_alphabet = row_alphabet
        self.col_alphabet = col_alphabet
        self.matrix = m

    @classmethod
    def independent(cls, PA: Distribution, PB: Distribution) -> "JointDistribution":
        return cls(PA.alphabet, PB.alphabet, np.outer(PA.probs, PB.probs))

    @classmethod
    def identity_coupling(cls, P: Distribution) -> "JointDistribution":
        return cls(P.alphabet, P.alphabet, np.diag(np.asarray(P.probs, dtype=float)))

    def row_marginal(self) -> Distribution:
        return Distribution(self.row_alphabet, self.matrix.sum(axis=1), renormalize=False)

    def col_marginal(self) -> Distribution:
        return Distribution(self.col_alphabet, self.matrix.sum(axis=0), renormalize=False)

    def reduced(self, sA: Partition, sB: Partition) -> np.ndarray:
        """Joint matrix over components of sA x components of sB:
        onehot(sA).T @ (matrix @ onehot(sB))."""
        if sA.alphabet != self.row_alphabet or sB.alphabet != self.col_alphabet:
            raise AlphabetMismatch("partition alphabets do not match the joint")
        return _onehot(sA.labels).T @ (self.matrix @ _onehot(sB.labels))


@dataclass(frozen=True)
class StructuredJoint:
    """A joint distribution with one partition structure per side."""

    joint: JointDistribution
    SA: PartitionStructure
    SB: PartitionStructure

    def __post_init__(self) -> None:
        if self.SA.alphabet != self.joint.row_alphabet:
            raise AlphabetMismatch("row structure uses a different alphabet")
        if self.SB.alphabet != self.joint.col_alphabet:
            raise AlphabetMismatch("column structure uses a different alphabet")

    @cached_property
    def _pairs(self) -> list[tuple[float, float, float, float]]:
        """(mA * mB, H(reduced joint), H(reduced row marginal), H(reduced
        column marginal)) for every pair of positive-measure partitions, row
        partitions outermost.  Each pair's block is the product of
        :meth:`JointDistribution.reduced`: ``matrix @ onehot(sB)`` is taken
        once per column partition and stacked side by side, so one product
        per row partition gives its blocks with every column partition, and
        one :func:`_entropy_terms` pass, summed per block, their entropies.
        Each marginal's entropy is taken once per partition."""
        J = self.joint
        PA, PB = J.row_marginal(), J.col_marginal()
        cols = [(sB, mB) for sB, mB in self.SB.items() if mB > 0.0]
        if not cols:
            return []
        blocks = [J.matrix @ _onehot(sB.labels) for sB, _ in cols]
        starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
        MB = np.hstack(blocks)
        hB = [(mB, entropy(reduced_probs(PB, sB))) for sB, mB in cols]
        pairs = []
        for sA, mA in self.SA.items():
            if mA > 0.0:
                terms = _entropy_terms(_onehot(sA.labels).T @ MB).sum(axis=0)
                hj = (np.add.reduceat(terms, starts) + 0.0).tolist()
                hA = entropy(reduced_probs(PA, sA))
                pairs += [(mA * mB, h, hA, hb) for h, (mB, hb) in zip(hj, hB)]
        return pairs


def h_s(X: StructuredAlphabet) -> float:
    """Structure entropy: sum over partitions of measure(s) * H(P reduced by s)."""
    return h_s_of(X.P, X.S)


def h_s_of(P: Distribution, S: PartitionStructure) -> float:
    """``h_s`` of a distribution and a structure given separately."""
    return math.fsum(m * entropy(reduced_probs(P, s)) for s, m in S.items() if m > 0.0)


def h_s_joint(J: StructuredJoint) -> float:
    """Joint structure entropy: both sides reduced, weighted by the product
    of the two partition measures."""
    return math.fsum(w * hj for w, hj, _, _ in J._pairs)


def h_s_conditional(J: StructuredJoint, direction: str = "row|col") -> float:
    """Conditional structure entropy.

    ``direction`` selects H(row | col) or H(col | row); each reduced joint
    contributes its classical conditional entropy, weighted by the product
    of the partition measures of both sides.
    """
    if direction not in ("row|col", "col|row"):
        raise ValidationError("direction must be 'row|col' or 'col|row'")
    total = 0.0
    for w, hj, hrow, hcol in J._pairs:
        total += w * (hj - (hrow if direction == "col|row" else hcol))
    return total


def i_s(J: StructuredJoint) -> float:
    """Structure mutual information: measure-weighted classical mutual
    information of every reduced joint."""
    return math.fsum(w * (hrow + hcol - hj) for w, hj, hrow, hcol in J._pairs)


def d_kl_s(X: StructuredAlphabet, Q: Distribution) -> float:
    """Structure relative entropy between two distributions on one alphabet,
    weighted by the structure of ``X``.  Returns +inf when some reduced
    component has Q-mass 0 but positive P-mass."""
    if Q.alphabet != X.alphabet:
        raise AlphabetMismatch("distributions use different alphabets")
    total = 0.0
    for s, m in X.S.items():
        if m <= 0.0:
            continue
        term = kl_divergence(reduced_probs(X.P, s), reduced_probs(Q, s))
        if math.isinf(term):
            return math.inf
        total += m * term
    return total


def h_s_via_q(X: StructuredAlphabet) -> float:
    """Structure entropy computed through the weighted pair space:
    H(Q) - H(measures).  Requires a normalized structure."""
    if not X.S.is_normalized:
        raise NotNormalized("the pair-space identity needs total measure 1")
    Q: StructuredSpace = build_q(X.P, X.S)
    return entropy(Q.q) - entropy(X.S.measures)
