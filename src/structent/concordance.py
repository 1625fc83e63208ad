"""Concordance between partitions and the distances it induces.

The concordance of a binary split ``t`` with a partition ``s`` measures how
much of the information in ``t`` is already carried by ``s``:

    C(t, s) = [H(P^s) - H(P^(s join t)) + H(P^t)] / H(P^t)

It is 1 when ``s`` refines ``t`` and 0 when the two are independent under
``P``.  Weighting concordances by the measures of a partition structure
gives the split merit ``d_hat``, and summing the measures of the partitions
that separate two letters gives a metric on the alphabet itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .alphabet import (
    Alphabet,
    Distribution,
    Letter,
    Partition,
    PartitionStructure,
    reduced_probs,
    restrict_distribution,
    restrict_structure,
)
from .errors import (
    AlphabetMismatch,
    DegenerateSplit,
    EmptySubset,
    ValidationError,
)
from .notions import StructuredAlphabet, entropy, h_s
from .ultrametric import DistanceMatrix


@dataclass(frozen=True)
class BinarySplit:
    """An ordered pair of disjoint non-empty letter sets.

    The two sides need not cover the alphabet; operations that require a
    full binary partition condition on the union first.
    """

    left: frozenset
    right: frozenset

    def __init__(self, left: Iterable[Letter], right: Iterable[Letter]):
        L, R = frozenset(left), frozenset(right)
        if not L or not R:
            raise EmptySubset("both sides of a split must be non-empty")
        if L & R:
            raise ValidationError("split sides must be disjoint")
        object.__setattr__(self, "left", L)
        object.__setattr__(self, "right", R)

    @property
    def union(self) -> frozenset:
        return self.left | self.right

    def as_partition(self, alphabet: Alphabet) -> Partition:
        return Partition(alphabet, [self.left, self.right])


def _entropies(t: np.ndarray, labels: np.ndarray, p: np.ndarray) -> np.ndarray:
    """H(t) and then H(t | s) for each label row s of ``labels``, for the
    label row ``t`` under the masses ``p``.  Each part of a block (its mass
    inside one block of t) is its own sum; in each block the largest part's
    term takes log1p of the other parts' share and the others log2 of their
    own, so every term is non-negative and a tiny part keeps its accuracy."""
    labels = np.vstack([np.zeros(len(p), dtype=np.intp), labels])  # row 0 has one block
    (k, n), kt = labels.shape, int(t.max()) + 1
    bins = ((labels + n * np.arange(k)[:, None]) * kt + t).ravel()  # part c of block b of row r
    parts = np.bincount(bins, np.tile(p, k), k * n * kt).reshape(k, n, kt) / p.sum()
    big = parts.argmax(axis=2)[..., None]
    largest = np.take_along_axis(parts, big, 2)
    others = np.where(np.arange(kt) == big, 0.0, parts)
    rest = others.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = largest + rest
        minor = np.where(others > 0.0, others * np.log2(others / block), 0.0).sum(axis=2, keepdims=True)
        terms = -(minor + largest * (np.log1p(-rest / block) / math.log(2.0)))
    return np.where(rest > 0.0, terms, 0.0).sum(axis=(1, 2))


def concordance(t: Partition, s: Partition, P: Distribution) -> float:
    """C(t, s) as defined above, as [H(t) - H(t | s)] / H(t); requires
    H(P^t) > 0."""
    if t.alphabet != P.alphabet or s.alphabet != P.alphabet:
        raise AlphabetMismatch("partitions and distribution must share an alphabet")
    h = _entropies(t.labels, s.labels[None, :], np.asarray(P.probs, dtype=float))
    if h[0] <= 0.0:
        raise DegenerateSplit("the reference partition carries no entropy")
    return float((h[0] - h[1]) / h[0])


def _conditioned(split: BinarySplit, S: PartitionStructure, P: Distribution):
    """Structure and distribution conditioned on the split's union when the
    split does not cover the whole alphabet."""
    A = S.alphabet
    union = A.check_subset(split.union)
    if union == frozenset(A.letters):
        return S, P
    return restrict_structure(S, union), restrict_distribution(P, union)


def d_hat(split: BinarySplit, S: PartitionStructure, P: Distribution) -> float:
    """Merit of a binary split under a structure: the measure-weighted sum
    of concordances of the split with every partition of the structure,

        d_hat(t) = sum_s measure(s) * C(t, s).

    A split over a strict subset of the alphabet is evaluated after
    conditioning both the structure and the distribution on its union.
    Degenerate splits (zero entropy) are rejected.

    Each numerator is H(t) - H(t | s), from parts of blocks that are each
    their own sum, so both entropies add non-negative terms and a tiny side
    keeps the accuracy that H(s) - H(s join t) of O(1) terms loses.
    """
    if S.alphabet != P.alphabet:
        raise AlphabetMismatch("structure and distribution must share an alphabet")
    S, P = _conditioned(split, S, P)
    t = np.array([a in split.right for a in P.alphabet.letters], dtype=np.intp)
    m = np.asarray(S.measures, dtype=float)
    h = _entropies(t, S.labels[m > 0.0], np.asarray(P.probs, dtype=float))
    if h[0] <= 0.0:
        raise DegenerateSplit("split carries no entropy under this distribution")
    return float(m[m > 0.0] @ (h[0] - h[1:])) / float(h[0])


def d_hat_via_entropy_gap(split: BinarySplit, S: PartitionStructure, P: Distribution) -> float:
    """The same merit computed through the structure-entropy gap:

        [H_S(whole) - sum_j P(A_j) H_S(restricted to A_j)] / H(P^t)

    Agrees with :func:`d_hat` to floating-point accuracy.
    """
    if S.alphabet != P.alphabet:
        raise AlphabetMismatch("structure and distribution must share an alphabet")
    S, P = _conditioned(split, S, P)
    t = split.as_partition(P.alphabet)
    ht = entropy(reduced_probs(P, t))
    if ht <= 0.0:
        raise DegenerateSplit("split carries no entropy under this distribution")
    whole = h_s(StructuredAlphabet(P, S))
    gap = whole
    for side in (split.left, split.right):
        w = P.mass(side)
        if w <= 0.0 or len(side) == 1:
            continue
        Pr = restrict_distribution(P, side)
        Sr = restrict_structure(S, side)
        gap -= w * h_s(StructuredAlphabet(Pr, Sr))
    return gap / ht


def grouping_decompose(
    split: BinarySplit, X: StructuredAlphabet
) -> tuple[float, list[float]]:
    """Decompose the structure entropy across a binary split.

    Returns ``(merit, parts)`` where ``merit`` is :func:`d_hat` of the split
    and ``parts`` are the structure entropies of the two restricted spaces,
    so that

        H_S = merit * H(P^t) + sum_j P(A_j) * parts[j].
    """
    S, P = _conditioned(split, X.S, X.P)
    merit = d_hat(split, S, P)
    parts: list[float] = []
    for side in (split.left, split.right):
        if len(side) == 1 or P.mass(side) <= 0.0:
            parts.append(0.0)
            continue
        Pr = restrict_distribution(P, side)
        Sr = restrict_structure(S, side)
        parts.append(h_s(StructuredAlphabet(Pr, Sr)))
    return merit, parts


def state_distance(a: Letter, b: Letter, S: PartitionStructure) -> float:
    """Total measure of the partitions separating two letters.

    Symmetric, zero on the diagonal, and satisfies the triangle inequality;
    it does not depend on any distribution.
    """
    i, j = S.alphabet.index_of(a), S.alphabet.index_of(b)
    if a == b:
        return 0.0
    return math.fsum(itertools.compress(S.measures, S.labels[:, i] != S.labels[:, j]))


def state_distance_matrix(S: PartitionStructure) -> DistanceMatrix:
    """All pairwise state distances in alphabet order."""
    n = len(S.alphabet)
    out = np.zeros((n, n))
    for lab, m in zip(S.labels, S.measures):
        if m > 0.0:
            out += m * (lab[:, None] != lab[None, :])
    return DistanceMatrix(S.alphabet, out)
