"""Typical sequences over structured alphabets, counted exactly by type.

Length-N IID sequences can be drawn over the letters themselves, over the
partitions of a structure, over (component, partition) pairs, or over the
components of one partition.  A sequence is epsilon-typical when its
per-symbol surprisal is within epsilon of the source entropy:

    | -(1/N) log2 prob(seq) - H |  <=  epsilon

Everything here counts exactly (up to a configurable cap) so the
asymptotic "about 2^(N H)" statements can be probed honestly at small N; a
clearly-labeled sampled estimator covers spaces beyond the cap.  The counts
go by the method of types, so the typical set is a union of whole types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .alphabet import PROB_TOL, Distribution, Partition, PartitionStructure, build_q
from .errors import NotNormalized, SpaceTooLarge, ValidationError
from .notions import StructuredAlphabet, entropy, h_s

ENUMERATION_CAP = 2**24


@dataclass(frozen=True)
class SequenceSpace:
    """Length-N IID sequences over a finite symbol set.

    ``kind`` records what the symbols are: ``"A"`` for letters, ``"S"`` for
    partitions of a structure, ``"S-pairs"`` for (component, partition)
    pairs, ``"component"`` for the components of a single partition.
    """

    kind: str
    length: int
    symbols: tuple
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValidationError("sequence length must be non-negative")
        if len(self.symbols) != len(self.probs):
            raise ValidationError("one probability per symbol required")
        total = math.fsum(self.probs)
        # pair weights multiply two sums, each within PROB_TOL of 1
        tol = (2.0 + PROB_TOL) * PROB_TOL if self.kind == "S-pairs" else PROB_TOL
        if abs(total - 1.0) > tol:
            raise ValidationError(f"symbol probabilities sum to {total!r}, expected 1")

    @property
    def base_entropy(self) -> float:
        return entropy(self.probs)

    @property
    def size(self) -> int:
        return len(self.symbols) ** self.length


def letter_space(P: Distribution, N: int) -> SequenceSpace:
    return SequenceSpace("A", N, tuple(P.alphabet.letters), tuple(P.probs))


def partition_space(S: PartitionStructure, N: int) -> SequenceSpace:
    if not S.is_normalized:
        raise NotNormalized("partition sequences need a normalized structure")
    return SequenceSpace("S", N, tuple(S.partitions), tuple(S.measures))


def pair_space(P: Distribution, S: PartitionStructure, N: int) -> SequenceSpace:
    """Sequences of (component, partition) pairs weighted by
    Q(i, s) = P(i) * measure(s)."""
    if not S.is_normalized:
        raise NotNormalized("pair sequences need a normalized structure")
    Q = build_q(P, S)
    return SequenceSpace("S-pairs", N, Q.pairs, Q.q)


def component_space(P: Distribution, s: Partition, N: int) -> SequenceSpace:
    masses = [math.fsum(P.p(a) for a in c) for c in s.components]
    return SequenceSpace("component", N, tuple(s.components), tuple(masses))


def project(seq: Iterable[tuple]) -> tuple:
    """Drop the component coordinate of a pair sequence, keeping the
    partition of every symbol."""
    return tuple(s for _, s in seq)


def subset_probability(seq: Iterable[tuple], P: Distribution) -> float:
    """Product of the letter-set masses of a pair sequence's components.

    For a typical sequence, -(1/N) log2 of this product approaches the
    structure entropy.
    """
    total = 1.0
    for comp, _ in seq:
        total *= math.fsum(P.p(a) for a in comp)
    return total


@dataclass(frozen=True)
class TypicalSetSummary:
    """Exact census of the epsilon-typical set of a sequence space."""

    space_size: int
    count: int
    mass: float
    entropy: float
    epsilon: float
    length: int

    @property
    def rate(self) -> float:
        """log2(count) / N, comparable to the entropy for small epsilon."""
        if self.count == 0 or self.length == 0:
            return math.nan
        return math.log2(self.count) / self.length


def _types(space: SequenceSpace, cap: int, owner: np.ndarray | None = None):
    """Yield, in chunks, the C(N+k-1, N) types of ``space`` (non-decreasing
    rows of symbols) as arrays: surprisal (added left to right, as for the
    type's first sequence), orderings and, given the non-decreasing block
    ``owner`` of each symbol, the code of the block row and its orderings.
    A chunk holds the rows that start with a range of symbols, at most 2^16
    rows unless one symbol starts more."""
    if space.size > cap:
        raise SpaceTooLarge(f"{space.size} sequences exceed the enumeration cap {cap}")
    k, N = len(space.symbols), space.length
    with np.errstate(divide="ignore"):
        base = -np.log2(np.asarray(space.probs, dtype=float))
    radix = 1 if owner is None else int(owner[-1]) + 1
    width = max(1, (1 << 16) // math.comb(N + k - 2, N - 1))  # no symbol starts more rows than symbol 0
    for lo in range(0, k, width):
        s = np.arange(lo, min(k, lo + width))
        sur, run = base[s], np.ones(len(s), dtype=np.int64)
        ways = m_run = m_ways = run
        code = run if owner is None else owner[s]
        for j in range(2, N + 1):  # each row extends by its last symbol or a later one
            rep = k - s
            at = np.cumsum(rep) - rep  # the extensions by the last symbol itself
            last, s = s, np.arange(at[-1] + rep[-1]) + np.repeat(s - at, rep)
            sur = np.repeat(sur, rep) + base[s]
            run, prev = np.ones(len(s), dtype=np.int64), run
            run[at] = prev + 1
            ways = np.repeat(ways * j, rep)
            ways[at] //= run[at]
            if owner is not None:
                o = owner[s]
                m_run = np.where(o == np.repeat(owner[last], rep), np.repeat(m_run, rep) + 1, 1)
                code, m_ways = np.repeat(code * radix, rep) + o, np.repeat(m_ways * j, rep) // m_run
        yield (sur, ways) if owner is None else (sur, ways, code, m_ways)


def typical_set(space: SequenceSpace, epsilon: float, cap: int = ENUMERATION_CAP) -> TypicalSetSummary:
    """Count and weigh the typical sequences; a type is typical when its first sequence is."""
    if not 0.0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    H, N = space.base_entropy, space.length
    if N == 0:
        return TypicalSetSummary(1, 1, 1.0, H, epsilon, 0)
    count, parts = 0, []
    for sur, ways in _types(space, cap):
        keep = np.abs(sur / N - H) <= epsilon + 1e-12
        count += int(ways[keep].sum())
        parts.append(ways[keep] * np.exp2(-sur[keep]))
    mass = math.fsum(x for part in parts for x in part.tolist())
    return TypicalSetSummary(space.size, count, mass, H, epsilon, N)


def typical_set_sampled(space: SequenceSpace, epsilon: float, n_samples: int, seed: int) -> TypicalSetSummary:
    """Approximate typical-set mass by Monte Carlo (count is the number of
    typical draws, not a set size).  Use when the space exceeds the cap."""
    if not (0.0 <= epsilon < math.inf and n_samples >= 1):
        raise ValidationError("need a finite epsilon >= 0 and at least one sample")
    rng = np.random.default_rng(seed)
    H = space.base_entropy
    N = space.length
    p = np.asarray(space.probs, dtype=float)
    with np.errstate(divide="ignore"):
        base = -np.log2(p)
    draws = rng.choice(len(p), size=(n_samples, max(N, 1)), p=p / p.sum())
    sur = base[draws].sum(axis=1) if N > 0 else np.zeros(n_samples)
    ok = np.abs(sur / max(N, 1) - H) <= epsilon
    return TypicalSetSummary(space.size, int(ok.sum()), float(ok.mean()), H, epsilon, N)


def types_correction(alphabet_size: int, N: int) -> float:
    """The finite-N envelope slack |A| * log2(N + 1) / N used when comparing
    log2(count)/N against the entropy."""
    if N < 1:
        raise ValidationError("need N >= 1")
    return alphabet_size * math.log2(N + 1) / N


@dataclass(frozen=True)
class EquivalenceClassStats:
    """Typical pair sequences grouped by their partition projection."""

    typical_count: int
    class_count: int
    min_class_size: int
    max_class_size: int
    h_structure: float
    h_s: float
    length: int

    @property
    def class_rate(self) -> float:
        """log2(class count) / N, comparable to the structure measure entropy."""
        if self.class_count == 0:
            return math.nan
        return math.log2(self.class_count) / self.length

    @property
    def size_rates(self) -> tuple[float, float]:
        """log2(min and max class size) / N, comparable to the structure entropy."""
        if self.class_count == 0:
            return (math.nan, math.nan)
        return (math.log2(self.min_class_size) / self.length, math.log2(self.max_class_size) / self.length)


def equivalence_class_stats(
    N: int, P: Distribution, S: PartitionStructure, epsilon: float, cap: int = ENUMERATION_CAP
) -> EquivalenceClassStats:
    """Group the typical (component, partition) sequences by projection.

    Two typical pair sequences are equivalent when they project to the same
    partition sequence.  Asymptotically there are about 2^(N H(measures))
    classes of about 2^(N H_S) members each; at finite N this reports the
    exact count and the min/max class size spread.
    """
    if N < 1 or not 0.0 <= epsilon < math.inf:
        raise ValidationError("need N >= 1 and a finite epsilon >= 0")
    space = pair_space(P, S, N)
    # build_q lists each partition's components in turn, so a type fixes the partition
    # composition m; its class gets multinomial(type) / multinomial(m) sequences from it
    owner = np.repeat(np.arange(len(S)), [len(s) for s in S.partitions])
    H = space.base_entropy
    found = []
    for sur, ways, code, m_ways in _types(space, cap, owner):
        keep = np.abs(sur / N - H) <= epsilon + 1e-12
        found.append((code[keep], ways[keep] // m_ways[keep], m_ways[keep]))
    code, size, m_ways = map(np.concatenate, zip(*found))
    code, first, inv = np.unique(code, return_index=True, return_inverse=True)
    size, m_ways = np.bincount(inv, size, len(code)).astype(np.int64), m_ways[first]  # exact below 2**53
    counts = (0,) * 4 if not len(code) else (
        int(m_ways @ size), int(m_ways.sum()), int(size.min()), int(size.max()))
    return EquivalenceClassStats(*counts, entropy(S.measures), h_s(StructuredAlphabet(P, S)), N)
