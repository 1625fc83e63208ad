"""Typical sequences over structured alphabets, by exhaustive enumeration.

Length-N IID sequences can be drawn over the letters themselves, over the
partitions of a structure, over (component, partition) pairs, or over the
components of one partition.  A sequence is epsilon-typical when its
per-symbol surprisal is within epsilon of the source entropy:

    | -(1/N) log2 prob(seq) - H |  <=  epsilon

Everything here enumerates exactly (up to a configurable cap) so the
asymptotic "about 2^(N H)" statements can be probed honestly at small N; a
clearly-labeled sampled estimator covers spaces beyond the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .alphabet import (
    Distribution,
    Partition,
    PartitionStructure,
    build_q,
)
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
        if abs(total - 1.0) > 1e-9:
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


def _surprisal_table(space: SequenceSpace, cap: int) -> np.ndarray:
    """-log2 probability of every sequence, in lexicographic order."""
    if space.size > cap:
        raise SpaceTooLarge(
            f"{space.size} sequences exceed the enumeration cap {cap}"
        )
    with np.errstate(divide="ignore"):
        base = -np.log2(np.asarray(space.probs, dtype=float))
    total = np.zeros(1)
    for _ in range(space.length):
        total = (total[:, None] + base[None, :]).ravel()
    return total


def typical_set(space: SequenceSpace, epsilon: float, cap: int = ENUMERATION_CAP) -> TypicalSetSummary:
    """Count and weigh the typical sequences by exact enumeration."""
    if not 0.0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    H = space.base_entropy
    N = space.length
    if N == 0:
        return TypicalSetSummary(1, 1, 1.0, H, epsilon, 0)
    sur = _surprisal_table(space, cap)
    mask = np.abs(sur / N - H) <= epsilon + 1e-12
    mass = float(np.exp2(-sur[mask]).sum()) if mask.any() else 0.0
    return TypicalSetSummary(space.size, int(mask.sum()), mass, H, epsilon, N)


def typical_set_sampled(
    space: SequenceSpace, epsilon: float, n_samples: int, seed: int
) -> TypicalSetSummary:
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
        return (
            math.log2(self.min_class_size) / self.length,
            math.log2(self.max_class_size) / self.length,
        )


def equivalence_class_stats(
    N: int,
    P: Distribution,
    S: PartitionStructure,
    epsilon: float,
    cap: int = ENUMERATION_CAP,
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
    k = len(space.symbols)
    if space.size > cap:
        raise SpaceTooLarge(f"{space.size} sequences exceed the enumeration cap {cap}")
    # partition index of each pair symbol, for projection codes; build_q
    # lists the components of each partition in turn
    radix = len(S)
    sym_part = np.repeat(np.arange(radix, dtype=np.int64), [len(s) for s in S.partitions])
    with np.errstate(divide="ignore"):
        base = -np.log2(np.asarray(space.probs, dtype=float))
    sur = np.zeros(1)
    code = np.zeros(1, dtype=np.int64)
    for _ in range(N):
        sur = (sur[:, None] + base[None, :]).ravel()
        code = (code[:, None] * radix + sym_part[None, :]).ravel()
    H = space.base_entropy
    mask = np.abs(sur / N - H) <= epsilon + 1e-12
    typical = int(mask.sum())
    h_struct = entropy(S.measures)
    hs_val = h_s(StructuredAlphabet(P, S))
    if typical == 0:
        return EquivalenceClassStats(0, 0, 0, 0, h_struct, hs_val, N)
    _, counts = np.unique(code[mask], return_counts=True)
    return EquivalenceClassStats(
        typical_count=typical,
        class_count=int(len(counts)),
        min_class_size=int(counts.min()),
        max_class_size=int(counts.max()),
        h_structure=h_struct,
        h_s=hs_val,
        length=N,
    )
