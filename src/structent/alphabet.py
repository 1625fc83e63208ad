"""Finite alphabets, distributions, partitions, and partition structures.

A *partition structure* ``(S, measure)`` assigns a non-negative measure to
each partition of an alphabet.  It is the basic object everything else in
the package consumes: entropy notions weight classical quantities by the
measures, distances count the measure of separating partitions, and
ultrametric trees induce one structure per tree.

A partition is stored as one canonical label row, the block index of each
letter in alphabet order, and a structure as the k x n matrix of its
partitions' rows next to their measures.  Reduction is a ``bincount`` of a
row, products are mixed-radix combinations of rows, restriction is a
column slice, and letters that no positive-measure partition separates are
the letters with equal columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    EmptySubset,
    PartitionMismatch,
    ValidationError,
    ZeroMassSubset,
)

Letter = Hashable

#: absolute tolerance for probability / measure sums; the tiny extra term
#: keeps sums that are off by exactly 1e-9 (e.g. 0.999999999) on the
#: accepted side despite their own representation error
PROB_TOL = 1e-9 + 1e-15


def _finite_fsum(values: Iterable[float], what: str) -> float:
    """``math.fsum`` of `values`; ValidationError when the sum is not finite."""
    try:
        total = math.fsum(values)
    except OverflowError:  # an intermediate sum of finite values overflowed
        total = math.inf
    if not math.isfinite(total):
        raise ValidationError(f"the sum of the {what} overflows")
    return total


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of distinct hashable letters."""

    letters: tuple[Letter, ...]
    _index: dict[Letter, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        index = {a: i for i, a in enumerate(letters)}
        if len(index) != len(letters):
            raise ValidationError("alphabet letters must be distinct")
        if not letters:
            raise ValidationError("alphabet must be non-empty")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __contains__(self, letter: Letter) -> bool:
        return letter in self._index

    def index_of(self, letter: Letter) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise AlphabetMismatch(f"letter {letter!r} not in alphabet") from None

    def check_subset(self, subset: Iterable[Letter]) -> frozenset:
        B = frozenset(subset)
        for a in B:
            if a not in self._index:
                raise AlphabetMismatch(f"letter {a!r} not in alphabet")
        return B

    def sort_key(self, letters: Iterable[Letter]) -> tuple[Letter, ...]:
        """Letters of `letters` in alphabet order, as a tuple."""
        return tuple(sorted(letters, key=self._index.__getitem__))

    def restricted(self, subset: Iterable[Letter]) -> "Alphabet":
        B = self.check_subset(subset)
        if not B:
            raise EmptySubset("cannot restrict alphabet to the empty set")
        return Alphabet(tuple(a for a in self.letters if a in B))


@dataclass(frozen=True)
class Distribution:
    """A probability distribution over an :class:`Alphabet`.

    Entries must be non-negative and sum to 1 within ``PROB_TOL``.  Pass
    ``renormalize=True`` to accept any non-negative vector with positive
    total and scale it; no silent renormalization ever happens.
    """

    alphabet: Alphabet
    probs: tuple[float, ...]

    def __init__(self, alphabet: Alphabet, probs: Sequence[float], *, renormalize: bool = False):
        probs = tuple(float(p) for p in probs)
        if len(probs) != len(alphabet):
            raise ValidationError("probability vector length must match alphabet size")
        for p in probs:
            if p < -1e-12 or math.isnan(p):
                raise ValidationError(f"probabilities must be non-negative, got {p}")
        probs = tuple(max(p, 0.0) for p in probs)
        total = _finite_fsum(probs, "probabilities")
        if renormalize:
            if total <= 0.0:
                raise ValidationError("cannot renormalize a zero vector")
            probs = tuple(p / total for p in probs)
        elif abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_mapping(cls, alphabet: Alphabet, mapping: Mapping[Letter, float], **kw) -> "Distribution":
        return cls(alphabet, [mapping.get(a, 0.0) for a in alphabet], **kw)

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "Distribution":
        n = len(alphabet)
        return cls(alphabet, [1.0 / n] * n)

    def p(self, letter: Letter) -> float:
        return self.probs[self.alphabet.index_of(letter)]

    def mass(self, subset: Iterable[Letter]) -> float:
        B = self.alphabet.check_subset(subset)
        return math.fsum(self.probs[self.alphabet.index_of(a)] for a in B)

    def as_mapping(self) -> dict[Letter, float]:
        return dict(zip(self.alphabet.letters, self.probs))


class Partition:
    """A partition of an alphabet into at least two non-empty blocks.

    Stored as one canonical label row: ``labels[i]`` is the block of the
    i-th letter, blocks numbered in the order of their first letters.
    ``components`` lists each block's letters in alphabet order, blocks in
    label order.  Equality and hashing use the label row, so structurally
    equal partitions compare equal no matter how they were assembled.
    """

    __slots__ = ("alphabet", "labels", "_components")

    def __init__(self, alphabet: Alphabet, components: Iterable[Iterable[Letter]]):
        index = alphabet._index
        try:
            blocks = [[index[a] for a in c] for c in components]
        except KeyError as e:
            raise AlphabetMismatch(f"letter {e.args[0]!r} not in alphabet") from None
        if not all(blocks):
            raise PartitionMismatch("partition components must be non-empty")
        flat = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.intp)
        count = np.bincount(flat, minlength=len(alphabet))
        if count.max() > 1:
            dup = alphabet.letters[int(np.argmax(count > 1))]
            raise PartitionMismatch(f"letter {dup!r} appears in two components")
        if count.min() == 0:
            missing = [a for a, c in zip(alphabet.letters, count) if c == 0]
            raise PartitionMismatch(f"components do not cover the alphabet, missing {missing!r}")
        if len(blocks) < 2:
            raise PartitionMismatch("a partition needs at least two components")
        # number the blocks by their first letters
        rank = np.argsort(np.argsort([min(b) for b in blocks]))
        labels = np.empty(len(alphabet), dtype=np.intp)
        labels[flat] = np.repeat(rank, [len(b) for b in blocks])
        self.alphabet = alphabet
        self.labels = _frozen(labels)
        self._components = None

    @classmethod
    def _from_row(cls, alphabet: Alphabet, labels: np.ndarray) -> "Partition":
        """The partition with a canonical label row, unchecked."""
        s = object.__new__(cls)
        s.alphabet = alphabet
        s.labels = _frozen(labels)
        s._components = None
        return s

    @classmethod
    def singletons(cls, alphabet: Alphabet) -> "Partition":
        return cls(alphabet, [[a] for a in alphabet])

    @property
    def components(self) -> tuple[tuple[Letter, ...], ...]:
        if self._components is None:
            letters = self.alphabet.letters
            order = iter([letters[i] for i in np.argsort(self.labels, kind="stable").tolist()])
            self._components = tuple(
                tuple(itertools.islice(order, k)) for k in np.bincount(self.labels).tolist()
            )
        return self._components

    def __len__(self) -> int:
        return int(self.labels.max()) + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.labels, other.labels)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.labels.tobytes()))

    def __repr__(self) -> str:
        return f"Partition({self.components!r})"

    def component_of(self, letter: Letter) -> int:
        return int(self.labels[self.alphabet.index_of(letter)])

    def component_index(self) -> Mapping[Letter, int]:
        return dict(zip(self.alphabet.letters, self.labels.tolist()))

    def separates(self, a: Letter, b: Letter) -> bool:
        return self.component_of(a) != self.component_of(b)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _canonical(row: np.ndarray) -> np.ndarray:
    """A label row renumbered in order of first occurrence."""
    _, first, inv = np.unique(row, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv]


def _check_same_alphabet(x, y) -> None:
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch("operands are defined over different alphabets")


def restrict_distribution(P: Distribution, subset: Iterable[Letter]) -> Distribution:
    """Condition ``P`` on a subset: P(a | B) = P(a) / P(B) for a in B."""
    B = P.alphabet.check_subset(subset)
    if not B:
        raise EmptySubset("cannot condition on the empty set")
    mass = P.mass(B)
    if mass <= 0.0:
        raise ZeroMassSubset("cannot condition on a zero-probability subset")
    sub = P.alphabet.restricted(B)
    return Distribution(sub, [P.p(a) / mass for a in sub], renormalize=True)


def reduce(P: Distribution, s: Partition) -> Distribution:
    """Push ``P`` forward through a partition: one letter per component.

    The reduced alphabet's letters are the components themselves, written as
    alphabet-ordered tuples of original letters.
    """
    _check_same_alphabet(P, s)
    probs = reduced_probs(P, s)
    return Distribution(Alphabet(s.components), probs, renormalize=False)


def reduced_probs(P: Distribution, s: Partition) -> list[float]:
    """Component masses of ``P`` under ``s``, in canonical component order."""
    _check_same_alphabet(P, s)
    return np.bincount(s.labels, weights=P.probs).tolist()


def join(s: Partition, t: Partition) -> Partition:
    """Coarsest common refinement: blocks are the non-empty pairwise
    intersections of blocks of ``s`` with blocks of ``t``."""
    _check_same_alphabet(s, t)
    return Partition._from_row(s.alphabet, _canonical(s.labels * len(t) + t.labels))


def refines(s: Partition, t: Partition) -> bool:
    """True when every block of ``s`` sits inside a block of ``t``."""
    _check_same_alphabet(s, t)
    return len(np.unique(s.labels * len(t) + t.labels)) == len(s)


class PartitionStructure:
    """A finite set of partitions with non-negative measures.

    The partitions' label rows are stacked into one k x n matrix
    ``labels``, row r belonging to ``partitions[r]`` with measure
    ``measures[r]``; the structure operations work on its rows and columns.
    Structurally identical partitions passed twice are merged with their
    measures summed, so the stored partitions are distinct.  A structure may
    be empty (total measure 0), which acts as the identity for
    :func:`combine`.
    """

    __slots__ = ("alphabet", "partitions", "measures", "labels", "_separating")

    def __init__(
        self,
        alphabet: Alphabet,
        items: Iterable[tuple[Partition, float]] = (),
    ):
        merged: dict[Partition, float] = {}
        for s, m in items:
            if s.alphabet != alphabet:
                raise AlphabetMismatch("partition defined over a different alphabet")
            m = float(m)
            if m < -1e-12 or math.isnan(m):
                raise ValidationError(f"measures must be non-negative, got {m}")
            merged[s] = merged.get(s, 0.0) + max(m, 0.0)
        _finite_fsum(merged.values(), "measures")
        self.alphabet = alphabet
        self.partitions = tuple(merged.keys())
        self.measures = tuple(merged.values())
        rows = [s.labels for s in self.partitions]
        self.labels = _frozen(np.array(rows, dtype=np.intp).reshape(len(rows), len(alphabet)))
        self._separating: bool | None = None

    @classmethod
    def _from_labels(
        cls, alphabet: Alphabet, labels: np.ndarray, measures: Iterable[float]
    ) -> "PartitionStructure":
        """The structure of the given label rows and measures.  Rows are
        renumbered canonically, rows of one block are dropped and equal rows
        merged."""
        rows = [_canonical(row) for row in labels]
        items = [(Partition._from_row(alphabet, r), m) for r, m in zip(rows, measures) if r.max() > 0]
        return cls(alphabet, items)

    @classmethod
    def traditional(cls, alphabet: Alphabet) -> "PartitionStructure":
        """The structure carrying only the singleton partition with measure 1;
        every structure-weighted notion collapses to its classical value on it."""
        return cls(alphabet, [(Partition.singletons(alphabet), 1.0)])

    def items(self) -> Iterator[tuple[Partition, float]]:
        return iter(zip(self.partitions, self.measures))

    def __len__(self) -> int:
        return len(self.partitions)

    @property
    def total_measure(self) -> float:
        return math.fsum(self.measures)

    @property
    def is_normalized(self) -> bool:
        return abs(self.total_measure - 1.0) <= PROB_TOL

    @property
    def is_separating(self) -> bool:
        """True when every pair of letters is split by some positive-measure
        partition."""
        if self._separating is None:
            self._separating = int(self._inseparable().max()) + 1 == len(self.alphabet)
        return self._separating

    def _inseparable(self) -> np.ndarray:
        """Canonical group label of every letter, where a group gathers the
        letters whose label columns agree on every positive-measure row."""
        cols = self.labels[np.array(self.measures, dtype=float) > 0.0].T
        return _canonical(np.unique(cols, axis=0, return_inverse=True)[1].ravel())

    def measure_of(self, s: Partition) -> float:
        for t, m in self.items():
            if t == s:
                return m
        return 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionStructure):
            return NotImplemented
        return self.alphabet == other.alphabet and dict(self.items()) == dict(other.items())

    def __repr__(self) -> str:
        return f"PartitionStructure({len(self.partitions)} partitions, total={self.total_measure:.6g})"


def restrict_structure(S: PartitionStructure, subset: Iterable[Letter]) -> PartitionStructure:
    """Restrict every partition to a subset of the alphabet.

    Restrictions that collapse to a single block are dropped; partitions
    whose restrictions coincide are merged with their measures summed.  The
    result is generally not normalized even when ``S`` is.
    """
    B = S.alphabet.check_subset(subset)
    if not B:
        raise EmptySubset("cannot restrict a structure to the empty set")
    sub = S.alphabet.restricted(B)
    cols = [S.alphabet.index_of(a) for a in sub]
    return PartitionStructure._from_labels(sub, S.labels[:, cols], S.measures)


def combine(S1: PartitionStructure, S2: PartitionStructure) -> PartitionStructure:
    """Measure-wise sum of two structures over the same alphabet."""
    _check_same_alphabet(S1, S2)
    return PartitionStructure(S1.alphabet, list(S1.items()) + list(S2.items()))


def product_alphabet(A: Alphabet, B: Alphabet) -> Alphabet:
    return Alphabet(tuple(itertools.product(A.letters, B.letters)))


def _product_labels(LA: np.ndarray, LB: np.ndarray) -> np.ndarray:
    """Label rows of the products of every row of ``LA`` with every row of
    ``LB`` (``LA`` rows outermost) over the a-major product alphabet: the
    letter (a, b) gets the mixed-radix label ``LA[a] * kB + LB[b]``."""
    kB = LB.max(axis=1) + 1
    L = LA[:, None, :, None] * kB[None, :, None, None] + LB[None, :, None, :]
    return L.reshape(len(LA) * len(LB), LA.shape[1] * LB.shape[1])


def product_partition(AB: Alphabet, sA: Partition, sB: Partition) -> Partition:
    if AB != product_alphabet(sA.alphabet, sB.alphabet):
        raise AlphabetMismatch("alphabet is not the product of the partitions' alphabets")
    return Partition._from_row(AB, _product_labels(sA.labels[None], sB.labels[None])[0])


def product_structure(SA: PartitionStructure, SB: PartitionStructure) -> PartitionStructure:
    """Product structure over the product alphabet: one partition per pair
    (sA, sB) with blocks cA x cB and measure mA * mB."""
    return PartitionStructure._from_labels(
        product_alphabet(SA.alphabet, SB.alphabet),
        _product_labels(SA.labels, SB.labels),
        [mA * mB for mA in SA.measures for mB in SB.measures],
    )


def sequence_alphabet(A: Alphabet, m: int) -> Alphabet:
    return Alphabet(tuple(itertools.product(A.letters, repeat=m)))


def power_structure(S: PartitionStructure, m: int) -> PartitionStructure:
    """m-fold self-product over length-m tuples: one partition per m-tuple
    of partitions, with the product of their measures."""
    if m < 1:
        raise ValidationError("power requires m >= 1")
    labels, measures = S.labels, S.measures
    for _ in range(m - 1):
        labels = _product_labels(labels, S.labels)
        measures = [a * b for a in measures for b in S.measures]
    return PartitionStructure._from_labels(sequence_alphabet(S.alphabet, m), labels, measures)


@dataclass(frozen=True)
class StructuredSpace:
    """The space of (component, partition) pairs with weights
    Q(i, s) = P(i) * measure(s)."""

    pairs: tuple[tuple[tuple[Letter, ...], Partition], ...]
    q: tuple[float, ...]

    @property
    def total(self) -> float:
        return math.fsum(self.q)

    @property
    def is_probability(self) -> bool:
        return abs(self.total - 1.0) <= PROB_TOL


def build_q(P: Distribution, S: PartitionStructure) -> StructuredSpace:
    """Assemble Q(i, s) = P(i) * measure(s) over all components of all
    partitions of ``S``.  The total equals the total measure of ``S``."""
    _check_same_alphabet(P, S)
    pairs: list[tuple[tuple[Letter, ...], Partition]] = []
    q: list[float] = []
    for s, m in S.items():
        masses = reduced_probs(P, s)
        for comp, pc in zip(s.components, masses):
            pairs.append((comp, s))
            q.append(pc * m)
    return StructuredSpace(tuple(pairs), tuple(q))


def merge_inseparable(S: PartitionStructure) -> tuple[tuple[tuple[Letter, ...], ...], PartitionStructure]:
    """Group letters never separated by a positive-measure partition.

    Returns the groups (alphabet-ordered tuples) and the structure rewritten
    over the merged alphabet, whose letters are those groups.  Never applied
    implicitly by any other operation.
    """
    group = S._inseparable()
    keys = Partition._from_row(S.alphabet, group).components
    _, first = np.unique(group, return_index=True)
    return keys, PartitionStructure._from_labels(Alphabet(keys), S.labels[:, first], S.measures)
