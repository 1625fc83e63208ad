"""Seeded random instance generators used by trials and property tests.

Every generator takes a ``numpy.random.Generator`` so callers control
seeding and reproducibility; nothing here touches global random state.
"""

from __future__ import annotations

import string

import numpy as np

from .alphabet import Alphabet, Distribution, Partition, PartitionStructure
from .errors import TooFewLetters, ValidationError
from .ultrametric import UltrametricTree, _unfold, leaf, node


def default_letters(n: int) -> Alphabet:
    """a, b, ..., z, x0, x1, ... - a readable alphabet of any size."""
    base = list(string.ascii_lowercase)
    if n <= len(base):
        return Alphabet(tuple(base[:n]))
    return Alphabet(tuple(base) + tuple(f"x{i}" for i in range(n - len(base))))


def random_distribution(A: Alphabet, rng: np.random.Generator) -> Distribution:
    """Flat Dirichlet draw over the alphabet."""
    return Distribution(A, rng.dirichlet(np.ones(len(A))), renormalize=True)


def random_partition(A: Alphabet, rng: np.random.Generator) -> Partition:
    """A uniform-ish random partition with at least two blocks: each letter
    is dropped into one of k urns, empty urns discarded; retried until at
    least two blocks are non-empty."""
    n = len(A)
    if n < 2:
        raise TooFewLetters("partitions need at least two letters")
    while True:
        k = int(rng.integers(2, n + 1))
        labels = rng.integers(0, k, size=n)
        blocks: dict[int, list] = {}
        for a, g in zip(A.letters, labels):
            blocks.setdefault(int(g), []).append(a)
        if len(blocks) >= 2:
            return Partition(A, blocks.values())


def random_structure(
    A: Alphabet,
    rng: np.random.Generator,
    max_partitions: int = 4,
    normalized: bool = False,
) -> PartitionStructure:
    """A random structure with 1..max_partitions distinct partitions and
    positive measures (normalized to total 1 on request)."""
    k = int(rng.integers(1, max_partitions + 1))
    parts = [random_partition(A, rng) for _ in range(k)]
    w = rng.uniform(0.2, 1.0, size=len(parts))
    if normalized:
        w = w / w.sum()
    return PartitionStructure(A, list(zip(parts, w)))


def _random_split(items: list, rng: np.random.Generator) -> tuple:
    """Two non-empty random sides of ``items``; no sides for one item."""
    n = len(items)
    if n < 2:
        return ()
    while True:
        mask = rng.integers(0, 2, size=n).astype(bool)
        if 0 < mask.sum() < n:
            break
    left = [x for x, m in zip(items, mask) if m]
    right = [x for x, m in zip(items, mask) if not m]
    return left, right


def random_ultrametric_tree(
    n: int, rng: np.random.Generator, normalized: bool = True
) -> UltrametricTree:
    """A random ultrametric tree over :func:`default_letters`.

    The shape comes from random binary splits of the letter set, drawn in
    preorder with the left side first; heights are uniform draws sorted in
    decreasing breadth-first order, so they strictly decrease away from the
    root, then scaled so the root has height 1 (unless ``normalized=False``,
    which keeps the raw root draw).
    """
    if n < 2:
        raise TooFewLetters("random trees need at least two letters")
    A = default_letters(n)
    root = _unfold(
        list(A.letters),
        lambda xs: _random_split(xs, rng),
        lambda xs, kids: node(0.0, kids) if kids else leaf(xs[0]),
    )
    internal = [root]
    for nd in internal:  # breadth-first order
        internal += [c for c in nd.children if not c.is_leaf]
    draws = np.sort(rng.uniform(0.05, 1.0, size=len(internal)))[::-1]
    scale = 1.0 / float(draws[0]) if normalized else 1.0
    for nd, h in zip(internal, draws):
        nd.height = float(h) * scale
    return UltrametricTree(A, root)


def random_code_shape(letters: list, rng: np.random.Generator):
    """Random strictly binary nesting of the letters, as nested pairs, the
    splits drawn in preorder with the left side first."""
    return _unfold(
        letters, lambda xs: _random_split(xs, rng), lambda xs, kids: tuple(kids) if kids else xs[0]
    )


def random_joint_matrix(nrow: int, ncol: int, rng: np.random.Generator) -> np.ndarray:
    """Flat Dirichlet over all cells of an nrow x ncol joint matrix."""
    if nrow < 1 or ncol < 1:
        raise ValidationError("joint matrices need positive dimensions")
    return rng.dirichlet(np.ones(nrow * ncol)).reshape(nrow, ncol)
