"""Shared fixtures: the small worked instances used across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from structent import (
    Alphabet,
    DistanceMatrix,
    Distribution,
    Partition,
    PartitionStructure,
    UltrametricTree,
    leaf,
    node,
)
from structent.sampling import default_letters


@pytest.fixture
def abcd() -> Alphabet:
    return Alphabet(("a", "b", "c", "d"))


@pytest.fixture
def uniform4(abcd) -> Distribution:
    return Distribution.uniform(abcd)


@pytest.fixture
def two_cluster_tree(abcd) -> UltrametricTree:
    """Root height 1 over two height-0.2 clusters {a,b} and {c,d}."""
    return UltrametricTree(
        abcd,
        node(
            1.0,
            [
                node(0.2, [leaf("a"), leaf("b")]),
                node(0.2, [leaf("c"), leaf("d")]),
            ],
        ),
    )


@pytest.fixture
def two_cluster_distance(abcd) -> DistanceMatrix:
    m = np.full((4, 4), 1.0)
    m[0, 1] = m[1, 0] = m[2, 3] = m[3, 2] = 0.2
    np.fill_diagonal(m, 0.0)
    return DistanceMatrix(abcd, m)


@pytest.fixture
def mixed_structure(abcd) -> PartitionStructure:
    """Singletons with measure .6 plus the pair partition with measure .4."""
    return PartitionStructure(
        abcd,
        [
            (Partition.singletons(abcd), 0.6),
            (Partition(abcd, [("a", "b"), ("c", "d")]), 0.4),
        ],
    )


@pytest.fixture
def three_leaf_tree() -> UltrametricTree:
    """Root height 1 with leaf a1 and a height-0.4 cluster {a2,a3}."""
    A = Alphabet(("a1", "a2", "a3"))
    return UltrametricTree(
        A, node(1.0, [leaf("a1"), node(0.4, [leaf("a2"), leaf("a3")])])
    )


@pytest.fixture
def three_leaf_probs(three_leaf_tree) -> Distribution:
    return Distribution(three_leaf_tree.alphabet, (0.5, 0.25, 0.25))


@pytest.fixture
def caterpillar():
    """Builds the deepest tree on n >= 2 leaves: letter k of
    ``default_letters(n)`` joins the chain at height k / (n - 1), so the
    distance between letters i != j is max(i, j) / (n - 1)."""

    def build(n: int) -> UltrametricTree:
        A = default_letters(n)
        nd = leaf(A.letters[0])
        for k in range(1, n):
            nd = node(k / (n - 1), [nd, leaf(A.letters[k])])
        return UltrametricTree(A, nd)

    return build
