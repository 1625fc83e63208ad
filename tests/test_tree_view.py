"""The flat preorder view that ultrametric trees and code trees build with
one walk (``ultrametric._preorder``), checked at every position."""

from __future__ import annotations

import numpy as np
import pytest

from structent import (
    Alphabet,
    CodeTree,
    UltrametricTree,
    ValidationError,
    band,
    code_tree_from_nesting,
    initial_code_tree,
    leaf,
    node,
    optimize,
)
from structent.sampling import random_code_shape, random_distribution, random_ultrametric_tree
from structent.ultrametric import _preorder


def check_view(view, tree, first_child_next: bool) -> None:
    """Every position of ``view`` (the builder's six lists) against the
    nodes of ``tree``.  A node's child that the walk takes first sits right
    after it: the first child when ``first_child_next``, else the last."""
    nodes, parent, kids, lo, hi, order = view
    letters = tree.alphabet.letters
    assert nodes[0] is tree.root and parent[0] == -1
    assert sorted(order) == list(range(len(letters)))
    size = [1] * len(nodes)
    for i in reversed(range(len(nodes))):
        size[i] += sum(size[c] for c in kids[i])
    for i, nd in enumerate(nodes):
        assert frozenset(letters[j] for j in order[lo[i]:hi[i]]) == nd.leaves
        assert len(kids[i]) == len(nd.children)
        assert all(nodes[c] is child for c, child in zip(kids[i], nd.children))
        if not kids[i]:
            assert hi[i] == lo[i] + 1 and letters[order[lo[i]]] == nd.letter
            continue
        assert all(parent[c] == i for c in kids[i])
        taken = kids[i] if first_child_next else kids[i][::-1]
        at, start = i + 1, lo[i]
        for c in taken:  # preorder: each subtree fills the positions and leaves after the last
            assert c == at and lo[c] == start
            at, start = c + size[c], hi[c]
        assert start == hi[i]


def check_ultrametric(T: UltrametricTree) -> None:
    view = (T._nodes, T._parent, T._kids, T._lo, T._hi, T._order)
    check_view(view, T, first_child_next=False)


def check_code(C: CodeTree) -> None:
    # the tree keeps all of the builder's view but the parents
    view = _preorder(C.root, C.alphabet, lambda nd: nd.children[::-1], "code ")
    assert (C._nodes, C._kids, C._lo, C._hi, C._order) == tuple(view[i] for i in (0, 2, 3, 4, 5))
    check_view(view, C, first_child_next=True)


class TestUltrametricView:
    def test_random_trees(self):
        rng = np.random.default_rng(1313)
        for n in range(2, 61):
            check_ultrametric(random_ultrametric_tree(n, rng))

    def test_banded_trees_with_passthrough_nodes(self):
        rng = np.random.default_rng(1314)
        for n in (3, 8, 20, 40):
            B = band(random_ultrametric_tree(n, rng))
            assert any(nd.passthrough for nd in B._nodes)
            check_ultrametric(B)

    def test_caterpillar(self, caterpillar):
        check_ultrametric(caterpillar(2000))

    def test_multiway_nodes(self):
        A = Alphabet(tuple("abcdefg"))
        check_ultrametric(UltrametricTree(A, node(1.0, [
            leaf("a"), node(0.5, [leaf("b"), leaf("c"), leaf("d")]), leaf("e"), node(0.2, [leaf("f"), leaf("g")]),
        ])))


class TestCodeView:
    def test_initial_and_optimized_trees(self):
        rng = np.random.default_rng(1315)
        for n in (2, 3, 5, 12, 30):
            T = random_ultrametric_tree(n, rng)
            P = random_distribution(T.alphabet, rng)
            check_code(initial_code_tree(T, P))
            check_code(optimize(T, P))

    def test_random_shapes(self):
        rng = np.random.default_rng(1316)
        for n in range(2, 40):
            T = random_ultrametric_tree(n, rng)
            check_code(code_tree_from_nesting(T.alphabet, random_code_shape(list(T.alphabet.letters), rng)))


ABC = Alphabet(("a", "b", "c"))


class TestLeafChecks:
    @pytest.mark.parametrize("letters, message", [
        (("a", "b", "x"), "leaf 'x' not in alphabet"),
        (("a", "b", "a"), "duplicate leaf 'a'"),
        (("a", "b"), "tree leaves must cover the alphabet exactly"),
    ])
    def test_ultrametric(self, letters, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            UltrametricTree(ABC, node(1.0, [leaf(a) for a in letters]))

    @pytest.mark.parametrize("nesting, message", [
        ((("a", "b"), "x"), "code leaf 'x' not in alphabet"),
        ((("a", "b"), "a"), "duplicate code leaf 'a'"),
        (("a", "b"), "code tree leaves must cover the alphabet exactly"),
    ])
    def test_code(self, nesting, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            code_tree_from_nesting(ABC, nesting)
