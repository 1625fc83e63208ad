"""Ultrametric distances, trees, banding, and the tree entropy formulations."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import oracles
from structent import (
    Alphabet,
    DistanceMatrix,
    Distribution,
    NotUltrametric,
    Partition,
    PartitionStructure,
    TreeNode,
    UltrametricTree,
    ValidationError,
    ZeroMassSide,
    band,
    check_binary_partition_minimality,
    entropy,
    hu_arcwise,
    hu_bandwise,
    hu_nodewise,
    hu_recursive,
    leaf,
    node,
    set_distance,
    to_partition_structure,
    tree_equal,
    tree_from_distance,
    tree_to_distance,
)
from structent.io import parse_newick, tree_to_newick
from structent.notions import StructuredAlphabet, h_s
from structent.sampling import default_letters, random_distribution, random_ultrametric_tree

ALL_FORMS = (hu_recursive, hu_nodewise, hu_arcwise, hu_bandwise)

# a node 7e-10 above its parent of height 8e-10, which lies below the tolerance
INVERTED_NEWICK = "(((a:1.5e-9,b:1.5e-9):-7e-10,c:8e-10):0.9999999992,(d:0.25,e:0.25):0.75,f:1);"


def grid_tree(n: int, rng) -> UltrametricTree:
    """A random tree with two or three children per node and internal
    heights on the grid 0, 1/4, 1/2, 3/4 below a root of height 1.  A node
    on the 0 line has height exactly 0; any other is moved off its line by
    up to 4e-10, so heights on one line are closer than HEIGHT_TOL."""

    def build(letters: list, level: int):
        if len(letters) == 1:
            return leaf(letters[0])
        k = min(len(letters), int(rng.integers(2, 4)))
        cuts = np.sort(rng.choice(np.arange(1, len(letters)), k - 1, replace=False))
        groups = np.split(rng.permutation(len(letters)), cuts)
        kids = [
            build([letters[j] for j in g], int(rng.integers(0, level)) if level else 0)
            for g in groups
        ]
        if level in (0, 4):
            return node(level / 4, kids)
        return node(level / 4 + rng.uniform(-4e-10, 4e-10), kids)

    A = default_letters(n)
    return UltrametricTree(A, build(list(A.letters), 4))


class TestDistanceMatrix:
    def test_ultrametric_flag(self, two_cluster_distance):
        assert two_cluster_distance.is_ultrametric
        assert two_cluster_distance.is_normalized

    def test_non_ultrametric_detected(self):
        A = Alphabet(("a", "b", "c"))
        # 1-2-4 path metric violates the strong triangle inequality
        D = DistanceMatrix(A, [[0, 1, 4], [1, 0, 2], [4, 2, 0]])
        assert not D.is_ultrametric

    def test_witness_matches_broadcast_oracle(self):
        rng = np.random.default_rng(71)
        for k in range(120):
            n = int(rng.integers(3, 25))
            if k % 3 == 0:  # uniform random distances: violations almost everywhere
                m = rng.uniform(0.0, 1.0, (n, n))
                m = np.triu(m, 1) + np.triu(m, 1).T
            else:  # one perturbed pair of an ultrametric: few violations, or none
                m = tree_to_distance(random_ultrametric_tree(n, rng)).matrix.copy()
                a, b = rng.choice(n, size=2, replace=False)
                m[a, b] = m[b, a] = m[a, b] * float(rng.choice([0.5, 1.0, 1.5]))
            D = DistanceMatrix(default_letters(n), m)
            assert D._ultrametric_witness() == oracles.ultrametric_witness_ref(D)

    def test_witness_temporaries_stay_quadratic(self):
        import tracemalloc

        n = 400
        D = tree_to_distance(random_ultrametric_tree(n, np.random.default_rng(72)))
        tracemalloc.start()
        try:
            assert D._ultrametric_witness() is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n * 8  # the n x n x n broadcast needs over 600 MB here

    @pytest.mark.parametrize("x", [math.inf, 1e308])
    def test_distances_beyond_float_range_rejected(self, x):
        A = Alphabet(("a", "b", "c"))
        with pytest.raises(ValidationError, match="finite"):
            DistanceMatrix(A, [[0, 1, x], [1, 0, x], [x, x, 0]])

    def test_asymmetric_rejected(self):
        A = Alphabet(("a", "b"))
        with pytest.raises(ValidationError):
            DistanceMatrix(A, [[0, 1], [2, 0]])

    def test_nonzero_diagonal_rejected(self):
        A = Alphabet(("a", "b"))
        with pytest.raises(ValidationError):
            DistanceMatrix(A, [[0.1, 1], [1, 0]])


class TestTreeFromDistance:
    def test_star_tree(self):
        A = Alphabet(("a", "b", "c"))
        D = DistanceMatrix(A, np.ones((3, 3)) - np.eye(3))
        T = tree_from_distance(D)
        assert T.root.height == pytest.approx(1.0)
        assert all(c.is_leaf for c in T.root.children)

    def test_zero_distance_pairs_kept_as_leaves(self):
        # intra-cluster distance 0, inter-cluster 1: leaves survive under
        # height-0 nodes and every distance is reproduced
        A = Alphabet(("p1", "p2", "q1", "q2"))
        m = np.array(
            [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=float
        )
        T = tree_from_distance(DistanceMatrix(A, m))
        assert sorted(T.alphabet.letters) == sorted(A.letters)
        assert T.root.height == pytest.approx(1.0)
        for a, b in itertools.combinations(A.letters, 2):
            assert T.distance(a, b) == pytest.approx(m[A.index_of(a), A.index_of(b)])

    def test_three_leaf_shape(self, three_leaf_tree):
        A = three_leaf_tree.alphabet
        D = tree_to_distance(three_leaf_tree)
        assert D.value("a2", "a3") == pytest.approx(0.4)
        assert D.value("a1", "a2") == pytest.approx(1.0)
        rebuilt = tree_from_distance(D)
        assert tree_equal(rebuilt, three_leaf_tree)

    def test_not_ultrametric_raises_with_witness(self):
        A = Alphabet(("a", "b", "c"))
        D = DistanceMatrix(A, [[0, 1, 4], [1, 0, 2], [4, 2, 0]])
        with pytest.raises(NotUltrametric) as err:
            tree_from_distance(D)
        msg = str(err.value)
        assert "a" in msg and "c" in msg

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            T = random_ultrametric_tree(n, rng)
            D = tree_to_distance(T)
            assert D.is_ultrametric
            T2 = tree_from_distance(D)
            D2 = tree_to_distance(T2)
            assert np.allclose(D.matrix, D2.matrix, atol=1e-9)
            assert tree_equal(T, T2)

    def test_sibling_cross_distance_is_node_height(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            T = random_ultrametric_tree(int(rng.integers(3, 12)), rng)
            for nd, _parent in T.nodes():
                if nd.is_leaf:
                    continue
                c1, c2 = nd.children[0], nd.children[1]
                a = next(iter(c1.leaves))
                b = next(iter(c2.leaves))
                assert T.distance(a, b) == pytest.approx(nd.height)


@hst.composite
def near_ultrametric_matrices(draw) -> DistanceMatrix:
    """A matrix from random merges at non-decreasing heights drawn from a
    pool with zeros and values tied within HEIGHT_TOL, scaled, then moved
    entry by entry by up to 8e-10 of the scale: near-ties and near-violations."""
    n = draw(hst.integers(1, 9))
    pool = [0.0, 1e-10, 0.3, 0.3 + 4e-10, 0.3 + 9e-10, 0.7, 1.0 - 6e-10, 1.0, 2.5]
    m, clusters, h = np.zeros((n, n)), [[i] for i in range(n)], 0.0
    while len(clusters) > 1:
        i, j = draw(hst.lists(hst.integers(0, len(clusters) - 1), min_size=2, max_size=2, unique=True))
        h = draw(hst.sampled_from([x for x in pool if x >= h]))
        m[np.ix_(clusters[i], clusters[j])] = m[np.ix_(clusters[j], clusters[i])] = h
        clusters[min(i, j)] += clusters.pop(max(i, j))
    scale = draw(hst.sampled_from([1.0, 1e-3, 1e3]))
    jitter = np.array(draw(hst.lists(hst.sampled_from([0.0, 3e-10, -3e-10, 8e-10]), min_size=n * n, max_size=n * n)))
    jitter = jitter.reshape(n, n) + jitter.reshape(n, n).T
    np.fill_diagonal(jitter, 0.0)
    return DistanceMatrix(default_letters(n), np.clip(scale * (m + jitter / 2), 0.0, None))


class TestTreeFromDistanceOracle:
    """The level-block build against the pairwise cluster loop."""

    @given(near_ultrametric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_same_newick_bytes(self, D):
        assume(D.is_ultrametric)
        assert tree_to_newick(tree_from_distance(D)) == tree_to_newick(oracles.tree_from_distance_ref(D))

    @given(near_ultrametric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_builds_within_twice_the_witness_tolerance(self, D):
        """Every matrix the witness accepts builds.  A level's entries lie
        within the tolerance above its height; an entry whose letters join
        through a third one at a lower level exceeds that level's entries by
        up to the tolerance the witness allows, so not always by less."""
        assume(D.is_ultrametric)
        assert np.abs(tree_to_distance(tree_from_distance(D)).matrix - D.matrix).max() <= 2 * D._tol

    def test_entry_joined_through_a_third_letter(self):
        # one level from a-d at 0.3 - 3e-10 up to 0.3, where a takes b, c and
        # d; b-c at 0.3 + 8e-10 lies within 1e-9 of a-b and a-c but 1.1e-9
        # above the level's height
        m = np.full((4, 4), 0.3)
        m[1, 2] = m[2, 1] = 0.3 + 8e-10
        m[0, 3] = m[3, 0] = 0.3 - 3e-10
        np.fill_diagonal(m, 0.0)
        D = DistanceMatrix(default_letters(4), m)
        assert D.is_ultrametric
        assert tree_to_newick(tree_from_distance(D)) == "(a:0.14999999985,b:0.14999999985,c:0.14999999985,d:0.14999999985);"

    def test_random_trees(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            D = tree_to_distance(random_ultrametric_tree(int(rng.integers(2, 60)), rng))
            assert tree_to_newick(tree_from_distance(D)) == tree_to_newick(oracles.tree_from_distance_ref(D))


class TestTreeValidation:
    def test_leaf_heights_must_be_zero(self):
        A = Alphabet(("a", "b"))
        bad = node(1.0, [leaf("a"), leaf("b")])
        bad.children[0].height = 0.5
        with pytest.raises(ValidationError):
            UltrametricTree(A, bad)

    def test_child_above_parent_rejected(self):
        A = Alphabet(("a", "b", "c"))
        with pytest.raises(ValidationError):
            UltrametricTree(
                A,
                node(0.5, [leaf("a"), node(0.9, [leaf("b"), leaf("c")])]),
            )

    def test_leaves_must_cover_alphabet(self):
        A = Alphabet(("a", "b", "c"))
        with pytest.raises(ValidationError):
            UltrametricTree(A, node(1.0, [leaf("a"), leaf("b")]))


class TestEntropyForms:
    def test_two_cluster_uniform_is_1_2(self, two_cluster_tree, uniform4):
        for form in ALL_FORMS:
            assert form(two_cluster_tree, uniform4) == pytest.approx(1.2, abs=1e-9)

    def test_three_leaf_instance_is_1_2(self, three_leaf_tree, three_leaf_probs):
        # 1*H(.5,.5) + .5*.4*H(.5,.5) by grouping; arc and band sums agree
        for form in ALL_FORMS:
            assert form(three_leaf_tree, three_leaf_probs) == pytest.approx(
                1.2, abs=1e-9
            )

    def test_band_decomposition_of_three_leaf(self, three_leaf_tree, three_leaf_probs):
        expected = 0.6 * entropy((0.5, 0.5)) + 0.4 * entropy((0.5, 0.25, 0.25))
        assert hu_bandwise(three_leaf_tree, three_leaf_probs) == pytest.approx(
            expected, abs=1e-12
        )

    def test_uniform_distance_reduces_to_entropy(self):
        A = Alphabet(("a", "b"))
        T = tree_from_distance(DistanceMatrix(A, [[0, 1], [1, 0]]))
        assert hu_recursive(T, Distribution(A, (0.5, 0.5))) == pytest.approx(1.0)

    def test_star_tree_gives_classical_entropy(self):
        A = Alphabet(("a", "b", "c", "d"))
        T = tree_from_distance(DistanceMatrix(A, np.ones((4, 4)) - np.eye(4)))
        P = Distribution(A, (0.4, 0.3, 0.2, 0.1))
        for form in ALL_FORMS:
            assert form(T, P) == pytest.approx(entropy(P.probs), abs=1e-12)

    def test_point_mass_gives_zero(self, two_cluster_tree, abcd):
        P = Distribution(abcd, (1.0, 0.0, 0.0, 0.0))
        for form in ALL_FORMS:
            assert form(two_cluster_tree, P) == pytest.approx(0.0, abs=1e-12)

    def test_within_vs_across_cluster_contrast(self, abcd):
        """A 50/50 split inside a height-0 cluster is order, across clusters
        is a full bit of randomness."""
        m = np.array(
            [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=float
        )
        T = tree_from_distance(DistanceMatrix(abcd, m))
        within = Distribution(abcd, (0.5, 0.5, 0.0, 0.0))
        across = Distribution(abcd, (0.5, 0.0, 0.5, 0.0))
        assert hu_recursive(T, within) == pytest.approx(0.0, abs=1e-12)
        assert hu_recursive(T, across) == pytest.approx(1.0, abs=1e-12)

    def test_zero_height_internal_nodes_contribute_zero(self):
        A = Alphabet(("a", "b", "c"))
        T = UltrametricTree(
            A, node(1.0, [leaf("a"), node(0.0, [leaf("b"), leaf("c")])])
        )
        P = Distribution(A, (0.5, 0.25, 0.25))
        assert hu_nodewise(T, P) == pytest.approx(1.0)

    def test_agreement_with_grouping_oracle_random(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 14))
            T = random_ultrametric_tree(n, rng)
            P = random_distribution(T.alphabet, rng)
            D = tree_to_distance(T)
            ref = oracles.hu_grouping_recursion(
                T.alphabet.letters, oracles.dist_dict(D), P.as_mapping()
            )
            for form in ALL_FORMS:
                assert form(T, P) == pytest.approx(ref, abs=1e-9)

    def test_four_forms_agree_random(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            T = random_ultrametric_tree(n, rng)
            P = random_distribution(T.alphabet, rng)
            vals = [form(T, P) for form in ALL_FORMS]
            for v in vals[1:]:
                assert v == pytest.approx(vals[0], abs=1e-9)

    def test_bounded_by_classical_entropy(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            T = random_ultrametric_tree(int(rng.integers(2, 20)), rng)
            P = random_distribution(T.alphabet, rng)
            hu = hu_arcwise(T, P)
            assert -1e-12 <= hu <= entropy(P.probs) + 1e-9


    def test_forms_agree_on_deep_banded_tree(self):
        # banding adds a level per distinct internal height, so the banded
        # tree of 350 random leaves is several hundred levels deep
        rng = np.random.default_rng(350)
        T = random_ultrametric_tree(350, rng)
        P = random_distribution(T.alphabet, rng)
        values = [form(T, P) for form in ALL_FORMS]
        assert max(values) - min(values) <= 1e-12


class TestBanding:
    def test_idempotent(self, three_leaf_tree):
        B1 = band(three_leaf_tree)
        B2 = band(B1)
        assert tree_equal(B1, B2)

    def test_inserts_passthrough_at_internal_heights(self, three_leaf_tree):
        B = band(three_leaf_tree)
        # a1's arc from height 1 to 0 must now pass a node at height 0.4
        heights = sorted(
            nd.height for nd, _ in B.nodes() if not nd.is_leaf
        )
        assert heights == pytest.approx([0.4, 0.4, 1.0])

    def test_every_root_leaf_path_hits_every_level(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            T = random_ultrametric_tree(int(rng.integers(3, 12)), rng)
            B = band(T)
            levels = sorted({round(nd.height, 12) for nd, _ in B.nodes() if not nd.is_leaf})

            def path_heights(nd, acc):
                if nd.is_leaf:
                    yield acc
                    return
                for c in nd.children:
                    yield from path_heights(c, acc + [round(nd.height, 12)])

            for ph in path_heights(B.root, []):
                assert set(levels) <= set(ph)

    def test_groups_heights_within_the_tree_tolerance(self):
        """Under a height-1000 root the tolerance is 1e-6, so band puts no
        pass-through node at 1 + 5e-7 over the cherry at 1, and only one,
        at 1, over the leaf e; the bands are cut at the exact heights."""
        cherries = [node(1.0, [leaf("a"), leaf("b")]), node(1.0 + 5e-7, [leaf("c"), leaf("d")])]
        T = UltrametricTree(default_letters(5), node(1000.0, [*cherries, leaf("e")]))
        B = band(T)
        assert T._tol == pytest.approx(1e-6)
        assert tree_to_newick(B) == "((a:0.5,b:0.5):499.5,(c:0.50000025,d:0.50000025):499.49999975,(e:0.5):499.5);"
        assert [nd.height for nd, _ in B.nodes() if not nd.is_leaf] == [1000.0, 1.0, 1.0000005, 1.0]
        T4 = UltrametricTree(default_letters(4), node(1000.0, cherries))
        P = Distribution(T4.alphabet, [0.25] * 4)
        assert hu_arcwise(T4, P) == 1001.0000002500001
        assert hu_bandwise(T4, P) == 1001.00000025
        assert abs(hu_bandwise(T4, P) - hu_arcwise(T4, P)) <= 1e-12 * T4.height

    @pytest.mark.parametrize("offsets", [(2.4e-9, 2.6e-9), (0.9e-9, 1.1e-9)])
    def test_cherries_tied_within_the_tolerance(self, offsets):
        """Cherries at 1, 1 + d1 and 1 + d2 under a height-2.5 root, whose
        tolerance is 2.5e-9: the middle height lies within it of both others."""
        cherries = [
            node(1.0 + d, [leaf(a), leaf(b)]) for d, (a, b) in zip((0.0, *offsets), ("ab", "cd", "ef"))
        ]
        T = UltrametricTree(default_letters(6), node(2.5, cherries))
        P = Distribution(T.alphabet, [1 / 6] * 6)
        B = band(T)
        assert isinstance(B, UltrametricTree)
        assert abs(hu_arcwise(B, P) - hu_arcwise(T, P)) <= 1e-12
        values = [form(T, P) for form in ALL_FORMS]
        assert max(values) - min(values) <= 1e-12

    def test_node_above_its_near_zero_parent(self):
        T = parse_newick(INVERTED_NEWICK, lengths="L")
        assert isinstance(band(T), UltrametricTree)
        assert to_partition_structure(T).is_normalized

    def test_entropy_invariant(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            T = random_ultrametric_tree(int(rng.integers(2, 15)), rng)
            P = random_distribution(T.alphabet, rng)
            assert hu_arcwise(band(T), P) == pytest.approx(
                hu_arcwise(T, P), abs=1e-9
            )


@hst.composite
def near_tied_cases(draw) -> tuple:
    """A ``grid_tree``, at height 1 or rescaled to 1000, and a random
    distribution with some probabilities set to 5e-324, then renormalized."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    n = draw(hst.integers(2, 30))
    T = grid_tree(n, rng).rescaled(draw(hst.sampled_from([1.0, 1000.0])))
    p = rng.dirichlet(np.ones(n))
    p[draw(hst.lists(hst.booleans(), min_size=n, max_size=n))] = 5e-324
    return T, Distribution(T.alphabet, (p / p.sum()).tolist())


@hst.composite
def inverted_arc_trees(draw) -> UltrametricTree:
    """A ``grid_tree`` whose internal nodes of height 0 are lifted to
    heights up to 1.5e-9, so a node may sit up to the tolerance above a
    parent that lies below it."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    T = grid_tree(draw(hst.integers(3, 30)), rng)

    def lift(nd, ph: float):
        if nd.is_leaf:
            return nd
        h = nd.height
        if h == 0.0:
            h = draw(hst.sampled_from([0.0, 3e-10, 8e-10, 1.5e-9]))
            if h > ph + 1e-9 or (ph > 1e-9 and h >= ph - 1e-9):  # the validator's rules at height 1
                h = 0.0
        return node(h, [lift(c, h) for c in nd.children])

    return UltrametricTree(T.alphabet, lift(T.root, math.inf))


class TestNearTiedCrossCheck:
    """The four forms, banding and the banded structure on trees whose
    heights tie within the tolerance."""

    @given(near_tied_cases())
    @settings(max_examples=300, deadline=None)
    def test_forms_band_and_structure_agree(self, case):
        T, P = case
        B = band(T)
        values = [form(T, P) for form in ALL_FORMS] + [hu_arcwise(B, P)]
        if T.height == 1.0:
            values.append(h_s(StructuredAlphabet(P, to_partition_structure(T))))
        assert max(values) - min(values) <= 1e-12 * max(1.0, T.height)
        assert tree_equal(band(B), B)

    @given(inverted_arc_trees(), hst.sampled_from([1.0, 1000.0]))
    @settings(max_examples=150, deadline=None)
    def test_inverted_arcs_band(self, T, height):
        band(T.rescaled(height))
        to_partition_structure(T)


class TestToPartitionStructure:
    def test_two_cluster_bands(self, two_cluster_tree):
        S = to_partition_structure(two_cluster_tree)
        by_len = {len(s): m for s, m in S.items()}
        assert by_len[4] == pytest.approx(0.2)  # singletons band
        assert by_len[2] == pytest.approx(0.8)  # cluster band
        assert S.is_normalized and S.is_separating

    def test_star_tree_gives_traditional(self):
        A = Alphabet(("a", "b", "c"))
        T = tree_from_distance(DistanceMatrix(A, np.ones((3, 3)) - np.eye(3)))
        S = to_partition_structure(T)
        assert S == type(S).traditional(A)

    def test_hierarchical_chain(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            T = random_ultrametric_tree(int(rng.integers(2, 12)), rng)
            parts = [s for s, _ in to_partition_structure(T).items()]
            # sort finest-first by block count and check the refinement chain
            parts.sort(key=len, reverse=True)
            from structent import refines

            for finer, coarser in zip(parts, parts[1:]):
                assert refines(finer, coarser)

    def test_matches_banded_structure_oracle(self):
        rng = np.random.default_rng(19)
        trees = [random_ultrametric_tree(int(rng.integers(2, 30)), rng) for _ in range(30)]
        trees += [grid_tree(int(rng.integers(2, 30)), rng) for _ in range(60)]
        assert any(nd.height == 0.0 for T in trees for nd, _ in T.nodes() if not nd.is_leaf)
        for T in trees:
            want = oracles.banded_structure_ref(tree_to_distance(T))
            got = {
                frozenset(map(frozenset, s.components)): m
                for s, m in to_partition_structure(T).items()
            }
            assert len(got) == len(want)
            for blocks, width in want:
                assert got[blocks] == pytest.approx(width, abs=1e-8)

    def test_pass_through_root_drops_its_one_block_band(self):
        # the band above the cherry has one block: it splits no letters
        A = Alphabet(("a", "b"))
        T = UltrametricTree(A, TreeNode(height=1.0, children=(node(0.5, [leaf("a"), leaf("b")]),), passthrough=True))
        P = Distribution.uniform(A)
        S = to_partition_structure(T)
        assert S == PartitionStructure(A, [(Partition.singletons(A), 0.5)])
        assert hu_arcwise(T, P) == hu_bandwise(T, P) == 0.5
        assert h_s(StructuredAlphabet(P, S)) == pytest.approx(hu_arcwise(T, P), abs=1e-15)

    def test_non_normalized_tree_rejected(self, abcd):
        T = UltrametricTree(
            abcd,
            node(
                0.5,
                [
                    node(0.2, [leaf("a"), leaf("b")]),
                    node(0.2, [leaf("c"), leaf("d")]),
                ],
            ),
        )
        from structent import NotNormalized

        with pytest.raises(NotNormalized):
            to_partition_structure(T)


class TestDeepTrees:
    """A caterpillar on n leaves is n - 1 levels deep, so none of these may
    recurse once per level."""

    N = 2000

    def test_caterpillar_forms_agree(self, caterpillar):
        T = caterpillar(self.N)
        assert sum(1 for _ in T.nodes()) == 2 * self.N - 1
        P = random_distribution(T.alphabet, np.random.default_rng(self.N))
        values = [form(T, P) for form in ALL_FORMS]
        assert max(values) - min(values) <= 1e-12

    def test_caterpillar_distance_closed_form(self, caterpillar):
        T = caterpillar(self.N)
        k = np.arange(self.N)
        want = np.maximum.outer(k, k) / (self.N - 1)
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(tree_to_distance(T).matrix, want)

    def test_caterpillar_structure_and_newick(self, caterpillar):
        T = caterpillar(self.N)
        P = random_distribution(T.alphabet, np.random.default_rng(self.N))
        S = to_partition_structure(T)
        assert len(S) == self.N - 1
        assert h_s(StructuredAlphabet(P, S)) == pytest.approx(hu_arcwise(T, P), abs=1e-12)
        text = tree_to_newick(T)
        assert text.endswith(";") and text.count(",") == self.N - 1

    def test_caterpillar_tree_equal(self, caterpillar):
        T = caterpillar(self.N)
        assert tree_equal(T, T) and tree_equal(T, caterpillar(self.N))
        # the same chain with the third-lowest node raised a little
        A = T.alphabet
        heights = [k / (self.N - 1) for k in range(1, self.N)]
        heights[2] += 0.5 / (self.N - 1)
        nd = leaf(A.letters[0])
        for k, h in enumerate(heights, start=1):
            nd = node(h, [nd, leaf(A.letters[k])])
        assert not tree_equal(T, UltrametricTree(A, nd))

    def test_caterpillar_newick_round_trip(self, caterpillar):
        T = caterpillar(self.N)
        for lengths in ("arc", "L"):
            back = parse_newick(tree_to_newick(T, lengths=lengths), lengths=lengths)
            assert back.alphabet == T.alphabet
            assert tree_equal(back, T)

    def test_band_on_deep_caterpillar(self, caterpillar):
        # the banded tree of a caterpillar grows with the square of its depth
        # (500 500 nodes at 1000 leaves); 400 levels are already past the
        # default recursion limit for a walk of three frames per level
        n = 400
        T = caterpillar(n)
        B = band(T)
        assert sum(1 for _ in B.nodes()) == 2 * n - 1 + (n - 1) * (n - 2) // 2
        P = random_distribution(T.alphabet, np.random.default_rng(n))
        assert hu_arcwise(B, P) == pytest.approx(hu_arcwise(T, P), abs=1e-12)


class TestSetDistance:
    def test_conditional_weighting(self, two_cluster_distance, abcd):
        P = Distribution(abcd, (0.1, 0.4, 0.25, 0.25))
        # D({a,b},{c,d}) = 1 regardless of weights (all cross pairs are 1)
        assert set_distance(two_cluster_distance, P, ("a", "b"), ("c", "d")) == (
            pytest.approx(1.0)
        )
        # D({a},{b,c}): weights on b,c are .4/.65, .25/.65 over distances .2, 1
        expected = (0.4 * 0.2 + 0.25 * 1.0) / 0.65
        assert set_distance(two_cluster_distance, P, ("a",), ("b", "c")) == (
            pytest.approx(expected)
        )

    def test_zero_mass_side_uses_uniform_weights(self, two_cluster_distance, abcd):
        P = Distribution(abcd, (1.0, 0.0, 0.0, 0.0))
        assert set_distance(two_cluster_distance, P, ("a",), ("b", "c")) == (
            pytest.approx((0.2 + 1.0) / 2)
        )


class TestMinimality:
    def test_natural_partition_achieves_equality(self, two_cluster_tree, uniform4):
        Y = Partition(two_cluster_tree.alphabet, [("a", "b"), ("c", "d")])
        lhs, rhs = check_binary_partition_minimality(two_cluster_tree, uniform4, Y)
        assert lhs == pytest.approx(1.2, abs=1e-9)
        assert rhs == pytest.approx(lhs, abs=1e-9)

    def test_all_binary_partitions_of_worked_instance(self, two_cluster_tree, uniform4):
        A = two_cluster_tree.alphabet
        letters = A.letters
        for k in range(1, 3):
            for left in itertools.combinations(letters, k):
                right = tuple(x for x in letters if x not in left)
                if k == 2 and left > right:
                    continue
                Y = Partition(A, [left, right])
                lhs, rhs = check_binary_partition_minimality(
                    two_cluster_tree, uniform4, Y
                )
                assert lhs == pytest.approx(1.2, abs=1e-9)
                assert lhs <= rhs + 1e-9

    def test_exhaustive_small_random(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            T = random_ultrametric_tree(n, rng)
            P = random_distribution(T.alphabet, rng)
            letters = T.alphabet.letters
            lhs_expected = hu_arcwise(T, P)
            for k in range(1, n // 2 + 1):
                for left in itertools.combinations(letters, k):
                    right = tuple(x for x in letters if x not in left)
                    if len(left) == len(right) and left > right:
                        continue
                    Y = Partition(T.alphabet, [left, right])
                    lhs, rhs = check_binary_partition_minimality(T, P, Y)
                    assert lhs == pytest.approx(lhs_expected, abs=1e-9)
                    assert lhs <= rhs + 1e-9

    def test_two_letter_equality(self):
        A = Alphabet(("a", "b"))
        T = tree_from_distance(DistanceMatrix(A, [[0, 0.7], [0.7, 0]]))
        P = Distribution(A, (0.3, 0.7))
        Y = Partition(A, [("a",), ("b",)])
        lhs, rhs = check_binary_partition_minimality(T, P, Y)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_zero_mass_side_raises(self, two_cluster_tree, abcd):
        P = Distribution(abcd, (0.5, 0.5, 0.0, 0.0))
        Y = Partition(abcd, [("a", "b"), ("c", "d")])
        with pytest.raises(ZeroMassSide):
            check_binary_partition_minimality(two_cluster_tree, P, Y)


class TestRescaling:
    def test_normalized(self):
        rng = np.random.default_rng(19)
        T = random_ultrametric_tree(8, rng, normalized=False)
        N = T.normalized()
        assert N.is_normalized
        # distances scale uniformly
        a, b = N.alphabet.letters[0], N.alphabet.letters[1]
        assert N.distance(a, b) * T.height == pytest.approx(T.distance(a, b))
