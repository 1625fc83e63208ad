"""Concordance of splits with partitions, split merit, and induced state distances."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from structent import (
    Alphabet,
    BinarySplit,
    DegenerateSplit,
    Distribution,
    EmptySubset,
    LinearAlphabet,
    Partition,
    PartitionStructure,
    StructuredAlphabet,
    ValidationError,
    combine,
    concordance,
    d_hat,
    d_hat_via_entropy_gap,
    entropy,
    grouping_decompose,
    h_s,
    join,
    linear_structure,
    reduced_probs,
    refines,
    state_distance,
    state_distance_matrix,
    to_partition_structure,
    tree_to_distance,
)
from structent.sampling import (
    default_letters,
    random_distribution,
    random_partition,
    random_structure,
    random_ultrametric_tree,
)


def random_split(A: Alphabet, rng) -> BinarySplit:
    letters = list(A.letters)
    size = int(rng.integers(1, len(letters)))
    left = set(rng.choice(len(letters), size=size, replace=False).tolist())
    return BinarySplit(
        [letters[i] for i in left],
        [l for i, l in enumerate(letters) if i not in left],
    )


class TestBinarySplit:
    def test_rejects_empty_and_overlap(self, abcd):
        with pytest.raises(EmptySubset):
            BinarySplit([], ["a"])
        with pytest.raises(ValidationError):
            BinarySplit(["a", "b"], ["b", "c"])

    def test_as_partition(self, abcd):
        t = BinarySplit(["a", "b"], ["c", "d"])
        assert t.as_partition(abcd) == Partition(abcd, [("a", "b"), ("c", "d")])


class TestConcordance:
    def test_refining_partition_scores_one(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            A = default_letters(int(rng.integers(3, 8)))
            P = random_distribution(A, rng)
            t = random_split(A, rng).as_partition(A)
            s = join(t, random_partition(A, rng))  # refines t by construction
            if entropy(reduced_probs(P, t)) <= 0.0:
                continue
            assert concordance(t, s, P) == pytest.approx(1.0, abs=1e-12)

    def test_self_concordance_is_one(self, abcd, uniform4):
        t = Partition(abcd, [("a", "b"), ("c", "d")])
        assert concordance(t, t, uniform4) == pytest.approx(1.0, abs=1e-12)

    def test_independent_partitions_score_zero(self, abcd, uniform4):
        t = Partition(abcd, [("a", "b"), ("c", "d")])
        s = Partition(abcd, [("a", "c"), ("b", "d")])
        assert concordance(t, s, uniform4) == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            t = random_split(A, rng).as_partition(A)
            s = random_partition(A, rng)
            if entropy(reduced_probs(P, t)) <= 0.0:
                continue
            assert -1e-12 <= concordance(t, s, P) <= 1.0 + 1e-12

    def test_degenerate_split_rejected(self, abcd):
        P = Distribution(abcd, (0.5, 0.5, 0.0, 0.0))
        t = Partition(abcd, [("a", "b"), ("c", "d")])
        s = Partition(abcd, [("a",), ("b",), ("c",), ("d",)])
        with pytest.raises(DegenerateSplit):
            concordance(t, s, P)

    def test_tiny_block_worked_value(self, abcd):
        # the old numerator H(s) - H(s join t) + H(t) was a difference of O(1)
        # terms over H(t) ~ 1e-297: it gave -1.114e281
        P = Distribution(abcd, [1e-300, 0.1, 0.2, 0.7])
        t = Partition(abcd, [["a"], ["b", "c", "d"]])
        s = Partition(abcd, [["a", "c"], ["b", "d"]])
        assert concordance(t, s, P) == pytest.approx(oracles.concordance_decimal(t, s, P), abs=1e-12)
        assert concordance(t, s, P) == pytest.approx(0.0023265320144, abs=1e-12)

    @pytest.mark.parametrize("tiny_first", [True, False])
    def test_tiny_blocks_of_three_match_decimal_oracle(self, tiny_first):
        # t = {x} | {y} | rest with P(x) = 1e-300 and P(y) = 1e-250, so H(t) is
        # tiny; x and y are the first or the last letters
        rng = np.random.default_rng(48 + tiny_first)
        for _ in range(20):
            A = default_letters(int(rng.integers(4, 8)))
            x, y = (0, 1) if tiny_first else (len(A) - 1, len(A) - 2)
            probs = rng.dirichlet(np.ones(len(A)))
            probs[x], probs[y] = 1e-300, 1e-250
            P = Distribution(A, probs, renormalize=True)
            rest = [a for i, a in enumerate(A.letters) if i not in (x, y)]
            t = Partition(A, [[A.letters[x]], [A.letters[y]], rest])
            s = random_partition(A, rng)
            ref = oracles.concordance_decimal(t, s, P)
            assert concordance(t, s, P) == pytest.approx(ref, abs=1e-12)
            assert -1e-12 <= ref <= 1.0 + 1e-12

    def test_join_entropy_sandwich(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            A = default_letters(int(rng.integers(2, 9)))
            P = random_distribution(A, rng)
            s = random_partition(A, rng)
            t = random_partition(A, rng)
            hs_ = entropy(reduced_probs(P, s))
            ht = entropy(reduced_probs(P, t))
            hj = entropy(reduced_probs(P, join(s, t)))
            assert hs_ - 1e-12 <= hj <= hs_ + ht + 1e-12


class TestDHat:
    def test_worked_pair_split(self, abcd, uniform4, mixed_structure):
        t = BinarySplit(["a", "b"], ["c", "d"])
        assert d_hat(t, mixed_structure, uniform4) == pytest.approx(1.0, abs=1e-12)

    def test_worked_cross_split(self, abcd, uniform4, mixed_structure):
        t = BinarySplit(["a", "c"], ["b", "d"])
        assert d_hat(t, mixed_structure, uniform4) == pytest.approx(0.6, abs=1e-12)

    def test_traditional_structure_always_one(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            t = random_split(A, rng)
            if P.mass(t.left) <= 0.0 or P.mass(t.right) <= 0.0:
                continue
            S = PartitionStructure.traditional(A)
            assert d_hat(t, S, P) == pytest.approx(1.0, abs=1e-12)

    def test_matches_entropy_gap_form(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            A = default_letters(int(rng.integers(2, 9)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng, normalized=bool(rng.integers(0, 2)))
            t = random_split(A, rng)
            if P.mass(t.left) <= 1e-9 or P.mass(t.right) <= 1e-9:
                continue
            assert d_hat(t, S, P) == pytest.approx(
                d_hat_via_entropy_gap(t, S, P), abs=1e-9
            )

    def test_entropy_gap_worked_value(self, abcd, uniform4, mixed_structure):
        t = BinarySplit(["a", "b"], ["c", "d"])
        # (1.6 - 2 * .5 * .6) / 1
        assert d_hat_via_entropy_gap(t, mixed_structure, uniform4) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_two_letter_alphabet(self):
        A = Alphabet(("a", "b"))
        P = Distribution(A, (0.3, 0.7))
        S = PartitionStructure.traditional(A)
        t = BinarySplit(["a"], ["b"])
        expected = entropy(P.probs) / entropy(P.probs)
        assert d_hat_via_entropy_gap(t, S, P) == pytest.approx(expected, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng, normalized=False)
            t = random_split(A, rng)
            if P.mass(t.left) <= 0.0 or P.mass(t.right) <= 0.0:
                continue
            v = d_hat(t, S, P)
            assert -1e-12 <= v <= S.total_measure + 1e-9
            refining = math.fsum(
                m
                for s, m in S.items()
                if refines(s, t.as_partition(A))
            )
            assert v >= refining - 1e-9

    def test_single_partition_bound_and_equality(self, abcd, uniform4):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        S = PartitionStructure(abcd, [(s, 0.7)])
        aligned = BinarySplit(["a", "b"], ["c", "d"])
        crossed = BinarySplit(["a", "c"], ["b", "d"])
        assert d_hat(aligned, S, uniform4) == pytest.approx(0.7, abs=1e-12)
        assert d_hat(crossed, S, uniform4) <= 0.7 + 1e-12

    def test_additive_in_structure(self):
        rng = np.random.default_rng(46)
        for _ in range(60):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            S1 = random_structure(A, rng)
            S2 = random_structure(A, rng)
            t = random_split(A, rng)
            if P.mass(t.left) <= 0.0 or P.mass(t.right) <= 0.0:
                continue
            assert d_hat(t, combine(S1, S2), P) == pytest.approx(
                d_hat(t, S1, P) + d_hat(t, S2, P), abs=1e-9
            )

    def test_partial_split_conditions_on_union(self):
        A = default_letters(5)
        P = Distribution.uniform(A)
        S = PartitionStructure.traditional(A)
        t = BinarySplit([A.letters[0]], [A.letters[1]])
        assert d_hat(t, S, P) == pytest.approx(1.0, abs=1e-12)


    def test_tiny_side_worked_value(self, abcd):
        # the old numerator H(s) - H(s join t) + H(t) was a difference of O(1)
        # terms over H(t) ~ 1e-297: it gave -1.114e281
        P = Distribution(abcd, [1e-300, 0.1, 0.2, 0.7])
        S = PartitionStructure(abcd, [(Partition(abcd, [["a", "c"], ["b", "d"]]), 1.0)])
        for t in (BinarySplit(["a"], ["b", "c", "d"]), BinarySplit(["b", "c", "d"], ["a"])):
            assert d_hat(t, S, P) == pytest.approx(oracles.d_hat_decimal(t.left, t.right, S, P), abs=1e-12)
            assert d_hat(t, S, P) == pytest.approx(0.0023265320144, abs=1e-12)

    @pytest.mark.parametrize("tiny", [1e-12, 1e-30, 1e-300])
    @pytest.mark.parametrize("tiny_on_left", [True, False])
    def test_tiny_side_matches_decimal_oracle(self, tiny, tiny_on_left):
        rng = np.random.default_rng(int(-math.log10(tiny)) + tiny_on_left)
        for _ in range(15):
            A = default_letters(int(rng.integers(3, 8)))
            probs = rng.dirichlet(np.ones(len(A)))
            probs[0] = tiny
            P = Distribution(A, probs, renormalize=True)
            S = random_structure(A, rng, normalized=bool(rng.integers(0, 2)))
            rest = [a for a in A.letters[1:] if rng.integers(0, 3)] or [A.letters[1]]  # may not cover A
            t = BinarySplit([A.letters[0]], rest) if tiny_on_left else BinarySplit(rest, [A.letters[0]])
            ref = oracles.d_hat_decimal(t.left, t.right, S, P)
            assert d_hat(t, S, P) == pytest.approx(ref, abs=1e-12)
            assert -1e-12 <= ref <= S.total_measure + 1e-12


class TestGroupingDecompose:
    def test_worked_identity(self, abcd, uniform4, mixed_structure):
        X = StructuredAlphabet(uniform4, mixed_structure)
        t = BinarySplit(["a", "b"], ["c", "d"])
        merit, parts = grouping_decompose(t, X)
        assert merit == pytest.approx(1.0, abs=1e-12)
        assert parts[0] == pytest.approx(0.6, abs=1e-12)
        assert parts[1] == pytest.approx(0.6, abs=1e-12)
        assert 1.6 == pytest.approx(merit * 1.0 + 0.5 * parts[0] + 0.5 * parts[1])

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            A = default_letters(int(rng.integers(2, 9)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng, normalized=bool(rng.integers(0, 2)))
            t = random_split(A, rng)
            if P.mass(t.left) <= 1e-9 or P.mass(t.right) <= 1e-9:
                continue
            X = StructuredAlphabet(P, S)
            merit, parts = grouping_decompose(t, X)
            ht = entropy(
                (P.mass(t.left), P.mass(t.right))
            )
            recomposed = merit * ht + math.fsum(
                P.mass(side) * part
                for side, part in zip((t.left, t.right), parts)
            )
            assert h_s(X) == pytest.approx(recomposed, abs=1e-9)

    def test_ultrametric_root_split_recovers_band_term(self, two_cluster_tree, uniform4):
        S = to_partition_structure(two_cluster_tree)
        X = StructuredAlphabet(uniform4, S)
        t = BinarySplit(["a", "b"], ["c", "d"])
        merit, _ = grouping_decompose(t, X)
        # the root band has measure .8 and the natural root partition is t
        assert merit * 1.0 == pytest.approx(0.8 * 1.0 + 0.2 * 1.0, abs=1e-12)


class TestStateDistance:
    def test_diagonal_zero(self, mixed_structure):
        assert state_distance("a", "a", mixed_structure) == 0.0

    def test_two_cluster_worked_values(self, two_cluster_tree):
        S = to_partition_structure(two_cluster_tree)
        assert state_distance("a", "b", S) == pytest.approx(0.2, abs=1e-12)
        assert state_distance("a", "c", S) == pytest.approx(1.0, abs=1e-12)

    def test_reconstructs_ultrametric_distances(self):
        rng = np.random.default_rng(48)
        for _ in range(40):
            T = random_ultrametric_tree(int(rng.integers(2, 12)), rng)
            S = to_partition_structure(T)
            got = state_distance_matrix(S)
            want = tree_to_distance(T)
            assert np.allclose(got.matrix, want.matrix, atol=1e-9)
            assert got.is_ultrametric

    def test_linear_structure_gives_absolute_difference(self):
        pts = (0.0, 0.15, 0.4, 0.75, 1.0)
        S = linear_structure(LinearAlphabet(pts))
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert state_distance(
                    S.alphabet.letters[i], S.alphabet.letters[j], S
                ) == pytest.approx(abs(x - y), abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(49)
        for _ in range(40):
            A = default_letters(int(rng.integers(3, 8)))
            S = random_structure(A, rng, normalized=False)
            M = state_distance_matrix(S).matrix
            assert np.allclose(M, M.T)
            assert np.all(np.diag(M) == 0.0)
            assert np.all(M >= -1e-12)
            n = len(A.letters)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert M[i, j] <= M[i, k] + M[k, j] + 1e-12

    def test_matches_d_hat_on_ambient_pair(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            A = default_letters(int(rng.integers(2, 8)))
            S = random_structure(A, rng, normalized=False)
            a, b = (A.letters[i] for i in rng.choice(len(A.letters), 2, replace=False))
            expected = state_distance(a, b, S)
            if expected <= 0.0:
                continue
            P = Distribution.uniform(A)
            assert d_hat(BinarySplit([a], [b]), S, P) == pytest.approx(
                expected, abs=1e-9
            )

    def test_matrix_equals_oracle_exactly(self):
        # the matrix sums measures in partition order, as the oracle does
        rng = np.random.default_rng(52)
        for _ in range(40):
            A = default_letters(int(rng.integers(2, 12)))
            S = random_structure(A, rng, max_partitions=8, normalized=bool(rng.integers(2)))
            M = state_distance_matrix(S).matrix
            want = [[oracles.state_distance_ref(a, b, S) for b in A.letters] for a in A.letters]
            assert np.array_equal(M, want)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            A = default_letters(int(rng.integers(2, 8)))
            S = random_structure(A, rng, normalized=False)
            M = state_distance_matrix(S).matrix
            for i, a in enumerate(A.letters):
                for j, b in enumerate(A.letters):
                    assert M[i, j] == pytest.approx(
                        oracles.state_distance_ref(a, b, S), abs=1e-12
                    )
