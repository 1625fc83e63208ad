"""Alphabets, distributions, partitions, and the partition-structure algebra."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from structent import (
    Alphabet,
    AlphabetMismatch,
    Distribution,
    JointDistribution,
    Partition,
    PartitionStructure,
    StructuredAlphabet,
    StructuredJoint,
    ValidationError,
    ZeroMassSubset,
    build_q,
    combine,
    d_kl_s,
    h_s,
    h_s_joint,
    join,
    merge_inseparable,
    power_structure,
    product_structure,
    reduce,
    reduced_probs,
    refines,
    restrict_distribution,
    restrict_structure,
    state_distance,
)
from structent.sampling import random_partition, random_structure


def P(alpha, *probs):
    return Distribution(alpha, probs)


class TestAlphabet:
    def test_letters_keep_insertion_order(self):
        A = Alphabet(("z", "a", "m"))
        assert A.letters == ("z", "a", "m")
        assert [A.index_of(x) for x in "zam"] == [0, 1, 2]

    def test_duplicate_letters_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet(())


class TestDistribution:
    def test_sum_tolerance(self):
        A = Alphabet(("a", "b"))
        Distribution(A, (0.5, 0.499999999))  # within 1e-9
        with pytest.raises(ValidationError):
            Distribution(A, (0.5, 0.49))

    def test_explicit_renormalize(self):
        A = Alphabet(("a", "b"))
        d = Distribution(A, (1.0, 1.0), renormalize=True)
        assert d.probs == (0.5, 0.5)

    def test_negative_rejected(self):
        A = Alphabet(("a", "b"))
        with pytest.raises(ValidationError):
            Distribution(A, (1.5, -0.5))

    def test_overflowing_sum_rejected(self):
        # finite entries whose fsum overflows: a ValidationError, not an OverflowError
        A = Alphabet(("a", "b"))
        for renormalize in (False, True):
            with pytest.raises(ValidationError, match="sum of the probabilities overflows"):
                Distribution(A, (8.98846567431158e307, 8.988465674311579e307), renormalize=renormalize)

    def test_mass(self):
        A = Alphabet(("a", "b", "c"))
        d = P(A, 0.2, 0.3, 0.5)
        assert d.mass(("a", "c")) == pytest.approx(0.7)


class TestRestrictDistribution:
    def test_symmetric_split(self):
        A = Alphabet(("a", "b", "c"))
        r = restrict_distribution(P(A, 0.5, 0.25, 0.25), ("b", "c"))
        assert r.probs == pytest.approx((0.5, 0.5))

    def test_identity(self):
        A = Alphabet(("a", "b", "c"))
        r = restrict_distribution(P(A, 0.5, 0.25, 0.25), ("a", "b", "c"))
        assert r.probs == pytest.approx((0.5, 0.25, 0.25))

    def test_hand_normalization(self):
        A = Alphabet(("a", "b", "c"))
        r = restrict_distribution(P(A, 0.2, 0.3, 0.5), ("a", "c"))
        assert r.probs == pytest.approx((2 / 7, 5 / 7), abs=1e-15)

    def test_zero_mass_subset(self):
        A = Alphabet(("a", "b", "c"))
        with pytest.raises(ZeroMassSubset):
            restrict_distribution(P(A, 1.0, 0.0, 0.0), ("b", "c"))


class TestReduce:
    def test_pairwise_merge(self, abcd, uniform4):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        assert reduce(uniform4, s).probs == pytest.approx((0.5, 0.5))

    def test_singleton_identity(self):
        A = Alphabet(("a", "b", "c"))
        d = P(A, 0.5, 0.25, 0.25)
        assert reduce(d, Partition.singletons(A)).probs == pytest.approx(d.probs)

    def test_cross_merge(self, abcd):
        d = P(abcd, 0.1, 0.2, 0.3, 0.4)
        s = Partition(abcd, [("a", "d"), ("b", "c")])
        assert reduce(d, s).probs == pytest.approx((0.5, 0.5))

    def test_sums_to_one(self, abcd):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(4))
            d = Distribution(abcd, probs, renormalize=True)
            s = random_partition(abcd, rng)
            assert math.fsum(reduce(d, s).probs) == pytest.approx(1.0, abs=1e-12)


class TestJoinRefines:
    def test_cross_join_gives_singletons(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        t = Partition(abcd, [("a", "c"), ("b", "d")])
        assert join(s, t) == Partition.singletons(abcd)

    def test_join_idempotent(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        assert join(s, s) == s

    def test_singletons_absorb(self, abcd):
        s = Partition.singletons(abcd)
        t = Partition(abcd, [("a", "b", "c"), ("d",)])
        assert join(s, t) == s

    def test_singletons_refine_everything(self, abcd):
        t = Partition(abcd, [("a", "b", "c"), ("d",)])
        assert refines(Partition.singletons(abcd), t)

    def test_cross_partitions_do_not_refine(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        t = Partition(abcd, [("a", "c"), ("b", "d")])
        assert not refines(s, t)
        assert not refines(t, s)

    def test_refines_reflexive(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        assert refines(s, s)

    def test_lattice_laws_random(self):
        A = Alphabet(tuple("abcdefgh"))
        rng = np.random.default_rng(1)
        for _ in range(60):
            s, t, u = (random_partition(A, rng) for _ in range(3))
            assert join(s, t) == join(t, s)
            assert join(join(s, t), u) == join(s, join(t, u))
            assert join(s, s) == s
            assert refines(join(s, t), s)
            # partial order: antisymmetry and transitivity
            if refines(s, t) and refines(t, s):
                assert s == t
            if refines(s, t) and refines(t, u):
                assert refines(s, u)


class TestPartitionStructure:
    def test_duplicate_partitions_merge(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        S = PartitionStructure(abcd, [(s, 0.25), (s, 0.35)])
        assert len(S) == 1
        assert S.measure_of(s) == pytest.approx(0.6)

    def test_negative_measure_rejected(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        with pytest.raises(ValidationError):
            PartitionStructure(abcd, [(s, -0.1)])

    def test_overflowing_total_measure_rejected(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        t = Partition(abcd, [("a", "c"), ("b", "d")])
        with pytest.raises(ValidationError, match="sum of the measures overflows"):
            PartitionStructure(abcd, [(s, 1e308), (t, 1e308)])
        with pytest.raises(ValidationError, match="sum of the measures overflows"):
            PartitionStructure(abcd, [(s, 1e308), (s, 1e308)])  # merged into one infinite measure
        big = PartitionStructure(abcd, [(s, 1e200)])
        with pytest.raises(ValidationError, match="sum of the measures overflows"):
            product_structure(big, big)  # label rows rebuilt with a product measure of 1e400

    def test_flags(self, mixed_structure, abcd):
        assert mixed_structure.is_normalized
        assert mixed_structure.is_separating
        pairs_only = PartitionStructure(
            abcd, [(Partition(abcd, [("a", "b"), ("c", "d")]), 1.0)]
        )
        assert not pairs_only.is_separating  # a,b never separated

    def test_traditional(self, abcd):
        S = PartitionStructure.traditional(abcd)
        assert len(S) == 1
        assert S.is_normalized and S.is_separating


class TestRestrictStructure:
    def test_pair_partition_restriction_dropped(self, mixed_structure):
        R = restrict_structure(mixed_structure, ("a", "b"))
        assert len(R) == 1
        (s, m), = R.items()
        assert m == pytest.approx(0.6)
        assert s.components == (("a",), ("b",))

    def test_full_subset_identity(self, mixed_structure, abcd):
        assert restrict_structure(mixed_structure, abcd.letters) == mixed_structure

    def test_all_dropped_gives_empty(self):
        A = Alphabet(("a", "b", "c"))
        S = PartitionStructure(A, [(Partition(A, [("a",), ("b", "c")]), 1.0)])
        R = restrict_structure(S, ("b", "c"))
        assert len(R) == 0
        assert R.total_measure == 0.0

    def test_separating_preserved_when_pairs_were_separated(self):
        A = Alphabet(tuple("abcdef"))
        rng = np.random.default_rng(2)
        for _ in range(40):
            S = random_structure(A, rng)
            B = tuple(rng.choice(A.letters, size=3, replace=False))
            if not S.is_separating:
                continue
            R = restrict_structure(S, B)
            assert R.is_separating


class TestCombine:
    def test_same_partition_sums(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        S = combine(
            PartitionStructure(abcd, [(s, 0.6)]), PartitionStructure(abcd, [(s, 0.4)])
        )
        assert len(S) == 1 and S.measure_of(s) == pytest.approx(1.0)

    def test_disjoint_union(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        t = Partition(abcd, [("a", "c"), ("b", "d")])
        S = combine(
            PartitionStructure(abcd, [(s, 0.6)]), PartitionStructure(abcd, [(t, 0.4)])
        )
        assert len(S) == 2
        assert S.measure_of(s) == pytest.approx(0.6)
        assert S.measure_of(t) == pytest.approx(0.4)

    def test_empty_is_identity(self, mixed_structure, abcd):
        empty = PartitionStructure(abcd, [])
        assert combine(mixed_structure, empty) == mixed_structure


class TestProductAndPower:
    def test_square_measures(self, mixed_structure):
        sq = product_structure(mixed_structure, mixed_structure)
        measures = sorted(m for _, m in sq.items())
        assert measures == pytest.approx([0.16, 0.24, 0.24, 0.36])
        assert sq.total_measure == pytest.approx(1.0)

    def test_traditional_square(self, abcd):
        S = PartitionStructure.traditional(abcd)
        sq = product_structure(S, S)
        assert len(sq) == 1
        (s, m), = sq.items()
        assert m == pytest.approx(1.0)
        assert len(s) == 16  # singletons of the product alphabet

    def test_normalized_product_normalized(self, abcd):
        rng = np.random.default_rng(3)
        for _ in range(20):
            S1 = random_structure(abcd, rng, normalized=True)
            S2 = random_structure(abcd, rng, normalized=True)
            assert product_structure(S1, S2).is_normalized

    def test_total_measure_multiplies(self, abcd):
        rng = np.random.default_rng(4)
        for _ in range(20):
            S1 = random_structure(abcd, rng)
            S2 = random_structure(abcd, rng)
            prod = product_structure(S1, S2)
            assert prod.total_measure == pytest.approx(
                S1.total_measure * S2.total_measure
            )

    def test_power_two_is_the_square(self, mixed_structure):
        sq = product_structure(mixed_structure, mixed_structure)
        assert power_structure(mixed_structure, 2) == sq

    def test_power_above_three(self, mixed_structure):
        big = power_structure(mixed_structure, 4)
        assert isinstance(big, PartitionStructure)
        assert len(big) == 16
        assert big.total_measure == pytest.approx(1.0)


class TestBuildQ:
    def test_traditional(self):
        A = Alphabet(("a", "b"))
        Q = build_q(P(A, 0.3, 0.7), PartitionStructure.traditional(A))
        assert sorted(Q.q) == pytest.approx([0.3, 0.7])
        assert Q.is_probability

    def test_mixed_structure_pairs(self, uniform4, mixed_structure):
        Q = build_q(uniform4, mixed_structure)
        assert sorted(Q.q) == pytest.approx([0.15, 0.15, 0.15, 0.15, 0.2, 0.2])
        assert Q.total == pytest.approx(1.0)

    def test_non_normalized_total(self, abcd, uniform4):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        S = PartitionStructure(abcd, [(s, 2.0)])
        Q = build_q(uniform4, S)
        assert Q.total == pytest.approx(2.0)
        assert not Q.is_probability

    def test_total_equals_structure_mass_random(self, abcd, uniform4):
        rng = np.random.default_rng(5)
        for _ in range(30):
            S = random_structure(abcd, rng)
            assert build_q(uniform4, S).total == pytest.approx(
                S.total_measure, abs=1e-12
            )


class TestMergeInseparable:
    def test_merges_unseparated_pair(self, abcd):
        S = PartitionStructure(
            abcd, [(Partition(abcd, [("a", "b"), ("c", "d")]), 1.0)]
        )
        groups, merged = merge_inseparable(S)
        assert sorted(tuple(sorted(g)) for g in groups) == [("a", "b"), ("c", "d")]
        assert merged.is_separating

    def test_separating_structure_unchanged(self, mixed_structure):
        groups, merged = merge_inseparable(mixed_structure)
        assert all(len(g) == 1 for g in groups)



def tricky_structure(rng) -> PartitionStructure:
    """A random structure with some letters that no positive-measure
    partition separates, zero-measure partitions that may separate them,
    repeated partitions, and components handed over in shuffled order."""
    n = int(rng.integers(2, 10))
    A = Alphabet(tuple(f"x{i}" for i in range(n)))
    twin = np.arange(n)
    for j in rng.choice(n, size=int(rng.integers(0, n)), replace=False):
        twin[j] = twin[int(rng.integers(0, n))]
    if len(set(twin.tolist())) < 2:  # positive partitions need two blocks
        twin = np.arange(n)
    items = []
    for _ in range(int(rng.integers(1, 6))):
        zero = rng.random() < 0.3
        while True:
            lab = rng.integers(0, int(rng.integers(2, n + 1)), size=n)
            if not zero:
                lab = lab[twin]
            if len(set(lab.tolist())) >= 2:
                break
        blocks = [[A.letters[i] for i in rng.permutation(np.flatnonzero(lab == g))]
                  for g in rng.permutation(np.unique(lab))]
        items.append((Partition(A, blocks), 0.0 if zero else float(rng.uniform(0.1, 1.0))))
        if rng.random() < 0.2:
            items.append(items[int(rng.integers(0, len(items)))])
    return PartitionStructure(A, items)


def block_sets(S) -> list:
    return [(frozenset(frozenset(c) for c in s.components), m) for s, m in S.items()]


class TestLabelCore:
    """The label-matrix operations against the reference implementations in
    ``oracles`` (pairwise checks, union-find, letter-by-letter sums)."""

    def test_is_separating_matches_reference(self):
        rng = np.random.default_rng(61)
        seen = set()
        for _ in range(300):
            S = tricky_structure(rng)
            assert S.is_separating == oracles.is_separating_ref(S)
            seen.add(S.is_separating)
        assert seen == {True, False}

    def test_merge_inseparable_matches_reference(self):
        rng = np.random.default_rng(62)
        merged_some = False
        for _ in range(300):
            S = tricky_structure(rng)
            groups, merged = merge_inseparable(S)
            want_groups, want_items = oracles.merge_inseparable_ref(S)
            assert groups == want_groups
            assert merged.alphabet.letters == groups
            assert block_sets(merged) == want_items
            merged_some |= len(groups) < len(S.alphabet)
        assert merged_some

    def test_restrict_structure_matches_reference(self):
        rng = np.random.default_rng(63)
        for _ in range(300):
            S = tricky_structure(rng)
            letters = S.alphabet.letters
            B = [a for a in letters if rng.random() < 0.6] or [letters[0]]
            R = restrict_structure(S, B)
            assert R.alphabet.letters == tuple(a for a in letters if a in B)
            assert block_sets(R) == oracles.restrict_structure_ref(S, B)

    def test_reduced_probs_exact(self):
        rng = np.random.default_rng(64)
        for _ in range(300):
            S = tricky_structure(rng)
            P = Distribution(S.alphabet, rng.dirichlet(np.ones(len(S.alphabet))), renormalize=True)
            for s in S.partitions:
                assert reduced_probs(P, s) == oracles.reduced_probs_ref(P, s)

    def test_notions_match_double_sums(self):
        rng = np.random.default_rng(65)
        for _ in range(100):
            S, T = tricky_structure(rng), tricky_structure(rng)
            A = S.alphabet
            P = Distribution(A, rng.dirichlet(np.ones(len(A))), renormalize=True)
            Q = Distribution(A, rng.dirichlet(np.ones(len(A))), renormalize=True)
            X = StructuredAlphabet(P, S)
            assert h_s(X) == pytest.approx(oracles.hs_double_sum(P, S), abs=1e-12)
            assert d_kl_s(X, Q) == pytest.approx(oracles.dkl_double_sum(P, Q, S), abs=1e-12)
            for a, b in itertools.product(A.letters, repeat=2):
                assert state_distance(a, b, S) == pytest.approx(
                    oracles.state_distance_ref(a, b, S), abs=1e-12
                )
            J = JointDistribution(
                A, T.alphabet, rng.dirichlet(np.ones(len(A) * len(T.alphabet))).reshape(len(A), -1)
            )
            assert h_s_joint(StructuredJoint(J, S, T)) == pytest.approx(
                oracles.hs_joint_double_sum(J, S, T), abs=1e-12
            )

    def test_shuffled_components_give_one_row(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            S = tricky_structure(rng)
            for s in S.partitions:
                shuffled = [list(rng.permutation(c)) for c in s.components]
                t = Partition(S.alphabet, [shuffled[k] for k in rng.permutation(len(shuffled))])
                assert np.array_equal(t.labels, s.labels)
                assert t == s and hash(t) == hash(s)
                assert t.components == s.components

    def test_labels_stack_into_the_matrix(self, mixed_structure):
        assert mixed_structure.labels.tolist() == [[0, 1, 2, 3], [0, 0, 1, 1]]
        assert PartitionStructure(mixed_structure.alphabet).labels.shape == (0, 4)

    def test_unknown_letter_rejected(self, abcd):
        with pytest.raises(AlphabetMismatch):
            Partition(abcd, [("a", "b"), ("c", "z")])

@given(
    hst.integers(min_value=2, max_value=7),
    hst.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_join_refines_property(n, seed):
    A = Alphabet(tuple(f"x{i}" for i in range(n)))
    rng = np.random.default_rng(seed)
    s = random_partition(A, rng)
    t = random_partition(A, rng)
    j = join(s, t)
    assert refines(j, s) and refines(j, t)
    # join is the coarsest common refinement: any u refining both refines j
    u = random_partition(A, rng)
    if refines(u, s) and refines(u, t):
        assert refines(u, j)
