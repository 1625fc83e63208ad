"""Structure-weighted entropy, joint/conditional notions, and their identities."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from structent import (
    Alphabet,
    Distribution,
    JointDistribution,
    LinearAlphabet,
    NotNormalized,
    Partition,
    PartitionStructure,
    StructuredAlphabet,
    StructuredJoint,
    binary_entropy,
    build_q,
    combine,
    d_kl_s,
    entropy,
    h_s,
    h_s_conditional,
    h_s_joint,
    h_s_of,
    h_s_via_q,
    hu_bandwise,
    i_s,
    kl_divergence,
    linear_structure,
    power_structure,
    product_structure,
    reduced_probs,
    to_partition_structure,
)
from structent.sampling import (
    random_distribution,
    random_joint_matrix,
    random_structure,
    random_ultrametric_tree,
)


def make_joint(SA, SB, matrix):
    J = JointDistribution(SA.alphabet, SB.alphabet, matrix)
    return StructuredJoint(J, SA, SB)


def random_structured_joint(n, m, rng, normalized=True):
    from structent.sampling import default_letters

    A = default_letters(n)
    B = Alphabet(tuple(f"B{i}" for i in range(m)))
    SA = random_structure(A, rng, normalized=normalized)
    SB = random_structure(B, rng, normalized=normalized)
    J = JointDistribution(A, B, random_joint_matrix(n, m, rng))
    return StructuredJoint(J, SA, SB)


class TestKernels:
    def test_entropy_known_values(self):
        assert entropy((0.5, 0.5)) == pytest.approx(1.0)
        assert entropy((0.25,) * 4) == pytest.approx(2.0)
        assert entropy((1.0, 0.0)) == 0.0
        assert math.copysign(1.0, entropy((1.0,))) == 1.0  # +0.0, not -0.0

    def test_binary_entropy_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p))
        assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0

    def test_kl_infinite_when_support_exceeds(self):
        assert kl_divergence((0.5, 0.5), (1.0, 0.0)) == math.inf
        assert kl_divergence((1.0, 0.0), (0.5, 0.5)) == pytest.approx(1.0)


class TestHS:
    def test_traditional_reduces_to_entropy(self):
        A = Alphabet(("a", "b", "c"))
        P = Distribution(A, (0.5, 0.25, 0.25))
        X = StructuredAlphabet(P, PartitionStructure.traditional(A))
        assert h_s(X) == pytest.approx(entropy(P.probs), abs=1e-12)

    def test_mixed_structure_value(self, uniform4, mixed_structure):
        assert h_s(StructuredAlphabet(uniform4, mixed_structure)) == pytest.approx(
            1.6, abs=1e-12
        )

    def test_matches_ultrametric_entropy(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            T = random_ultrametric_tree(int(rng.integers(2, 12)), rng)
            P = random_distribution(T.alphabet, rng)
            S = to_partition_structure(T)
            assert h_s(StructuredAlphabet(P, S)) == pytest.approx(
                hu_bandwise(T, P), abs=1e-9
            )

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(21)
        from structent.sampling import default_letters

        for _ in range(60):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng)
            assert h_s(StructuredAlphabet(P, S)) == pytest.approx(
                oracles.hs_double_sum(P, S), abs=1e-12
            )

    def test_bounded_by_entropy_when_normalized(self):
        rng = np.random.default_rng(22)
        from structent.sampling import default_letters

        for _ in range(50):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng, normalized=True)
            v = h_s(StructuredAlphabet(P, S))
            assert -1e-12 <= v <= entropy(P.probs) + 1e-9

    def test_power_above_three(self, uniform4, mixed_structure):
        big = power_structure(mixed_structure, 4)
        from structent import sequence_alphabet

        A4 = sequence_alphabet(uniform4.alphabet, 4)
        P4 = Distribution.uniform(A4)
        assert h_s_of(P4, big) == pytest.approx(4 * 1.6, abs=1e-9)

    def test_concavity(self):
        rng = np.random.default_rng(23)
        from structent.sampling import default_letters

        for _ in range(60):
            A = default_letters(int(rng.integers(2, 7)))
            S = random_structure(A, rng)
            P1 = random_distribution(A, rng)
            P2 = random_distribution(A, rng)
            lam = float(rng.uniform(0.05, 0.95))
            mix = Distribution(
                A,
                tuple(
                    lam * p + (1 - lam) * q for p, q in zip(P1.probs, P2.probs)
                ),
            )
            lhs = h_s(StructuredAlphabet(mix, S))
            rhs = lam * h_s(StructuredAlphabet(P1, S)) + (1 - lam) * h_s(
                StructuredAlphabet(P2, S)
            )
            assert lhs >= rhs - 1e-9


class TestViaQ:
    def test_worked_values(self, uniform4, mixed_structure):
        X = StructuredAlphabet(uniform4, mixed_structure)
        Q = build_q(uniform4, mixed_structure)
        assert entropy(Q.q) == pytest.approx(2.570950594455, abs=1e-9)
        assert entropy([m for _, m in mixed_structure.items()]) == pytest.approx(
            0.970950594455, abs=1e-9
        )
        assert h_s_via_q(X) == pytest.approx(1.6, abs=1e-9)
        assert h_s_via_q(X) == pytest.approx(h_s(X), abs=1e-9)

    def test_traditional_structure(self):
        A = Alphabet(("a", "b", "c"))
        P = Distribution(A, (0.5, 0.25, 0.25))
        X = StructuredAlphabet(P, PartitionStructure.traditional(A))
        assert h_s_via_q(X) == pytest.approx(entropy(P.probs), abs=1e-12)

    def test_single_partition(self, abcd, uniform4):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        X = StructuredAlphabet(uniform4, PartitionStructure(abcd, [(s, 1.0)]))
        assert h_s_via_q(X) == pytest.approx(1.0, abs=1e-12)

    def test_requires_normalization(self, abcd, uniform4):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        X = StructuredAlphabet(uniform4, PartitionStructure(abcd, [(s, 2.0)]))
        with pytest.raises(NotNormalized):
            h_s_via_q(X)

    def test_agreement_random(self):
        rng = np.random.default_rng(24)
        from structent.sampling import default_letters

        for _ in range(50):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng, normalized=True)
            X = StructuredAlphabet(P, S)
            assert h_s_via_q(X) == pytest.approx(h_s(X), abs=1e-9)


class TestJoint:
    def test_independent_adds(self):
        rng = np.random.default_rng(25)
        from structent.sampling import default_letters

        for _ in range(30):
            A = default_letters(int(rng.integers(2, 6)))
            B = Alphabet(tuple(f"B{i}" for i in range(int(rng.integers(2, 6)))))
            PA, PB = random_distribution(A, rng), random_distribution(B, rng)
            SA = random_structure(A, rng, normalized=True)
            SB = random_structure(B, rng, normalized=True)
            J = StructuredJoint(JointDistribution.independent(PA, PB), SA, SB)
            assert h_s_joint(J) == pytest.approx(
                h_s(StructuredAlphabet(PA, SA)) + h_s(StructuredAlphabet(PB, SB)),
                abs=1e-9,
            )

    def test_traditional_reduces_to_joint_entropy(self):
        A = Alphabet(("a", "b"))
        B = Alphabet(("x", "y", "z"))
        m = np.array([[0.2, 0.1, 0.05], [0.15, 0.3, 0.2]])
        J = StructuredJoint(
            JointDistribution(A, B, m),
            PartitionStructure.traditional(A),
            PartitionStructure.traditional(B),
        )
        assert h_s_joint(J) == pytest.approx(entropy(m.ravel()), abs=1e-12)

    def test_product_structure_block_value(self, uniform4, mixed_structure):
        # uniform joint over the 4x4 product with the squared structure:
        # .36*4 + .24*3 + .24*3 + .16*2 = 3.2 = 2 * 1.6
        J = StructuredJoint(
            JointDistribution.independent(uniform4, uniform4),
            mixed_structure,
            mixed_structure,
        )
        assert h_s_joint(J) == pytest.approx(3.2, abs=1e-9)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            J = random_structured_joint(
                int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng
            )
            assert h_s_joint(J) == pytest.approx(
                oracles.hs_joint_double_sum(J.joint, J.SA, J.SB), abs=1e-12
            )


def joint_with_zeros(rng):
    """A random StructuredJoint with exact zero cells and some zero-measure
    partitions on each side."""
    from structent.sampling import default_letters

    n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    mat = random_joint_matrix(n, m, rng)
    mat[rng.random((n, m)) < 0.4] = 0.0
    mat[0, 0] += 1.0 - mat.sum()
    A, B = default_letters(n), Alphabet(tuple(f"B{i}" for i in range(m)))
    sides = []
    for X in (A, B):
        S = random_structure(X, rng, normalized=False)
        sides.append(PartitionStructure(X, [(s, 0.0 if rng.random() < 0.2 else w) for s, w in S.items()]))
    return StructuredJoint(JointDistribution(A, B, mat), *sides)


def per_pair_values(J):
    """The four joint notions with one JointDistribution.reduced call per
    pair of positive-measure partitions and each side's entropy taken from
    the joint's marginal reduced by that side's partition, in the per-pair
    loop's expressions and summation order."""
    PA, PB = J.joint.row_marginal(), J.joint.col_marginal()
    pairs = [
        (mA * mB, J.joint.reduced(sA, sB), entropy(reduced_probs(PA, sA)), entropy(reduced_probs(PB, sB)))
        for sA, mA in J.SA.items() if mA > 0.0
        for sB, mB in J.SB.items() if mB > 0.0
    ]
    joint = math.fsum(w * entropy(red.ravel()) for w, red, _, _ in pairs)
    cond = []
    for direction in ("row|col", "col|row"):
        total = 0.0
        for w, red, hrow, hcol in pairs:
            total += w * (entropy(red.ravel()) - (hrow if direction == "col|row" else hcol))
        cond.append(total)
    mutual = math.fsum(w * (hrow + hcol - entropy(red.ravel())) for w, red, hrow, hcol in pairs)
    return (joint, *cond, mutual)


def four_notions(J):
    return (h_s_joint(J), h_s_conditional(J, "row|col"), h_s_conditional(J, "col|row"), i_s(J))


def assert_close(got, expected):
    """Each value within 1e-12 * max(1, |expected|) of its counterpart."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-12 * max(1.0, abs(e)), (got, expected)


def line_joint(n, seed, zeros=0.0):
    """A StructuredJoint of two n-point real lines in [0, 1) under their
    threshold structures, with a fraction ``zeros`` of the cells set to exactly 0."""
    rng = np.random.default_rng(seed)
    A, B = (LinearAlphabet(tuple(float(x) for x in (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n)) for _ in range(2))
    mat = rng.dirichlet(np.ones(n * n)).reshape(n, n)
    mat[rng.random((n, n)) < zeros] = 0.0
    mat[0, 0] += 1.0 - mat.sum()
    return StructuredJoint(JointDistribution(A.alphabet, B.alphabet, mat), linear_structure(A), linear_structure(B))


class TestPairTable:
    """All four joint notions read one table of per-pair entropies."""

    def test_agrees_with_per_pair_reduction(self):
        # the batched kernel sums each block's terms in another order than
        # the per-pair entropy calls, so the two agree to 1e-12, not bitwise
        rng = np.random.default_rng(91)
        for _ in range(200):
            J = joint_with_zeros(rng)
            assert_close(four_notions(J), per_pair_values(J))

    def test_each_pair_reduced_once(self, monkeypatch):
        import structent.notions as notions

        rng = np.random.default_rng(92)
        J = joint_with_zeros(rng)
        while not (any(J.SA.measures) and any(J.SB.measures)):
            J = joint_with_zeros(rng)
        expected = per_pair_values(J)
        calls = []
        onehot = notions._onehot
        monkeypatch.setattr(notions, "_onehot", lambda labels: calls.append(1) or onehot(labels))
        monkeypatch.setattr(JointDistribution, "reduced", None)
        assert_close(four_notions(J), expected)
        first = len(calls)
        assert_close(four_notions(J), expected)
        assert len(calls) == first  # the second call reads the kept table
        rows, cols = (sum(m > 0.0 for m in S.measures) for S in (J.SA, J.SB))
        assert first == rows + cols  # one one-hot matrix per positive partition on each side
        assert len(J._pairs) == rows * cols

    @pytest.fixture(scope="class")
    def line_case(self):
        J = line_joint(60, 41, zeros=0.3)
        pts = [list(S.alphabet.letters) for S in (J.SA, J.SB)]  # the letters are the points
        notions = ("joint", "row|col", "col|row", "mutual")
        return J, [oracles.real_line_joint_ref(*pts, J.joint.matrix.tolist(), k) for k in notions]

    def test_against_oracles(self, line_case):
        J, ref = line_case
        J = StructuredJoint(J.joint, J.SA, J.SB)  # a fresh table
        assert four_notions(J) == pytest.approx(ref, abs=1e-12)
        rng = np.random.default_rng(95)
        for _ in range(30):
            J = joint_with_zeros(rng)
            ref = (
                oracles.hs_joint_double_sum(J.joint, J.SA, J.SB),
                oracles.hs_conditional_double_sum(J.joint, J.SA, J.SB, "row|col"),
                oracles.hs_conditional_double_sum(J.joint, J.SA, J.SB, "col|row"),
                oracles.is_double_sum(J.joint, J.SA, J.SB),
            )
            assert four_notions(J) == pytest.approx(ref, abs=1e-12)

    def test_peak_memory(self):
        # about four times the traced peak of the one-hot products (2.1 MB);
        # the bincount table they replaced peaked at 28.3 MB
        J = line_joint(120, 5)
        tracemalloc.start()
        try:
            J._pairs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000

    def test_no_positive_partition_on_a_side(self):
        rng = np.random.default_rng(94)
        J = joint_with_zeros(rng)
        for SA, SB in ((PartitionStructure(J.SA.alphabet), J.SB), (J.SA, PartitionStructure(J.SB.alphabet))):
            assert four_notions(StructuredJoint(J.joint, SA, SB)) == (0.0, 0.0, 0.0, 0.0)


class TestConditional:
    def test_independent_reduces_to_marginal(self):
        rng = np.random.default_rng(27)
        from structent.sampling import default_letters

        for _ in range(30):
            A = default_letters(int(rng.integers(2, 6)))
            B = Alphabet(tuple(f"B{i}" for i in range(int(rng.integers(2, 6)))))
            PA, PB = random_distribution(A, rng), random_distribution(B, rng)
            SA = random_structure(A, rng, normalized=True)
            SB = random_structure(B, rng, normalized=True)
            J = StructuredJoint(JointDistribution.independent(PA, PB), SA, SB)
            assert h_s_conditional(J, "row|col") == pytest.approx(
                h_s(StructuredAlphabet(PA, SA)), abs=1e-9
            )

    def test_identity_coupling_deterministic_structures(self):
        """With one partition per structure the reduction of the diagonal
        joint is deterministic, so conditioning removes all uncertainty."""
        rng = np.random.default_rng(28)
        from structent.sampling import default_letters, random_partition

        for _ in range(30):
            A = default_letters(int(rng.integers(2, 7)))
            P = random_distribution(A, rng)
            s = random_partition(A, rng)
            S = PartitionStructure(A, [(s, 1.0)])
            J = StructuredJoint(JointDistribution.identity_coupling(P), S, S)
            assert h_s_conditional(J, "row|col") == pytest.approx(0.0, abs=1e-9)
            assert h_s_conditional(J, "col|row") == pytest.approx(0.0, abs=1e-9)

    def test_traditional_reduces_to_classical(self):
        A = Alphabet(("a", "b"))
        B = Alphabet(("x", "y"))
        m = np.array([[0.4, 0.1], [0.2, 0.3]])
        J = StructuredJoint(
            JointDistribution(A, B, m),
            PartitionStructure.traditional(A),
            PartitionStructure.traditional(B),
        )
        expected = entropy(m.ravel()) - entropy(m.sum(axis=0))
        assert h_s_conditional(J, "row|col") == pytest.approx(expected, abs=1e-12)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            J = random_structured_joint(
                int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng
            )
            for direction in ("row|col", "col|row"):
                assert h_s_conditional(J, direction) == pytest.approx(
                    oracles.hs_conditional_double_sum(
                        J.joint, J.SA, J.SB, direction
                    ),
                    abs=1e-12,
                )

    def test_nonnegative(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            J = random_structured_joint(3, 4, rng, normalized=False)
            assert h_s_conditional(J, "row|col") >= -1e-12
            assert h_s_conditional(J, "col|row") >= -1e-12


class TestMutualInformation:
    def test_independent_is_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            from structent.sampling import default_letters

            A = default_letters(3)
            B = default_letters(4)
            PA, PB = random_distribution(A, rng), random_distribution(B, rng)
            J = StructuredJoint(
                JointDistribution.independent(PA, PB),
                random_structure(A, rng),
                random_structure(B, rng),
            )
            assert i_s(J) == pytest.approx(0.0, abs=1e-9)

    def test_traditional_reduces(self):
        A = Alphabet(("a", "b"))
        B = Alphabet(("x", "y"))
        m = np.array([[0.4, 0.1], [0.2, 0.3]])
        J = StructuredJoint(
            JointDistribution(A, B, m),
            PartitionStructure.traditional(A),
            PartitionStructure.traditional(B),
        )
        expected = (
            entropy(m.sum(axis=1)) + entropy(m.sum(axis=0)) - entropy(m.ravel())
        )
        assert i_s(J) == pytest.approx(expected, abs=1e-12)

    def test_identity_coupling_single_partition_equals_h_s(self):
        rng = np.random.default_rng(32)
        from structent.sampling import default_letters, random_partition

        for _ in range(30):
            A = default_letters(int(rng.integers(2, 7)))
            P = random_distribution(A, rng)
            S = PartitionStructure(A, [(random_partition(A, rng), 1.0)])
            J = StructuredJoint(JointDistribution.identity_coupling(P), S, S)
            assert i_s(J) == pytest.approx(
                h_s(StructuredAlphabet(P, S)), abs=1e-9
            )

    def test_information_identities(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            J = random_structured_joint(
                int(rng.integers(2, 6)), int(rng.integers(2, 6)), rng
            )
            hA = h_s(StructuredAlphabet(J.joint.row_marginal(), J.SA))
            hB = h_s(StructuredAlphabet(J.joint.col_marginal(), J.SB))
            v = i_s(J)
            assert v == pytest.approx(hA - h_s_conditional(J, "row|col"), abs=1e-9)
            assert v == pytest.approx(hB - h_s_conditional(J, "col|row"), abs=1e-9)
            assert v >= -1e-9

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            J = random_structured_joint(
                int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng
            )
            assert i_s(J) == pytest.approx(
                oracles.is_double_sum(J.joint, J.SA, J.SB), abs=1e-12
            )


class TestChainRule:
    def test_chain_rule_random(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            J = random_structured_joint(
                int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng
            )
            hA = h_s(StructuredAlphabet(J.joint.row_marginal(), J.SA))
            assert h_s_joint(J) == pytest.approx(
                hA + h_s_conditional(J, "col|row"), abs=1e-9
            )


class TestDivergence:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(36)
        from structent.sampling import default_letters

        for _ in range(20):
            A = default_letters(int(rng.integers(2, 7)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng)
            assert d_kl_s(StructuredAlphabet(P, S), P) == pytest.approx(0.0, abs=1e-12)

    def test_traditional_reduces_to_kl(self):
        A = Alphabet(("a", "b", "c"))
        P = Distribution(A, (0.5, 0.25, 0.25))
        Q = Distribution(A, (0.25, 0.5, 0.25))
        X = StructuredAlphabet(P, PartitionStructure.traditional(A))
        assert d_kl_s(X, Q) == pytest.approx(
            kl_divergence(P.probs, Q.probs), abs=1e-12
        )

    def test_structure_blind_to_intra_component_moves(self, abcd):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        S = PartitionStructure(abcd, [(s, 1.0)])
        P = Distribution(abcd, (0.5, 0.0, 0.5, 0.0))
        Q = Distribution(abcd, (0.25, 0.25, 0.25, 0.25))
        assert d_kl_s(StructuredAlphabet(P, S), Q) == pytest.approx(0.0, abs=1e-12)

    def test_infinite_sentinel(self, abcd, mixed_structure):
        P = Distribution(abcd, (0.5, 0.5, 0.0, 0.0))
        Q = Distribution(abcd, (1.0, 0.0, 0.0, 0.0))
        assert d_kl_s(StructuredAlphabet(P, mixed_structure), Q) == math.inf

    def test_double_sum_oracle_and_nonnegativity(self):
        rng = np.random.default_rng(37)
        from structent.sampling import default_letters

        for _ in range(40):
            A = default_letters(int(rng.integers(2, 7)))
            P = random_distribution(A, rng)
            Q = random_distribution(A, rng)
            S = random_structure(A, rng)
            v = d_kl_s(StructuredAlphabet(P, S), Q)
            assert v == pytest.approx(oracles.dkl_double_sum(P, Q, S), abs=1e-12)
            assert v >= -1e-12


class TestAdditivity:
    def test_all_notions_additive_in_structure(self):
        rng = np.random.default_rng(38)
        from structent.sampling import default_letters

        for _ in range(30):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            A = default_letters(n)
            B = Alphabet(tuple(f"B{i}" for i in range(m)))
            S1, S2 = random_structure(A, rng), random_structure(A, rng)
            SB = random_structure(B, rng)
            P = random_distribution(A, rng)
            Q = random_distribution(A, rng)
            Jm = random_joint_matrix(n, m, rng)
            combined = combine(S1, S2)

            assert h_s(StructuredAlphabet(P, combined)) == pytest.approx(
                h_s(StructuredAlphabet(P, S1)) + h_s(StructuredAlphabet(P, S2)),
                abs=1e-9,
            )
            assert d_kl_s(StructuredAlphabet(P, combined), Q) == pytest.approx(
                d_kl_s(StructuredAlphabet(P, S1), Q)
                + d_kl_s(StructuredAlphabet(P, S2), Q),
                abs=1e-9,
            )
            joint = JointDistribution(A, B, Jm)
            for func in (
                h_s_joint,
                lambda j: h_s_conditional(j, "row|col"),
                lambda j: h_s_conditional(j, "col|row"),
                i_s,
            ):
                whole = func(StructuredJoint(joint, combined, SB))
                split = func(StructuredJoint(joint, S1, SB)) + func(
                    StructuredJoint(joint, S2, SB)
                )
                assert whole == pytest.approx(split, abs=1e-9)


class TestBackwardReduction:
    def test_every_notion_at_1e_12(self):
        rng = np.random.default_rng(39)
        from structent.sampling import default_letters

        for _ in range(40):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            A, B = default_letters(n), Alphabet(tuple(f"B{i}" for i in range(m)))
            TA, TB = PartitionStructure.traditional(A), PartitionStructure.traditional(B)
            P = random_distribution(A, rng)
            Q = random_distribution(A, rng)
            Jm = random_joint_matrix(n, m, rng)
            J = StructuredJoint(JointDistribution(A, B, Jm), TA, TB)

            assert h_s(StructuredAlphabet(P, TA)) == pytest.approx(
                oracles.entropy_ref(P.probs), abs=1e-12
            )
            assert h_s_joint(J) == pytest.approx(
                oracles.entropy_ref(Jm.ravel()), abs=1e-12
            )
            cond = oracles.entropy_ref(Jm.ravel()) - oracles.entropy_ref(
                Jm.sum(axis=0)
            )
            assert h_s_conditional(J, "row|col") == pytest.approx(cond, abs=1e-12)
            mi = (
                oracles.entropy_ref(Jm.sum(axis=1))
                + oracles.entropy_ref(Jm.sum(axis=0))
                - oracles.entropy_ref(Jm.ravel())
            )
            assert i_s(J) == pytest.approx(mi, abs=1e-12)
            assert d_kl_s(StructuredAlphabet(P, TA), Q) == pytest.approx(
                kl_divergence(P.probs, Q.probs), abs=1e-12
            )
