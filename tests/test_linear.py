"""Real-line entropy: threshold structures, expectations, samples, and limits."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from structent import (
    Alphabet,
    Distribution,
    DuplicateValues,
    JointDistribution,
    LinearAlphabet,
    NonMonotoneCdf,
    StructuredAlphabet,
    StructuredJoint,
    TooFewPoints,
    ValidationError,
    binary_entropy,
    collapse_duplicate_points,
    d_kl_s,
    dkl_r,
    h_r,
    h_r_conditional,
    h_r_joint,
    h_r_limit,
    h_r_sample,
    h_s,
    h_s_conditional,
    h_s_joint,
    i_r,
    i_s,
    linear_structure,
    pearson,
    stddev_correlation_sim,
)

H_THIRD = math.log2(3.0) - 2.0 / 3.0  # binary entropy of 1/3
HALF_LOG_E = 1.0 / (2.0 * math.log(2.0))  # integral of h over [0, 1]


def random_linear(rng, n=None, normalized=False):
    n = n or int(rng.integers(2, 9))
    pts = np.sort(rng.uniform(0.0, 1.0, size=n))
    while len(np.unique(pts)) < n:
        pts = np.sort(rng.uniform(0.0, 1.0, size=n))
    if normalized:
        pts = (pts - pts[0]) / (pts[-1] - pts[0])
    A = LinearAlphabet(tuple(float(x) for x in pts))
    p = rng.dirichlet(np.ones(n))
    P = Distribution(A.alphabet, tuple(float(x) for x in p), renormalize=True)
    return A, P


class TestLinearAlphabet:
    def test_needs_two_points(self):
        with pytest.raises(TooFewPoints):
            LinearAlphabet((0.5,))

    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(DuplicateValues):
            LinearAlphabet((0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ValidationError):
            LinearAlphabet((0.0, 0.7, 0.3))

    @pytest.mark.parametrize(
        "points", [(0.0, math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (-1e308, 0.0, 1e308)]
    )
    def test_rejects_non_finite_points_and_span(self, points):
        with pytest.raises(ValidationError, match="finite"):
            LinearAlphabet(points)
        with pytest.raises(ValidationError, match="finite"):
            h_r_sample(points)

    def test_normalized_flag(self):
        assert LinearAlphabet((0.0, 0.3, 1.0)).is_normalized
        assert not LinearAlphabet((0.0, 0.3, 0.9)).is_normalized
        assert LinearAlphabet((2.0, 2.5, 3.0)).is_normalized

    def test_gaps(self):
        assert LinearAlphabet((0.0, 0.25, 1.0)).gaps() == (0.25, 0.75)

    def test_collapse_duplicates(self):
        pts, probs = collapse_duplicate_points(
            (0.0, 0.5, 0.5, 1.0), (0.1, 0.2, 0.3, 0.4)
        )
        assert pts == (0.0, 0.5, 1.0)
        assert probs == pytest.approx((0.1, 0.5, 0.4))

    def test_collapse_with_tolerance_and_unsorted_input(self):
        pts, probs = collapse_duplicate_points(
            (1.0, 0.0, 1.0 + 1e-12), (0.5, 0.25, 0.25), tol=1e-9
        )
        assert pts == (0.0, 1.0)
        assert probs == pytest.approx((0.25, 0.75))

    def test_collapse_without_probs(self):
        pts, probs = collapse_duplicate_points((0.3, 0.3, 0.9))
        assert pts == (0.3, 0.9)
        assert probs is None


class TestLinearStructure:
    def test_single_threshold(self):
        S = linear_structure(LinearAlphabet((0.0, 1.0)))
        assert len(S.partitions) == 1
        assert S.total_measure == pytest.approx(1.0)

    def test_measures_are_gaps(self):
        A = LinearAlphabet((0.0, 0.15, 0.4, 1.0))
        S = linear_structure(A)
        assert sorted(m for _, m in S.items()) == pytest.approx(
            sorted(A.gaps())
        )

    def test_equal_gaps_worked_example(self):
        S = linear_structure(LinearAlphabet((0.0, 0.5, 1.0)))
        assert [m for _, m in S.items()] == pytest.approx([0.5, 0.5])

    def test_separating_and_normalization(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            A, _ = random_linear(rng)
            S = linear_structure(A)
            assert S.is_separating
            assert S.is_normalized == A.is_normalized
            assert S.total_measure == pytest.approx(
                A.points[-1] - A.points[0], abs=1e-12
            )


class TestHR:
    def test_single_balanced_threshold(self):
        A = LinearAlphabet((0.0, 1.0))
        assert h_r(A, Distribution(A.alphabet, (0.5, 0.5))) == pytest.approx(1.0)

    def test_three_point_uniform(self):
        A = LinearAlphabet((0.0, 0.5, 1.0))
        P = Distribution(A.alphabet, (1 / 3, 1 / 3, 1 / 3), renormalize=True)
        assert h_r(A, P) == pytest.approx(H_THIRD, abs=1e-12)

    def test_reduces_to_structure_entropy(self):
        rng = np.random.default_rng(81)
        for _ in range(60):
            A, P = random_linear(rng)
            via_structure = h_s(StructuredAlphabet(P, linear_structure(A)))
            assert h_r(A, P) == pytest.approx(via_structure, abs=1e-12)

    def test_threshold_sum_oracle(self):
        rng = np.random.default_rng(82)
        for _ in range(60):
            A, P = random_linear(rng)
            assert h_r(A, P) == pytest.approx(
                oracles.h_r_ref(A.points, P.probs), abs=1e-12
            )

    def test_bounds_for_normalized_points(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            A, P = random_linear(rng, normalized=True)
            v = h_r(A, P)
            assert -1e-12 <= v <= 1.0 + 1e-12


class TestExpectations:
    def test_mass_near_far_ordering(self):
        # moving extra mass to the far point (away from the heavier side)
        # increases randomness: strict for every epsilon on the grid
        A = LinearAlphabet((0.0, 0.5, 1.0))
        for eps in np.linspace(0.01, 1 / 3, 12):
            near = Distribution(
                A.alphabet, (1 / 3, 1 / 3 - eps, 1 / 3 + eps), renormalize=True
            )
            far = Distribution(
                A.alphabet, (1 / 3, 1 / 3 + eps, 1 / 3 - eps), renormalize=True
            )
            assert h_r(A, near) > h_r(A, far)

    def test_point_position_ordering_with_closed_form_gap(self):
        P = (0.25, 0.25, 0.5)
        for eps in np.linspace(0.01, 0.49, 12):
            low = LinearAlphabet((0.0, 0.5 - eps, 1.0))
            high = LinearAlphabet((0.0, 0.5 + eps, 1.0))
            h_low = h_r(low, Distribution(low.alphabet, P))
            h_high = h_r(high, Distribution(high.alphabet, P))
            assert h_low > h_high
            assert h_low - h_high == pytest.approx(
                2.0 * eps * (1.0 - binary_entropy(0.25)), abs=1e-12
            )

    def test_near_coincident_points_approach_merged_configuration(self):
        # five points where two nearly coincide behave like the four-point
        # merged configuration, not like the fully spread one
        spread = h_r_sample((0.0, 0.25, 0.5, 0.75, 1.0))
        merged_alpha = LinearAlphabet((0.0, 0.25, 0.5, 1.0))
        merged = h_r(
            merged_alpha,
            Distribution(merged_alpha.alphabet, (0.2, 0.2, 0.4, 0.2)),
        )
        last_err = None
        for delta in (1e-2, 1e-3, 1e-4):
            near = h_r_sample((0.0, 0.25, 0.5, 0.5 + delta, 1.0))
            assert abs(near - merged) < abs(near - spread)
            if last_err is not None:
                assert abs(near - merged) < last_err
            last_err = abs(near - merged)


class TestJointNotions:
    def make_joint(self, rng, n=3, m=4):
        A, _ = random_linear(rng, n=n)
        B, _ = random_linear(rng, n=m)
        mat = rng.dirichlet(np.ones(n * m)).reshape(n, m)
        J = JointDistribution(A.alphabet, B.alphabet, mat)
        return A, B, J

    def test_joint_reduces_to_structured_joint(self):
        rng = np.random.default_rng(84)
        for _ in range(30):
            A, B, J = self.make_joint(rng)
            SJ = StructuredJoint(J, linear_structure(A), linear_structure(B))
            assert h_r_joint(A, B, J) == pytest.approx(h_s_joint(SJ), abs=1e-12)
            assert i_r(A, B, J) == pytest.approx(i_s(SJ), abs=1e-12)
            for direction in ("row|col", "col|row"):
                assert h_r_conditional(A, B, J, direction) == pytest.approx(
                    h_s_conditional(SJ, direction), abs=1e-12
                )

    def test_slice_sum_oracle(self):
        rng = np.random.default_rng(87)
        for k in range(40):
            A, B, J = self.make_joint(rng, n=int(rng.integers(2, 8)), m=int(rng.integers(2, 8)))
            mat = J.matrix.copy()
            if k % 2:  # exact zero cells
                mat[rng.random(mat.shape) < 0.4] = 0.0
                mat[0, 0] += 1.0 - mat.sum()
                J = JointDistribution(A.alphabet, B.alphabet, mat)
            ref = lambda notion: oracles.real_line_joint_ref(A.points, B.points, mat.tolist(), notion)
            assert h_r_joint(A, B, J) == pytest.approx(ref("joint"), abs=1e-12)
            assert i_r(A, B, J) == pytest.approx(ref("mutual"), abs=1e-12)
            for direction in ("row|col", "col|row"):
                assert h_r_conditional(A, B, J, direction) == pytest.approx(ref(direction), abs=1e-12)

    def test_alphabet_and_direction_checks(self):
        rng = np.random.default_rng(88)
        A, B, J = self.make_joint(rng)
        for call in (h_r_joint, i_r, h_r_conditional):
            with pytest.raises(ValidationError, match="joint alphabets must be the two linear point sets"):
                call(B, A, J)
        with pytest.raises(ValidationError, match="direction"):
            h_r_conditional(A, B, J, "row")

    def test_independent_uniform_pair(self):
        A = LinearAlphabet((0.0, 1.0))
        B = LinearAlphabet((0.0, 1.0))
        PA = Distribution(A.alphabet, (0.5, 0.5))
        PB = Distribution(B.alphabet, (0.5, 0.5))
        J = JointDistribution.independent(PA, PB)
        assert h_r_joint(A, B, J) == pytest.approx(2.0, abs=1e-12)
        assert i_r(A, B, J) == pytest.approx(0.0, abs=1e-12)

    def test_identity_coupling_single_threshold(self):
        A = LinearAlphabet((0.0, 1.0))
        P = Distribution(A.alphabet, (0.5, 0.5))
        J = JointDistribution.identity_coupling(P)
        assert i_r(A, A, J) == pytest.approx(1.0, abs=1e-12)
        assert i_r(A, A, J) == pytest.approx(h_r(A, P), abs=1e-12)

    def test_joint_bound_for_normalized_pairs(self):
        rng = np.random.default_rng(85)
        for _ in range(30):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            A, _ = random_linear(rng, n=n, normalized=True)
            B, _ = random_linear(rng, n=m, normalized=True)
            mat = rng.dirichlet(np.ones(n * m)).reshape(n, m)
            J = JointDistribution(A.alphabet, B.alphabet, mat)
            assert -1e-12 <= h_r_joint(A, B, J) <= 2.0 + 1e-12

    def test_chain_rule_for_normalized_point_sets(self):
        # the chain rule needs unit total measure, i.e. point sets of span 1
        rng = np.random.default_rng(86)
        for _ in range(30):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            A, _ = random_linear(rng, n=n, normalized=True)
            B, _ = random_linear(rng, n=m, normalized=True)
            mat = rng.dirichlet(np.ones(n * m)).reshape(n, m)
            J = JointDistribution(A.alphabet, B.alphabet, mat)
            lhs = h_r_joint(A, B, J)
            rhs = h_r(A, J.row_marginal()) + h_r_conditional(A, B, J, "col|row")
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDivergence:
    def test_zero_on_self(self):
        rng = np.random.default_rng(87)
        for _ in range(20):
            A, P = random_linear(rng)
            assert dkl_r(A, P, P) == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_structure_divergence(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            A, P1 = random_linear(rng)
            P2 = Distribution(
                A.alphabet,
                tuple(float(x) for x in np.random.default_rng(1).dirichlet(np.ones(len(A.points)))),
                renormalize=True,
            )
            expected = d_kl_s(
                StructuredAlphabet(P1, linear_structure(A)), P2
            )
            assert dkl_r(A, P1, P2) == pytest.approx(expected, abs=1e-12)

    def test_infinite_sentinel(self):
        A = LinearAlphabet((0.0, 0.5, 1.0))
        P1 = Distribution(A.alphabet, (0.25, 0.25, 0.5))
        P2 = Distribution(A.alphabet, (1.0, 0.0, 0.0))
        assert dkl_r(A, P1, P2) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(89)
        for _ in range(30):
            A, P1 = random_linear(rng)
            p = rng.dirichlet(np.ones(len(A.points)))
            P2 = Distribution(A.alphabet, tuple(float(x) for x in p), renormalize=True)
            assert dkl_r(A, P1, P2) >= -1e-12


class TestSampleEntropy:
    def test_three_point_sample(self):
        assert h_r_sample((0.0, 0.5, 1.0)) == pytest.approx(H_THIRD, abs=1e-12)

    def test_two_point_sample(self):
        assert h_r_sample((0.0, 1.0)) == pytest.approx(1.0)

    def test_matches_uniform_empirical_h_r(self):
        rng = np.random.default_rng(90)
        for _ in range(30):
            A, _ = random_linear(rng)
            n = len(A.points)
            P = Distribution(A.alphabet, (1.0 / n,) * n, renormalize=True)
            assert h_r_sample(A.points) == pytest.approx(h_r(A, P), abs=1e-12)

    def test_equally_spaced_frozen_value(self):
        assert h_r_sample((0.0, 0.25, 0.5, 0.75, 1.0)) == pytest.approx(
            0.846439, abs=1e-6
        )

    def test_displacement_toward_neighbor_lowers_entropy(self):
        displaced = h_r_sample((0.0, 0.45, 0.5, 0.75, 1.0))
        assert displaced == pytest.approx(0.796635, abs=1e-6)
        assert displaced < h_r_sample((0.0, 0.25, 0.5, 0.75, 1.0))

    def test_oracle_agreement(self):
        rng = np.random.default_rng(91)
        for _ in range(30):
            A, _ = random_linear(rng)
            assert h_r_sample(A.points) == pytest.approx(
                oracles.h_r_sample_ref(A.points), abs=1e-12
            )

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateValues):
            h_r_sample((0.0, 0.5, 0.5, 1.0))

    def test_unsorted_input_accepted(self):
        assert h_r_sample((1.0, 0.0, 0.5)) == pytest.approx(H_THIRD, abs=1e-12)


class TestLimit:
    def test_uniform_cdf_closed_form(self):
        got = h_r_limit(lambda x: x, 0.0, 1.0, 1e-4)
        assert got == pytest.approx(HALF_LOG_E, abs=1e-4)

    def test_degenerate_step_cdf_is_zero(self):
        step_cdf = lambda x: 0.0 if x < 0.5 else 1.0
        assert h_r_limit(step_cdf, 0.0, 1.0, 1e-3) == pytest.approx(0.0, abs=1e-9)

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneCdf):
            h_r_limit(lambda x: 1.0 - x if 0.4 < x < 0.6 else x, 0.0, 1.0, 1e-2)

    def test_sample_entropy_converges_to_limit(self):
        errors = []
        for k in (10, 100, 1000):
            pts = tuple(i / k for i in range(k + 1))
            errors.append(abs(h_r_sample(pts) - HALF_LOG_E))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 2e-3


class TestCorrelation:
    def test_pearson_exact_affine(self):
        xs = (1.0, 2.0, 3.0, 4.0)
        assert pearson(xs, tuple(2 * x + 1 for x in xs)) == pytest.approx(1.0)
        assert pearson(xs, tuple(-x for x in xs)) == pytest.approx(-1.0)

    def test_pearson_known_value(self):
        assert pearson((1, 2, 3), (1, 3, 2)) == pytest.approx(0.5)

    def test_pearson_zero_variance_is_nan_with_warning(self):
        with pytest.warns(UserWarning):
            assert math.isnan(pearson((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)))

    def test_entropy_tracks_standard_deviation(self):
        for dist in ("uniform", "normal"):
            r = stddev_correlation_sim(300, 30, dist=dist, seed=3)
            assert r > 0.9

    def test_deterministic_under_seed(self):
        a = stddev_correlation_sim(50, 10, seed=5)
        b = stddev_correlation_sim(50, 10, seed=5)
        assert a == b

    def test_affine_copies_give_nan_sentinel(self):
        # power-of-two rescalings normalize back to the same sample exactly,
        # so both coordinates end up constant
        base = np.linspace(0.0, 1.0, 12) ** 2

        def affine_copies(rng, k):
            return base * float(2.0 ** rng.integers(0, 6))

        with pytest.warns(UserWarning):
            r = stddev_correlation_sim(20, 12, dist=affine_copies, seed=0)
        assert math.isnan(r)
