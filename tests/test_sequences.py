"""Exhaustive typical-set censuses and their growth-rate envelopes."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oracles
from structent import (
    Alphabet,
    Distribution,
    NotNormalized,
    Partition,
    PartitionStructure,
    SpaceTooLarge,
    ValidationError,
    entropy,
    equivalence_class_stats,
    h_s,
    letter_space,
    pair_space,
    partition_space,
    component_space,
    project,
    subset_probability,
    typical_set,
    typical_set_sampled,
    types_correction,
)
from structent.sampling import default_letters, random_distribution, random_structure
from structent.sequences import ENUMERATION_CAP


@pytest.fixture
def skewed_pair():
    A = Alphabet(("a", "b"))
    return A, Distribution(A, (0.75, 0.25))


class TestSpaces:
    def test_letter_space_shape(self, skewed_pair):
        A, P = skewed_pair
        sp = letter_space(P, 5)
        assert sp.size == 32
        assert sp.base_entropy == pytest.approx(entropy(P.probs))
        assert sp.symbols == A.letters

    def test_partition_space_needs_normalized_structure(self, abcd, mixed_structure):
        sp = partition_space(mixed_structure, 3)
        assert sp.size == 8
        assert sorted(sp.probs) == pytest.approx([0.4, 0.6])
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        with pytest.raises(NotNormalized):
            partition_space(PartitionStructure(abcd, [(s, 2.0)]), 3)

    def test_pair_space_weights(self, uniform4, mixed_structure):
        sp = pair_space(uniform4, mixed_structure, 2)
        assert len(sp.symbols) == 6
        assert sorted(sp.probs) == pytest.approx(
            [0.15, 0.15, 0.15, 0.15, 0.2, 0.2]
        )
        assert sp.base_entropy == pytest.approx(2.570950594455, abs=1e-9)

    def test_component_space(self, abcd, uniform4):
        s = Partition(abcd, [("a", "b"), ("c", "d")])
        sp = component_space(uniform4, s, 4)
        assert sp.size == 16
        assert sp.probs == pytest.approx((0.5, 0.5))

    def test_bad_probs_rejected(self):
        from structent.sequences import SequenceSpace

        with pytest.raises(ValidationError):
            SequenceSpace("A", 2, ("x", "y"), (0.9, 0.3))
        with pytest.raises(ValidationError):
            SequenceSpace("A", -1, ("x",), (1.0,))


    def test_sums_within_prob_tol(self, abcd):
        from structent.alphabet import PROB_TOL
        from structent.sequences import SequenceSpace

        off = 0.99 * PROB_TOL
        P = Distribution(abcd, [0.25 + off / 4] * 4)
        pairs, singles = Partition(abcd, [("a", "b"), ("c", "d")]), Partition(abcd, [[a] for a in "abcd"])
        S = PartitionStructure(abcd, [(pairs, 0.5 + off / 2), (singles, 0.5 + off / 2)])
        assert abs(math.fsum(P.probs) - 1.0) > 0.9 * PROB_TOL and S.is_normalized
        sp = pair_space(P, S, 2)
        assert math.fsum(sp.probs) - 1.0 > PROB_TOL  # the product of both sums
        with pytest.raises(ValidationError):
            SequenceSpace("S-pairs", 2, ("x", "y"), (0.5, 0.5 + 3 * PROB_TOL))


class TestProjection:
    def test_drops_component_coordinate(self, uniform4, mixed_structure):
        sp = pair_space(uniform4, mixed_structure, 3)
        seq = sp.symbols[:3]
        assert project(seq) == tuple(s for _, s in seq)

    def test_traditional_structure_projects_constant(self, abcd, uniform4):
        S = PartitionStructure.traditional(abcd)
        sp = pair_space(uniform4, S, 4)
        projections = {project([sym] * 4) for sym in sp.symbols}
        assert len(projections) == 1

    def test_empty_sequence(self):
        assert project(()) == ()


class TestSubsetProbability:
    def test_traditional_equals_sequence_probability(self, abcd):
        P = Distribution(abcd, (0.4, 0.3, 0.2, 0.1))
        S = PartitionStructure.traditional(abcd)
        sp = pair_space(P, S, 3)
        for combo in itertools.product(sp.symbols[:2], repeat=3):
            expected = math.prod(
                P.mass(comp) for comp, _ in combo
            )
            assert subset_probability(combo, P) == pytest.approx(expected)

    def test_constant_component_sequence(self, abcd, uniform4):
        pairs = Partition(abcd, [("a", "b"), ("c", "d")])
        seq = [(frozenset(("a", "b")), pairs)] * 5
        assert subset_probability(seq, uniform4) == pytest.approx(0.5**5)
        assert subset_probability((), uniform4) == pytest.approx(1.0)

    def test_typical_sequences_compress_near_structure_entropy(
        self, uniform4, mixed_structure
    ):
        # over every typical pair sequence at N=8, the per-symbol subset
        # surprisal stays in a finite-N band around H_S = 1.6, and its mean
        # sits much closer
        N, eps = 8, 0.15
        sp = pair_space(uniform4, mixed_structure, N)
        H = sp.base_entropy
        typical = np.abs(oracles.surprisal_table_ref(sp.probs, N) / N - H) <= eps + 1e-12
        masses = [uniform4.mass(comp) for comp, _ in sp.symbols]
        devs = oracles.surprisal_table_ref(masses, N)[typical] / N
        assert np.all(np.abs(devs - 1.6) <= 0.35 + 1e-9)
        assert abs(devs.mean() - 1.6) <= 0.1
        assert np.mean(np.abs(devs - 1.6) <= 0.25) >= 0.75
        # the table agrees with subset_probability on sampled typical sequences
        k = len(sp.symbols)
        rng = np.random.default_rng(8)
        pick = rng.choice(len(devs), 1000, replace=False)
        for row, dev in zip(np.flatnonzero(typical)[pick], devs[pick]):
            seq = [sp.symbols[int(row) // k ** (N - 1 - j) % k] for j in range(N)]
            assert -math.log2(subset_probability(seq, uniform4)) / N == pytest.approx(dev, abs=1e-12)


class TestTypicalSet:
    def test_uniform_source_is_exactly_typical(self):
        for n, N in ((2, 6), (4, 5)):
            A = Alphabet(tuple(f"x{i}" for i in range(n)))
            P = Distribution.uniform(A)
            s = typical_set(letter_space(P, N), 0.05)
            assert s.count == n**N
            assert s.mass == pytest.approx(1.0, abs=1e-9)
            assert s.rate == pytest.approx(math.log2(n), abs=1e-12)

    def test_skewed_pair_frozen_census(self, skewed_pair):
        _, P = skewed_pair
        s = typical_set(letter_space(P, 16), 0.1)
        assert s.count == 6748
        assert s.mass == pytest.approx(0.613234377466, abs=1e-9)

    def test_matches_enumeration_oracle(self, skewed_pair):
        A, P = skewed_pair
        for N in (4, 8, 12):
            for eps in (0.05, 0.1, 0.2):
                s = typical_set(letter_space(P, N), eps)
                count, mass = oracles.typical_count_ref(
                    dict(zip(A.letters, P.probs)), N, eps
                )
                assert s.count == count
                assert s.mass == pytest.approx(mass, abs=1e-12)

    def test_cardinality_envelope(self, skewed_pair):
        # every typical sequence carries between 2^{-N(H+eps)} and
        # 2^{-N(H-eps)} of mass, pinning the count between mass-weighted
        # powers of two at every finite N
        _, P = skewed_pair
        H = entropy(P.probs)
        for N, eps in ((8, 0.1), (12, 0.1), (16, 0.1), (16, 0.05)):
            s = typical_set(letter_space(P, N), eps)
            assert s.count >= s.mass * 2 ** (N * (H - eps)) - 1e-6
            assert s.count <= 2 ** (N * (H + eps)) + 1e-6
            assert abs(s.rate - H) <= eps + types_correction(2, N)

    def test_mass_bounded_and_census_pinned_on_grid(self, skewed_pair):
        # the typical-set mass is not monotone in N at this scale; the exact
        # values are pinned instead
        _, P = skewed_pair
        got = [
            (N, typical_set(letter_space(P, N), 0.1)) for N in (4, 8, 12, 16)
        ]
        counts = [s.count for _, s in got]
        assert counts == [4, 28, 220, 6748]
        for _, s in got:
            assert 0.0 < s.mass <= 1.0

    def test_zero_epsilon_non_dyadic_can_be_empty(self):
        A = Alphabet(("a", "b"))
        P = Distribution(A, (0.3, 0.7))
        s = typical_set(letter_space(P, 2), 0.0)
        assert s.count == 0
        assert s.mass == 0.0
        assert math.isnan(s.rate)

    def test_zero_length_space(self, skewed_pair):
        _, P = skewed_pair
        s = typical_set(letter_space(P, 0), 0.1)
        assert s.count == 1 and s.mass == 1.0

    def test_space_too_large(self, skewed_pair):
        _, P = skewed_pair
        with pytest.raises(SpaceTooLarge):
            typical_set(letter_space(P, 25), 0.1)

    def test_negative_epsilon_rejected(self, skewed_pair):
        _, P = skewed_pair
        with pytest.raises(ValidationError):
            typical_set(letter_space(P, 4), -0.1)


def _owner(S) -> list[int]:
    """The partition of each pair symbol, in ``pair_space`` order."""
    return [k for k, s in enumerate(S.partitions) for _ in s.components]


class TestTypeCensus:
    """The census by types against testing every sequence on its own."""

    EPSILONS = (0.0, 0.05, 0.1, 0.3)

    def check_typical(self, probs, N):
        P = Distribution(default_letters(len(probs)), probs)
        for eps in self.EPSILONS:
            s = typical_set(letter_space(P, N), eps)
            count, mass = oracles.typical_set_enumerated(P.probs, N, eps)
            assert s.count == count, (probs, N, eps)
            assert s.mass == pytest.approx(mass, abs=1e-12)

    def test_random_sources(self):
        rng = np.random.default_rng(90)
        for k in range(1, 7):
            for N in range(1, 9):
                self.check_typical(tuple(rng.dirichlet(np.ones(k)).tolist()), N)

    def test_zero_probability_letters(self):
        rng = np.random.default_rng(91)
        for k in range(2, 6):
            for N in (1, 3, 6):
                p = rng.dirichlet(np.ones(k))
                p[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
                self.check_typical(tuple((p / p.sum()).tolist()), N)
        self.check_typical((0.0, 1.0, 0.0), 5)

    def test_sources_on_the_boundary(self):
        # uniform and dyadic sources: every sequence's rate is exact, so at
        # epsilon 0 each one sits on the boundary
        for probs in ((0.5, 0.5), (0.25,) * 4, (1 / 3,) * 3, (0.5, 0.25, 0.125, 0.125), (0.5, 0.25, 0.25)):
            for N in (1, 4, 7):
                self.check_typical(probs, N)

    def test_random_structures(self):
        rng = np.random.default_rng(92)
        cases = 0
        while cases < 40:
            A = default_letters(int(rng.integers(2, 5)))
            P, S = random_distribution(A, rng), random_structure(A, rng, normalized=True)
            k = len(pair_space(P, S, 1).symbols)
            N = int(rng.integers(1, 9))
            if k**N > 1 << 18:
                continue
            cases += 1
            for eps in self.EPSILONS:
                st = equivalence_class_stats(N, P, S, eps)
                got = (st.typical_count, st.class_count, st.min_class_size, st.max_class_size)
                want = oracles.equivalence_classes_enumerated(pair_space(P, S, 1).probs, _owner(S), N, eps)
                assert got == want, (N, eps)

    def test_inputs_at_the_cap(self, abcd):
        # the benchmark's sequences inputs: 4 letters, N = 12, 4**12 sequences
        P = Distribution(abcd, (0.3, 0.1, 0.4, 0.2))
        s = typical_set(letter_space(P, 12), 0.15)
        count, mass = oracles.typical_set_enumerated(P.probs, 12, 0.15)
        assert (s.space_size, s.count) == (ENUMERATION_CAP, count)
        assert s.mass == pytest.approx(mass, abs=1e-12)
        S = PartitionStructure(abcd, [
            (Partition(abcd, [("a", "c"), ("b", "d")]), 0.6),
            (Partition(abcd, [("a", "b"), ("c", "d")]), 0.4),
        ])
        st = equivalence_class_stats(12, P, S, 0.15)
        want = oracles.equivalence_classes_enumerated(pair_space(P, S, 1).probs, _owner(S), 12, 0.15)
        assert (st.typical_count, st.class_count, st.min_class_size, st.max_class_size) == want

    def test_counts_whole_types_near_the_boundary(self):
        # find a type whose orderings' surprisals round apart, and put the
        # boundary between them: enumeration splits the type, the census
        # counts every ordering of a type whose first sequence is typical
        rng = np.random.default_rng(17)
        k, N = 3, 6
        for _ in range(200):
            P = Distribution(default_letters(k), tuple(rng.dirichlet(np.ones(k)).tolist()))
            base = (-np.log2(np.asarray(P.probs))).tolist()
            H = entropy(P.probs)
            devs: dict[tuple, list] = {}  # per type, in lexicographic order
            for combo in itertools.product(range(k), repeat=N):
                sur = 0.0
                for i in combo:
                    sur += base[i]
                devs.setdefault(tuple(sorted(combo)), []).append(abs(sur / N - H))
            split = [(min(d), max(d)) for d in devs.values() if 1e-9 < min(d) < max(d)]
            if split:
                break
        lo, hi = split[0]
        eps = lo - 1e-12
        while eps + 1e-12 < lo:
            eps = math.nextafter(eps, 1.0)
        assert lo <= eps + 1e-12 < hi
        whole = sum(len(d) for d in devs.values() if d[0] <= eps + 1e-12)
        each = sum(x <= eps + 1e-12 for d in devs.values() for x in d)
        assert each != whole
        assert oracles.typical_set_enumerated(P.probs, N, eps)[0] == each
        assert typical_set(letter_space(P, N), eps).count == whole

    @pytest.mark.parametrize("k, N", [(4096, 2), (256, 3)])
    def test_large_alphabets_complete(self, k, N):
        P = random_distribution(default_letters(k), np.random.default_rng(k))
        s = typical_set(letter_space(P, N), 0.15)
        H = entropy(P.probs)
        assert 0.0 < s.mass <= 1.0
        assert s.mass * 2 ** (N * (H - 0.15)) - 1e-6 <= s.count <= 2 ** (N * (H + 0.15)) + 1e-6


class TestSampledEstimator:
    def test_tracks_exact_mass(self, skewed_pair):
        _, P = skewed_pair
        exact = typical_set(letter_space(P, 12), 0.1)
        sampled = typical_set_sampled(letter_space(P, 12), 0.1, 4000, seed=2)
        assert abs(sampled.mass - exact.mass) <= 0.03
        assert sampled.count <= 4000

    def test_works_beyond_enumeration_cap(self, skewed_pair):
        _, P = skewed_pair
        s = typical_set_sampled(letter_space(P, 40), 0.05, 1000, seed=3)
        assert 0.0 <= s.mass <= 1.0

    def test_deterministic_under_seed(self, skewed_pair):
        _, P = skewed_pair
        a = typical_set_sampled(letter_space(P, 20), 0.1, 500, seed=9)
        b = typical_set_sampled(letter_space(P, 20), 0.1, 500, seed=9)
        assert (a.count, a.mass) == (b.count, b.mass)


class TestTypesCorrection:
    def test_formula(self):
        assert types_correction(2, 16) == pytest.approx(2 * math.log2(17) / 16)
        assert types_correction(4, 8) == pytest.approx(4 * math.log2(9) / 8)

    def test_shrinks_with_length(self):
        vals = [types_correction(4, N) for N in (4, 16, 64, 256)]
        assert vals == sorted(vals, reverse=True)

    def test_needs_positive_length(self):
        with pytest.raises(ValidationError):
            types_correction(2, 0)


class TestEquivalenceClasses:
    def test_traditional_structure_single_class(self, abcd, uniform4):
        S = PartitionStructure.traditional(abcd)
        st = equivalence_class_stats(6, uniform4, S, 0.1)
        assert st.class_count == 1
        assert st.min_class_size == st.max_class_size == st.typical_count
        assert st.typical_count > 0

    def test_mixed_structure_frozen_census(self, uniform4, mixed_structure):
        st = equivalence_class_stats(8, uniform4, mixed_structure, 0.15)
        assert st.typical_count == 1609728
        assert st.class_count == 246
        assert (st.min_class_size, st.max_class_size) == (1024, 32768)
        assert st.h_structure == pytest.approx(0.970950594455, abs=1e-9)
        assert st.h_s == pytest.approx(1.6, abs=1e-12)

    def test_rates_near_their_entropies(self, uniform4, mixed_structure):
        st = equivalence_class_stats(8, uniform4, mixed_structure, 0.15)
        assert abs(st.class_rate - st.h_structure) <= 0.15
        lo, hi = st.size_rates
        assert abs(lo - st.h_s) <= 0.4
        assert abs(hi - st.h_s) <= 0.4

    def test_classes_partition_the_typical_set(self, uniform4, mixed_structure):
        # independent brute force at small N: group typical pair sequences
        # by projection and compare every reported statistic
        N, eps = 3, 0.2
        sp = pair_space(uniform4, mixed_structure, N)
        H = sp.base_entropy
        groups: dict[tuple, int] = {}
        total = 0
        for combo in itertools.product(sp.symbols, repeat=N):
            sur = -math.fsum(
                math.log2(sp.probs[sp.symbols.index(sym)]) for sym in combo
            )
            if abs(sur / N - H) <= eps + 1e-12:
                total += 1
                key = project(combo)
                groups[key] = groups.get(key, 0) + 1
        st = equivalence_class_stats(N, uniform4, mixed_structure, eps)
        assert st.typical_count == total
        assert st.class_count == len(groups)
        assert st.min_class_size == min(groups.values())
        assert st.max_class_size == max(groups.values())
        assert sum(groups.values()) == total

    def test_space_too_large(self, uniform4, mixed_structure):
        with pytest.raises(SpaceTooLarge):
            equivalence_class_stats(12, uniform4, mixed_structure, 0.1)

    def test_needs_positive_length(self, uniform4, mixed_structure):
        with pytest.raises(ValidationError):
            equivalence_class_stats(0, uniform4, mixed_structure, 0.1)
