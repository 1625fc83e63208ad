"""Code trees, distance-weighted code length, rewrite optimization, and bounds."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import oracles
from structent import (
    Alphabet,
    CodeTree,
    DistanceMatrix,
    Distribution,
    GAP_BOUND,
    PartitionStructure,
    StructuredAlphabet,
    TooFewLetters,
    UltrametricTree,
    UnsupportedRegime,
    ValidationError,
    code_lengths,
    code_tree_from_nesting,
    distance_code_lengths,
    entropy,
    esscl,
    h_s,
    hu_arcwise,
    initial_code_tree,
    lambda_u,
    leaf,
    mu_u,
    node,
    optimize,
    optimize_with_trace,
    run_bound_trials,
    to_partition_structure,
    tree_to_distance,
    typical_compression_check,
)
from structent import coding
from structent.sampling import (
    default_letters,
    random_code_shape,
    random_distribution,
    random_structure,
    random_ultrametric_tree,
)


def random_code_tree(A: Alphabet, rng) -> CodeTree:
    return code_tree_from_nesting(A, random_code_shape(list(A.letters), rng))


def random_symmetric_distance(A: Alphabet, rng) -> DistanceMatrix:
    n = len(A)
    m = rng.uniform(0.05, 1.0, size=(n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return DistanceMatrix(A, m)


class TestCodeTree:
    def test_codewords_prefix_free(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            A = default_letters(int(rng.integers(2, 10)))
            C = random_code_tree(A, rng)
            words = list(C.codewords().values())
            assert len(set(words)) == len(words)
            for i, w in enumerate(words):
                for j, v in enumerate(words):
                    if i != j:
                        assert not v.startswith(w)

    def test_leaves_must_cover_alphabet(self, abcd):
        with pytest.raises(ValidationError):
            code_tree_from_nesting(abcd, (("a", "b"), "c"))

    def test_duplicate_leaf_rejected(self, abcd):
        with pytest.raises(ValidationError):
            code_tree_from_nesting(abcd, ((("a", "b"), ("c", "a")), "d"))

    def test_leaves_are_the_letters_under_each_node(self):
        rng = np.random.default_rng(76)
        for _ in range(20):
            C = random_code_tree(default_letters(int(rng.integers(2, 12))), rng)
            words = C.codewords()
            stack = [(C.root, "")]
            while stack:
                nd, prefix = stack.pop()
                assert nd.leaves == {a for a, w in words.items() if w.startswith(prefix)}
                if not nd.is_leaf:
                    stack += [(nd.left, prefix + "0"), (nd.right, prefix + "1")]

    def test_deep_nesting_chain(self, caterpillar):
        # 2000 levels: building and costing the tree must not recurse per level
        n = 2000
        T = caterpillar(n)
        A = T.alphabet
        nesting = A.letters[0]
        for a in A.letters[1:]:
            nesting = (nesting, a)
        C = code_tree_from_nesting(A, nesting)
        words = C.codewords()
        assert words[A.letters[0]] == "0" * (n - 1)
        for k in range(1, n):
            assert words[A.letters[k]] == "0" * (n - 1 - k) + "1"
        P = random_distribution(A, np.random.default_rng(n))
        D = tree_to_distance(T)
        mu, lam = mu_u(C, P, D), lambda_u(C, P, D)
        lens = distance_code_lengths(C, P, D)
        assert hu_arcwise(T, P) <= lam + 1e-9
        assert lam <= mu + 1e-9
        assert math.fsum(P.p(a) * lens[a] for a in A.letters) == pytest.approx(mu, abs=1e-9)


class TestMuLambda:
    def test_matched_tree_worked_value(self, abcd, uniform4, two_cluster_distance):
        C = code_tree_from_nesting(abcd, (("a", "b"), ("c", "d")))
        assert mu_u(C, uniform4, two_cluster_distance) == pytest.approx(1.2, abs=1e-12)
        assert lambda_u(C, uniform4, two_cluster_distance) == pytest.approx(
            1.2, abs=1e-12
        )

    def test_mixed_tree_worked_value(self, abcd, uniform4, two_cluster_distance):
        C = code_tree_from_nesting(abcd, (("a", "c"), ("b", "d")))
        # root split has expected inter-set distance mean(.2, 1, 1, .2) = .6? no:
        # pairs (a,b),(a,d),(c,b),(c,d) -> 1, 1... distances: a-b=.2? a,c vs b,d:
        # (a,b)=.2,(a,d)=1,(c,b)=1,(c,d)=.2 -> mean .6; children split at distance 1
        assert mu_u(C, uniform4, two_cluster_distance) == pytest.approx(1.6, abs=1e-12)

    def test_single_letter_is_zero(self):
        A = Alphabet(("a",))
        C = CodeTree(A, code_tree_from_nesting(A, "a").root)
        P = Distribution(A, (1.0,))
        D = DistanceMatrix(A, [[0.0]])
        assert mu_u(C, P, D) == 0.0
        assert lambda_u(C, P, D) == 0.0

    def test_closed_form_matches_recursive_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            A = default_letters(int(rng.integers(2, 9)))
            P = random_distribution(A, rng)
            D = random_symmetric_distance(A, rng)
            C = random_code_tree(A, rng)
            dist = oracles.dist_dict(D)
            probs = P.as_mapping()
            assert mu_u(C, P, D) == pytest.approx(
                oracles.mu_recursive_ref(C.root, dist, probs), abs=1e-9
            )
            assert lambda_u(C, P, D) == pytest.approx(
                oracles.lambda_recursive_ref(C.root, dist, probs), abs=1e-9
            )

    def test_tables_match_recursive_oracle_with_zero_mass_letters(self):
        # exact zeros leave branches without mass, which the distance table
        # weights uniformly
        rng = np.random.default_rng(75)
        for _ in range(80):
            n = int(rng.integers(2, 12))
            A = default_letters(n)
            p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
            p[int(rng.integers(n))] += 0.5
            P = Distribution(A, p / p.sum())
            D = random_symmetric_distance(A, rng)
            C = random_code_tree(A, rng)
            dist, probs = oracles.dist_dict(D), P.as_mapping()
            assert mu_u(C, P, D) == pytest.approx(
                oracles.mu_recursive_ref(C.root, dist, probs), abs=1e-12
            )
            assert lambda_u(C, P, D) == pytest.approx(
                oracles.lambda_recursive_ref(C.root, dist, probs), abs=1e-12
            )

    def test_lambda_below_mu(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            A = default_letters(int(rng.integers(2, 9)))
            P = random_distribution(A, rng)
            D = random_symmetric_distance(A, rng)
            C = random_code_tree(A, rng)
            assert lambda_u(C, P, D) <= mu_u(C, P, D) + 1e-9

    def test_entropy_lambda_mu_chain_on_ultrametric(self):
        rng = np.random.default_rng(63)
        for _ in range(80):
            T = random_ultrametric_tree(int(rng.integers(2, 12)), rng)
            P = random_distribution(T.alphabet, rng)
            D = tree_to_distance(T)
            C = random_code_tree(T.alphabet, rng)
            hu = hu_arcwise(T, P)
            lam = lambda_u(C, P, D)
            mu = mu_u(C, P, D)
            assert hu <= lam + 1e-9
            assert lam <= mu + 1e-9

    def test_hamming_distance_gives_classical_length(self):
        rng = np.random.default_rng(64)
        for _ in range(40):
            A = default_letters(int(rng.integers(2, 9)))
            P = random_distribution(A, rng)
            n = len(A)
            D = DistanceMatrix(A, np.ones((n, n)) - np.eye(n))
            C = random_code_tree(A, rng)
            classical = math.fsum(
                P.p(a) * d for a, d in C.depths().items()
            )
            assert mu_u(C, P, D) == pytest.approx(classical, abs=1e-9)

    def test_uniform_distance_lambda_is_d_times_entropy(self):
        rng = np.random.default_rng(65)
        for _ in range(40):
            A = default_letters(int(rng.integers(2, 9)))
            P = random_distribution(A, rng)
            d = float(rng.uniform(0.1, 3.0))
            n = len(A)
            D = DistanceMatrix(A, d * (np.ones((n, n)) - np.eye(n)))
            C = random_code_tree(A, rng)
            assert lambda_u(C, P, D) == pytest.approx(
                d * entropy(P.probs), abs=1e-9
            )

    def test_unbalanced_split_makes_lambda_strictly_smaller(self, abcd, two_cluster_distance):
        P = Distribution(abcd, (0.7, 0.1, 0.1, 0.1))
        C = code_tree_from_nesting(abcd, ((("a", "b"), "c"), "d"))
        assert lambda_u(C, P, two_cluster_distance) < mu_u(C, P, two_cluster_distance)

    def test_distance_code_lengths_aggregate(self):
        rng = np.random.default_rng(66)
        for _ in range(30):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            D = random_symmetric_distance(A, rng)
            C = random_code_tree(A, rng)
            lens = distance_code_lengths(C, P, D)
            assert math.fsum(P.p(a) * lens[a] for a in A.letters) == pytest.approx(
                mu_u(C, P, D), abs=1e-9
            )


class TestEsscl:
    def test_traditional_structure_is_classical_length(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            if min(P.probs) <= 1e-6:
                continue
            C = random_code_tree(A, rng)
            X = StructuredAlphabet(P, PartitionStructure.traditional(A))
            classical = math.fsum(P.p(a) * d for a, d in C.depths().items())
            assert esscl(C, X) == pytest.approx(classical, abs=1e-9)

    def test_matched_tree_achieves_structure_entropy(
        self, abcd, uniform4, mixed_structure
    ):
        C = code_tree_from_nesting(abcd, (("a", "b"), ("c", "d")))
        X = StructuredAlphabet(uniform4, mixed_structure)
        assert esscl(C, X) == pytest.approx(1.6, abs=1e-12)

    def test_mismatched_tree_exceeds_structure_entropy(
        self, abcd, uniform4, mixed_structure
    ):
        C = code_tree_from_nesting(abcd, (("a", "c"), ("b", "d")))
        X = StructuredAlphabet(uniform4, mixed_structure)
        assert esscl(C, X) >= 1.6 - 1e-12

    def test_never_below_structure_entropy(self):
        rng = np.random.default_rng(68)
        for _ in range(100):
            A = default_letters(int(rng.integers(2, 9)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng, normalized=bool(rng.integers(0, 2)))
            C = random_code_tree(A, rng)
            X = StructuredAlphabet(P, S)
            assert esscl(C, X) >= h_s(X) - 1e-9

    def test_per_letter_and_per_node_forms_agree(self):
        rng = np.random.default_rng(69)
        for _ in range(40):
            A = default_letters(int(rng.integers(2, 8)))
            P = random_distribution(A, rng)
            S = random_structure(A, rng)
            C = random_code_tree(A, rng)
            X = StructuredAlphabet(P, S)
            lens = code_lengths(C, X)
            assert math.fsum(P.p(a) * lens[a] for a in A.letters) == pytest.approx(
                esscl(C, X), abs=1e-9
            )


class TestOptimize:
    def test_two_cluster_instance_reaches_entropy(self, two_cluster_tree, uniform4):
        C, trace = optimize_with_trace(two_cluster_tree, uniform4)
        D = tree_to_distance(two_cluster_tree)
        assert mu_u(C, uniform4, D) == pytest.approx(1.2, abs=1e-12)
        assert trace.final <= trace.initial + 1e-12

    @pytest.mark.parametrize("k, count, own", [(3, 3, {1, 2}), (4, 15, {2})])
    def test_arrangement_tables_in_brute_force_order(self, k, count, own):
        tab = coding._SHAPES[k]

        def nesting(uses) -> tuple:  # reverse preorder builds both sides of a split first
            built = {}
            for s in reversed(uses.tolist()):
                x, y = tab.splits[s]
                built[x | y] = tuple(built.get(z, z.bit_length() - 1) for z in (x, y))
            return built[(1 << k) - 1]

        assert [nesting(u) for u in tab.uses] == list(oracles.all_code_shapes(range(k)))
        assert len(tab.uses) == count
        assert set(tab.own) == own
        for kl, s in tab.own.items():  # the first kl blocks on the left, the rest on the right
            assert tab.splits[tab.uses[s, 0]] == ((1 << kl) - 1, (1 << k) - (1 << kl))

    def test_two_cluster_result_is_exhaustive_optimum(self, two_cluster_tree, uniform4):
        D = tree_to_distance(two_cluster_tree)
        shapes = list(oracles.all_code_shapes(list(two_cluster_tree.alphabet.letters)))
        assert len(shapes) == 15
        best = min(
            mu_u(code_tree_from_nesting(two_cluster_tree.alphabet, s), uniform4, D)
            for s in shapes
        )
        C = optimize(two_cluster_tree, uniform4)
        assert mu_u(C, uniform4, D) == pytest.approx(best, abs=1e-12)

    def test_two_letter_tree(self):
        A = Alphabet(("a", "b"))
        T = UltrametricTree(A, node(0.7, [leaf("a"), leaf("b")]))
        P = Distribution(A, (0.4, 0.6))
        C = optimize(T, P)
        D = tree_to_distance(T)
        assert mu_u(C, P, D) == pytest.approx(0.7, abs=1e-12)

    def test_single_letter_rejected(self):
        A = Alphabet(("a",))
        T = UltrametricTree(A, leaf("a"))
        with pytest.raises(TooFewLetters):
            optimize(T, Distribution(A, (1.0,)))

    def test_never_increases_cost(self):
        rng = np.random.default_rng(70)
        for _ in range(60):
            T = random_ultrametric_tree(int(rng.integers(3, 15)), rng)
            P = random_distribution(T.alphabet, rng)
            D = tree_to_distance(T)
            C0 = initial_code_tree(T, P)
            C, trace = optimize_with_trace(T, P)
            assert mu_u(C, P, D) <= mu_u(C0, P, D) + 1e-9
            assert trace.final <= trace.initial + 1e-12
            for before, after in trace.rewrites:
                assert after < before

    def test_restart_budget_is_the_trace_length(self, monkeypatch):
        import structent.coding as coding

        rng = np.random.default_rng(4)
        T = random_ultrametric_tree(20, rng)
        P = random_distribution(T.alphabet, rng)
        C, trace = optimize_with_trace(T, P)
        r = len(trace.rewrites)
        assert r >= 1
        real = coding._optimize_node
        for cap in (r - 1, r):  # the cap replaces the budget of max(100, 10 n^2)
            monkeypatch.setattr(
                coding, "_optimize_node", lambda root, P, D, _, trace, cap=cap: real(root, P, D, cap, trace)
            )
            if cap < r:
                with pytest.raises(ValidationError, match="exceeded its restart budget"):
                    optimize(T, P)
            else:
                assert list(optimize(T, P).codewords().items()) == list(C.codewords().items())

    def test_result_between_exhaustive_optimum_and_entropy_bound(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            T = random_ultrametric_tree(n, rng)
            P = random_distribution(T.alphabet, rng)
            D = tree_to_distance(T)
            shapes = oracles.all_code_shapes(list(T.alphabet.letters))
            best = min(
                mu_u(code_tree_from_nesting(T.alphabet, s), P, D) for s in shapes
            )
            C = optimize(T, P)
            got = mu_u(C, P, D)
            assert got >= best - 1e-12
            assert got <= hu_arcwise(T, P) + GAP_BOUND + 1e-9

    @staticmethod
    def _check_against_search_oracle(T, P):
        C, trace = optimize_with_trace(T, P)
        D = tree_to_distance(T)
        start = oracles.ref_tree(initial_code_tree(T, P).root)
        ref, rewrites = oracles.optimize_ref(start, oracles.dist_dict(D), P.as_mapping())
        assert C.codewords() == oracles.ref_codewords(ref)
        assert len(trace.rewrites) == rewrites
        assert trace.final == pytest.approx(mu_u(C, P, D), abs=1e-12)

    def test_matches_brute_force_search(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            T = random_ultrametric_tree(int(rng.integers(3, 31)), rng)
            self._check_against_search_oracle(T, random_distribution(T.alphabet, rng))

    def test_matches_brute_force_search_with_zero_mass_letters(self):
        # exact zeros leave blocks and whole subtrees without mass, whose
        # sides the search costs with uniform weights
        rng = np.random.default_rng(74)
        for _ in range(60):
            n = int(rng.integers(3, 21))
            T = random_ultrametric_tree(n, rng)
            p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.6)
            p[int(rng.integers(n))] += 0.5
            self._check_against_search_oracle(T, Distribution(T.alphabet, p / p.sum()))

    def test_hamming_result_between_huffman_and_entropy_plus_one(self):
        # with D = Hamming the cost is the classical expected length; the
        # rewrite search is a heuristic, so Huffman bounds it from below and
        # the one-bit entropy bound from above
        rng = np.random.default_rng(72)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            A = default_letters(n)
            P = random_distribution(A, rng)
            T = UltrametricTree(A, node(1.0, [leaf(a) for a in A.letters]))
            C = optimize(T, P)
            D = tree_to_distance(T)
            huff = oracles.huffman_expected_length(list(P.probs))
            got = mu_u(C, P, D)
            assert got >= huff - 1e-9
            assert got <= entropy(P.probs) + 1.0 + 1e-9

    def test_optimize_deep_caterpillar(self, caterpillar):
        # 700 levels: building the starting code tree must not recurse per level
        T = caterpillar(700)
        P = random_distribution(T.alphabet, np.random.default_rng(700))
        C = optimize(T, P)
        assert set(C.codewords()) == set(T.alphabet.letters)
        assert hu_arcwise(T, P) <= mu_u(C, P, tree_to_distance(T)) + 1e-12


    def test_optimize_2000_leaf_caterpillar(self, caterpillar):
        # 2000 levels at the default recursion limit
        T = caterpillar(2000)
        P = random_distribution(T.alphabet, np.random.default_rng(2000))
        C, trace = optimize_with_trace(T, P)
        assert set(C.codewords()) == set(T.alphabet.letters)
        mu = mu_u(C, P, tree_to_distance(T))
        assert trace.final == pytest.approx(mu, abs=1e-12)
        hu = hu_arcwise(T, P)
        assert hu <= mu <= hu + GAP_BOUND


class TestSampling:
    def test_draws_match_recursive_sampling(self):
        # the explicit-stack generators draw their splits in the order of
        # the recursive ones, so seeded trees and shapes are unchanged
        for seed in range(200):
            n = 2 + seed % 40
            normalized = bool(seed % 2)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            T = random_ultrametric_tree(n, rng, normalized=normalized)
            got = T._fold(lambda i, kids: (T._height[i], *kids) if kids else T._nodes[i].letter)
            assert got == oracles.random_ultrametric_tree_ref(
                default_letters(n).letters, ref, normalized=normalized
            )
            letters = list(range(1 + seed % 30))
            assert random_code_shape(letters, rng) == oracles.random_code_shape_ref(letters, ref)
            assert rng.random() == ref.random()


class TestBoundTrials:
    def test_deterministic_replay(self, tmp_path):
        r1 = run_bound_trials(count=40, n_min=3, n_max=12, seed=99, violations_dir=str(tmp_path))
        r2 = run_bound_trials(count=40, n_min=3, n_max=12, seed=99, violations_dir=str(tmp_path))
        assert r1.to_dict() == r2.to_dict()

    def test_no_violations_on_moderate_batch(self, tmp_path):
        report = run_bound_trials(
            count=200, n_min=3, n_max=20, seed=7, violations_dir=str(tmp_path)
        )
        assert report.violations == 0
        assert report.max_gap <= GAP_BOUND + 1e-9
        assert len(report.records) == 200

    def test_gap_never_negative(self, tmp_path):
        report = run_bound_trials(count=100, n_min=2, n_max=15, seed=11, violations_dir=str(tmp_path))
        for rec in report.records:
            assert rec.gap >= -1e-9

    def test_report_dict_shape(self, tmp_path):
        report = run_bound_trials(count=5, n_min=3, n_max=5, seed=1, violations_dir=str(tmp_path))
        d = report.to_dict()
        assert set(d) == {
            "seed",
            "count",
            "n_range",
            "max_gap",
            "violations",
            "violation_files",
            "records",
        }
        assert len(d["records"]) == 5
        for rec in d["records"]:
            assert rec["gap"] == pytest.approx(rec["mu"] - rec["hu"], abs=1e-15)

    def test_bad_range_rejected(self):
        with pytest.raises(ValidationError):
            run_bound_trials(count=1, n_min=1, n_max=4, seed=0)
        with pytest.raises(ValidationError):
            run_bound_trials(count=1, n_min=5, n_max=4, seed=0)

    def test_negative_count_or_seed_rejected(self):
        for count, seed in ((-1, 0), (1, -1)):
            with pytest.raises(ValidationError, match="non-negative"):
                run_bound_trials(count=count, n_min=3, n_max=4, seed=seed)

    def test_one_distance_matrix_per_trial(self, tmp_path, monkeypatch):
        import structent.coding as coding

        trees = []
        real = coding.tree_to_distance
        monkeypatch.setattr(coding, "tree_to_distance", lambda T: trees.append(T) or real(T))
        monkeypatch.setattr(coding, "GAP_BOUND", -2.0)  # write every trial out as a violation
        report = run_bound_trials(count=6, n_min=3, n_max=9, seed=5, violations_dir=str(tmp_path))
        assert len(trees) == 6 and report.violations == 6
        for path, T in zip(report.violation_files, trees):
            with open(path) as fh:
                assert json.load(fh)["distance"] == real(T).matrix.tolist()


class TestBlockCoding:
    def test_mixed_structure_two_blocks(self, uniform4, mixed_structure):
        X = StructuredAlphabet(uniform4, mixed_structure)
        per_symbol, hs_val = typical_compression_check(X, 2)
        assert hs_val == pytest.approx(1.6, abs=1e-12)
        assert per_symbol == pytest.approx(1.6, abs=1e-9)

    def test_traditional_three_blocks(self, abcd, uniform4):
        X = StructuredAlphabet(uniform4, PartitionStructure.traditional(abcd))
        per_symbol, hs_val = typical_compression_check(X, 3)
        assert per_symbol == pytest.approx(2.0, abs=1e-9)
        assert hs_val == pytest.approx(2.0, abs=1e-12)

    def test_single_block_reduces_to_esscl(self, abcd, uniform4, mixed_structure):
        X = StructuredAlphabet(uniform4, mixed_structure)
        per_symbol, hs_val = typical_compression_check(X, 1)
        assert per_symbol == pytest.approx(hs_val, abs=1e-9)

    def test_exactness_across_regimes(self):
        rng = np.random.default_rng(73)
        for n in (2, 4, 8):
            A = default_letters(n)
            P = Distribution.uniform(A)
            for m in (1, 2, 3):
                if n**m > 512:
                    continue
                S = random_structure(A, rng, normalized=True)
                per_symbol, hs_val = typical_compression_check(
                    StructuredAlphabet(P, S), m
                )
                assert per_symbol == pytest.approx(hs_val, abs=1e-9)

    def test_non_uniform_rejected(self, abcd, mixed_structure):
        P = Distribution(abcd, (0.4, 0.3, 0.2, 0.1))
        with pytest.raises(UnsupportedRegime):
            typical_compression_check(StructuredAlphabet(P, mixed_structure), 2)

    def test_non_power_of_two_rejected(self):
        A = default_letters(3)
        X = StructuredAlphabet(
            Distribution.uniform(A), PartitionStructure.traditional(A)
        )
        with pytest.raises(UnsupportedRegime):
            typical_compression_check(X, 2)


class TestViolationSerialization:
    def test_violation_file_schema_roundtrips(self, tmp_path):
        # force the writer directly: serialize a synthetic record
        from structent.coding import TrialRecord, _write_violation

        rng = np.random.default_rng(74)
        T = random_ultrametric_tree(5, rng)
        P = random_distribution(T.alphabet, rng)
        rec = TrialRecord(seed=123, n=5, hu=1.0, mu=2.5)
        path = _write_violation(str(tmp_path), 0, rec, tree_to_distance(T), P)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["seed"] == 123
        assert payload["gap"] == pytest.approx(1.5)
        assert len(payload["alphabet"]) == 5
        assert len(payload["distance"]) == 5
        assert sum(payload["probs"]) == pytest.approx(1.0)
