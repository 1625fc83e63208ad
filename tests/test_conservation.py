"""Tree-weighted conservation scoring of alignment columns."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from structent import (
    AMINO_ACIDS,
    GAP,
    Alignment,
    AlphabetMismatch,
    Partition,
    SYNTHETIC_CLUSTER_HEIGHT,
    ValidationError,
    conservation_score,
    parse_fasta,
    parse_newick,
    synthetic_aa_tree,
    tree_to_distance,
)
from structent.sampling import random_partition

LETTERS = AMINO_ACIDS + GAP


def score_one(column_rows: list[str], **kw) -> float:
    """Score a single-column alignment against the synthetic tree."""
    aln = Alignment(
        tuple(f"r{i}" for i in range(len(column_rows))), tuple(column_rows)
    )
    tree = kw.pop("tree", None) or synthetic_aa_tree(
        include_gap=(kw.get("gap_mode") == "extra-letter")
    )
    report = conservation_score(aln, tree, **kw)
    return report.columns[0].h_u


class TestSyntheticTree:
    def test_shape(self):
        T = synthetic_aa_tree()
        assert len(T.alphabet) == 20
        assert T.root.height == pytest.approx(1.0)
        D = tree_to_distance(T)
        assert D.value("A", "V") == pytest.approx(SYNTHETIC_CLUSTER_HEIGHT)
        assert D.value("A", "F") == pytest.approx(1.0)

    def test_gap_leaf_is_maximally_distant(self):
        T = synthetic_aa_tree(include_gap=True)
        assert len(T.alphabet) == 21
        D = tree_to_distance(T)
        assert D.value("-", "A") == pytest.approx(1.0)
        assert D.value("-", "W") == pytest.approx(1.0)


class TestColumnScores:
    def test_fully_conserved_scores_zero(self):
        assert score_one(["A", "A", "A", "A"]) == pytest.approx(0.0, abs=1e-12)

    def test_within_cluster_split_scores_cluster_height(self):
        got = score_one(["A", "A", "V", "V"])
        assert got == pytest.approx(SYNTHETIC_CLUSTER_HEIGHT, abs=1e-9)

    def test_cross_cluster_split_scores_one(self):
        assert score_one(["A", "A", "F", "F"]) == pytest.approx(1.0, abs=1e-9)

    def test_skewed_within_cluster_split(self):
        # three letters inside one height-0.25 cluster at (1/2, 1/4, 1/4)
        got = score_one(["A", "A", "V", "I"])
        assert got == pytest.approx(0.25 * 1.5, abs=1e-9)

    def test_classical_entropy_reported_alongside(self):
        aln = Alignment(("r1", "r2"), ("AA", "VF"))
        report = conservation_score(aln, synthetic_aa_tree())
        within, across = report.columns
        assert within.h == pytest.approx(1.0, abs=1e-12)
        assert across.h == pytest.approx(1.0, abs=1e-12)
        assert within.h_u == pytest.approx(0.25, abs=1e-9)
        assert across.h_u == pytest.approx(1.0, abs=1e-9)

    def test_row_order_and_duplication_invariance(self):
        base = score_one(["A", "V", "F", "F"])
        reordered = score_one(["F", "A", "F", "V"])
        doubled = score_one(["A", "V", "F", "F"] * 2)
        assert reordered == pytest.approx(base, abs=1e-12)
        assert doubled == pytest.approx(base, abs=1e-12)


class TestGapHandling:
    def test_skip_renormalizes(self):
        gapped = score_one(["A", "V", "-", "-"])
        clean = score_one(["A", "V"])
        assert gapped == pytest.approx(clean, abs=1e-12)

    def test_low_coverage_flagged(self):
        aln = Alignment(("r1", "r2", "r3", "r4"), ("A", "-", "-", "-"))
        report = conservation_score(aln, synthetic_aa_tree())
        col = report.columns[0]
        assert col.coverage == pytest.approx(0.25)
        assert col.flagged
        assert report.flagged_columns == (1,)

    def test_coverage_at_threshold_not_flagged(self):
        aln = Alignment(("r1", "r2"), ("A", "-"))
        report = conservation_score(aln, synthetic_aa_tree())
        assert report.columns[0].coverage == pytest.approx(0.5)
        assert not report.columns[0].flagged

    def test_all_gap_column_scores_zero_and_flags(self):
        aln = Alignment(("r1", "r2"), ("-A", "-A"))
        report = conservation_score(aln, synthetic_aa_tree())
        assert report.columns[0].h_u == 0.0
        assert report.columns[0].flagged
        assert not report.columns[1].flagged

    def test_extra_letter_treats_gap_as_distant_state(self):
        got = score_one(["A", "A", "-", "-"], gap_mode="extra-letter")
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_extra_letter_needs_gap_in_tree(self):
        aln = Alignment(("r1", "r2"), ("A", "-"))
        with pytest.raises(AlphabetMismatch):
            conservation_score(aln, synthetic_aa_tree(), gap_mode="extra-letter")

    def test_bad_gap_mode(self):
        aln = Alignment(("r1",), ("A",))
        with pytest.raises(ValidationError):
            conservation_score(aln, synthetic_aa_tree(), gap_mode="drop")

    def test_bad_threshold(self):
        aln = Alignment(("r1",), ("A",))
        with pytest.raises(ValidationError):
            conservation_score(aln, synthetic_aa_tree(), coverage_threshold=1.5)


class TestCustomTree:
    def test_letter_outside_tree(self, two_cluster_tree):
        aln = Alignment(("r1", "r2"), ("W", "W"))
        with pytest.raises(AlphabetMismatch, match="column 1"):
            conservation_score(aln, two_cluster_tree)

    def test_scores_against_supplied_tree(self, two_cluster_tree):
        # two-cluster tree over {a,b,c,d} reused as a toy residue tree is not
        # possible (letters are lowercase), so rescale the synthetic tree
        # heights through a custom build instead
        from structent.ultrametric import UltrametricTree, leaf, node
        from structent import Alphabet

        T = UltrametricTree(
            Alphabet(("A", "C")), node(0.5, [leaf("A"), leaf("C")])
        )
        aln = Alignment(("r1", "r2"), ("A", "C"))
        report = conservation_score(aln, T)
        assert report.columns[0].h_u == pytest.approx(0.5, abs=1e-12)


class TestReducedView:
    def test_reduced_entropy_column(self):
        T = synthetic_aa_tree()
        groups = Partition(
            T.alphabet,
            [
                ("A", "V", "L", "I", "M"),
                ("F", "W", "Y"),
                ("S", "T", "N", "Q"),
                ("K", "R", "H"),
                ("D", "E"),
                ("C", "G", "P"),
            ],
        )
        aln = Alignment(("r1", "r2", "r3", "r4"), ("A", "V", "F", "F"))
        report = conservation_score(aln, T, reduce_partition=groups)
        col = report.columns[0]
        # grouping A,V together leaves a 50/50 split between two groups
        assert col.h_reduced == pytest.approx(1.0, abs=1e-12)
        assert col.h == pytest.approx(1.5, abs=1e-12)

    def test_reduced_column_in_csv(self):
        T = synthetic_aa_tree()
        groups = Partition(T.alphabet, [("A", "V"), tuple(
            a for a in T.alphabet.letters if a not in ("A", "V")
        )])
        aln = Alignment(("r1", "r2"), ("A", "V"))
        report = conservation_score(aln, T, reduce_partition=groups)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "column,coverage,h_u,h,h_reduced,flagged"
        cells = lines[1].split(",")
        assert float(cells[4]) == pytest.approx(0.0, abs=1e-12)


class TestReport:
    def test_csv_round_trip_values(self):
        aln = Alignment(("r1", "r2"), ("AAF", "AVF"))
        report = conservation_score(aln, synthetic_aa_tree())
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "column,coverage,h_u,h,flagged"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert [float(r[2]) for r in rows] == pytest.approx([0.0, 0.25, 0.0], abs=1e-9)
        assert all(r[4] == "0" for r in rows)

    def test_wide_alignment_matches_columnwise_scoring(self):
        letters = ["A", "V", "F", "S", "K", "D", "C", "W"]
        n_cols = 70
        row1 = "".join(letters[j % 8] for j in range(n_cols))
        row2 = "".join(letters[(j + 1) % 8] for j in range(n_cols))
        aln = Alignment(("r1", "r2"), (row1, row2))
        T = synthetic_aa_tree()
        wide = conservation_score(aln, T)
        assert len(wide.columns) == n_cols
        for j in (0, 13, 37, 69):
            single = Alignment(("r1", "r2"), (row1[j], row2[j]))
            expect = conservation_score(single, T).columns[0]
            got = wide.columns[j]
            assert got.h_u == pytest.approx(expect.h_u, abs=1e-12)
            assert got.index == j + 1

    def test_report_bytes_match_single_column_reports(self):
        # every column is scored on its own: the report of a wide alignment
        # is byte for byte the concatenation of one-column reports
        letters = "AVFSKDCWLT-"
        n_cols, rows = 90, 7
        seqs = tuple(
            "".join(letters[(3 * j + 5 * i + j * i) % len(letters)] for j in range(n_cols))
            for i in range(rows)
        )
        aln = Alignment(tuple(f"r{i}" for i in range(rows)), seqs)
        A = synthetic_aa_tree().alphabet
        part = Partition(A, [("A", "V", "F", "S"), tuple(a for a in A.letters if a not in "AVFS")])
        for gap_mode in ("skip", "extra-letter"):
            T = synthetic_aa_tree(include_gap=gap_mode == "extra-letter")
            kw = {"gap_mode": gap_mode}
            if gap_mode == "skip":
                kw["reduce_partition"] = part
            wide = conservation_score(aln, T, **kw).to_csv().splitlines()
            for j in range(n_cols):
                single = Alignment(aln.names, tuple(s[j] for s in seqs))
                row = conservation_score(single, T, **kw).to_csv().splitlines()[1]
                assert wide[j + 1] == f"{j + 1}," + row.split(",", 1)[1]


@hst.composite
def scoring_cases(draw):
    """(alignment, tree, gap mode, threshold, reduce partition or None).

    Columns are all gaps, mostly gaps, one letter or a mix, drawn from a
    pool of letters; the Newick tree groups the letters it holds into
    clusters and may lack some of them (never the gap in extra-letter mode).
    """
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    n_rows, n_cols = draw(hst.integers(1, 30)), draw(hst.integers(1, 40))
    pool = np.array(draw(hst.lists(hst.sampled_from(AMINO_ACIDS), min_size=1, max_size=20, unique=True)))
    grid = np.full((n_rows, n_cols), GAP)
    for j, kind in enumerate(rng.integers(0, 4, size=n_cols)):
        if kind == 1:  # mostly gaps
            grid[:, j] = np.where(rng.random(n_rows) < 0.8, GAP, rng.choice(pool, n_rows))
        elif kind == 2:
            grid[:, j] = rng.choice(pool)
        elif kind == 3:
            grid[:, j] = rng.choice(np.append(pool, GAP), n_rows)
    aln = Alignment(tuple(f"r{i}" for i in range(n_rows)), tuple("".join(r) for r in grid))

    gap_mode = draw(hst.sampled_from(["skip", "extra-letter"]))
    missing = draw(hst.lists(hst.sampled_from(AMINO_ACIDS), max_size=3, unique=True) | hst.just([]))
    with_gap = gap_mode == "extra-letter" or draw(hst.booleans())
    leaves = [a for a in LETTERS if a not in missing and (a != GAP or with_gap)]
    rng.shuffle(leaves)
    cuts = np.sort(rng.choice(np.arange(1, len(leaves)), size=draw(hst.integers(1, 5)), replace=False))
    low = draw(hst.sampled_from([0.125, 0.25, 0.5]))
    clusters = [
        f"{g[0]}:1" if len(g) == 1 else "(" + ",".join(f"{a}:{low}" for a in g) + f"):{1 - low}"
        for g in np.split(np.array(leaves), cuts)
    ]
    T = parse_newick("(" + ",".join(clusters) + ");", lengths="L")

    threshold = draw(hst.sampled_from([0.0, 0.5, 1.0]) | hst.floats(0.0, 1.0))
    part = random_partition(T.alphabet, rng) if draw(hst.booleans()) else None
    return aln, T, gap_mode, threshold, part


class TestAgainstReference:
    @given(scoring_cases())
    @settings(max_examples=200, deadline=None)
    def test_equals_column_loop(self, case):
        # counts from the code matrix give the same scores, and the same
        # error for the first column holding a letter the tree lacks
        def outcome(score):
            try:
                return score(*case)
            except AlphabetMismatch as e:
                return f"AlphabetMismatch: {e}"

        got = outcome(lambda *a: conservation_score(*a).columns)
        assert got == outcome(oracles.conservation_score_ref)

    def test_first_missing_letter_in_row_order(self):
        T = parse_newick("((A:0.25,C:0.25):0.75,D:1);", lengths="L")
        aln = Alignment(("r1", "r2", "r3", "r4"), ("AAA", "AWA", "AVE", "AEW"))
        with pytest.raises(AlphabetMismatch, match=r"^column 2: letter 'W' is not a leaf of the tree$"):
            conservation_score(aln, T)


def test_traced_memory_per_cell():
    # parsing and scoring a 400 x 3000 alignment allocate a few bytes per
    # cell: the rows, their uint8 codes and one boolean mask per letter at a time
    rows, cols = 400, 3000
    rng = np.random.default_rng(11)
    cells = np.frombuffer(LETTERS.encode(), dtype=np.uint8)[rng.integers(0, len(LETTERS), (rows, cols))]
    text = "".join(f">s{i}\n{r.tobytes().decode()}\n" for i, r in enumerate(cells))
    T = synthetic_aa_tree()
    tracemalloc.start()
    try:
        aln = parse_fasta(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]  # the alignment
        tracemalloc.reset_peak()
        report = conservation_score(aln, T)
        score_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(report.columns) == cols
    assert parse_peak <= 8 * rows * cols, parse_peak / (rows * cols)
    assert score_peak <= 8 * rows * cols, score_peak / (rows * cols)
