"""Parser/writer round-trips and anchored error reporting."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
import textgen
from structent import (
    AMINO_ACIDS,
    GAP,
    Alignment,
    Alphabet,
    DistanceMatrix,
    Distribution,
    ParseError,
    Partition,
    PartitionStructure,
    StructentError,
    UltrametricTree,
    ValidationError,
    distance_to_csv,
    distribution_to_json,
    leaf,
    node,
    parse_distance_csv,
    parse_distribution_json,
    parse_fasta,
    parse_joint_json,
    parse_newick,
    parse_points_csv,
    parse_stockholm,
    parse_structure_json,
    structure_to_json,
    tree_equal,
    tree_to_distance,
    tree_to_newick,
)

TWO_CLUSTER_NEWICK = "((a:0.1,b:0.1):0.4,(c:0.1,d:0.1):0.4);"


class TestAlignment:
    def test_column_access(self):
        aln = Alignment(("r1", "r2"), ("AC-", "AG-"))
        assert aln.n_rows == 2
        assert aln.n_cols == 3
        assert aln.column(0) == "AA"
        assert aln.column(2) == "--"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            Alignment(("r1", "r2"), ("ACD", "AC"))

    def test_invalid_residue_rejected(self):
        with pytest.raises(ValidationError, match="column 2"):
            Alignment(("r1",), ("AZA",))

    def test_name_count_must_match(self):
        with pytest.raises(ValidationError):
            Alignment(("r1",), ("ACD", "ACD"))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (("AéC",), "row 'r0' column 2: invalid character 'é'"),
            (("AC", "☃A"), "row 'r1' column 1: invalid character '☃'"),
            (("A☃?", "AAA"), "row 'r0' column 2: invalid character '☃'"),
            (("ACD", "AC?"), "row 'r1' column 3: invalid character '?'"),
            (("A\x00C",), "row 'r0' column 2: invalid character '\\x00'"),
            (("ACD", "AcD"), "row 'r1' column 2: invalid character 'c'"),
            # the first bad cell in row-major order
            (("ACD", "ZAé", "AAz"), "row 'r1' column 1: invalid character 'Z'"),
            (("AC*", "*AC"), "row 'r0' column 3: invalid character '*'"),
            # rows are checked in order, each for its length before its characters
            (("AC", "AZA"), "row 'r1' has length 3, expected 2"),
            (("AZ", "ACD"), "row 'r0' column 2: invalid character 'Z'"),
        ],
    )
    def test_validation_messages(self, rows, message):
        with pytest.raises(ValidationError) as exc:
            Alignment(tuple(f"r{i}" for i in range(len(rows))), rows)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rows", [("A",), ("AC-", "AG-"), ("-" * 5, "WYVAC", "DE-KL"), ("", "")])
    def test_code_matrix_is_not_a_field(self, rows):
        names = tuple(f"r{i}" for i in range(len(rows)))
        aln = Alignment(names, rows)
        assert [f.name for f in dataclasses.fields(aln)] == ["names", "rows"]
        assert aln == Alignment(names, rows) and hash(aln) == hash((names, rows))
        assert repr(aln) == f"Alignment(names={names!r}, rows={rows!r})"
        assert aln._codes.dtype == np.uint8 and not aln._codes.flags.writeable
        assert aln._codes.tolist() == [[(AMINO_ACIDS + GAP).index(ch) for ch in row] for row in rows]


class TestFasta:
    def test_multiline_records(self):
        text = ">seq1 some description\nACDE\nFGHI\n>seq2\nacde\nfghi\n"
        aln = parse_fasta(text)
        assert aln.names == ("seq1", "seq2")
        assert aln.rows == ("ACDEFGHI", "ACDEFGHI")

    def test_dots_become_gaps(self):
        aln = parse_fasta(">s\nAC.E\n")
        assert aln.rows == ("AC-E",)

    def test_data_before_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_fasta("ACDE\n>s\nACDE\n")

    def test_empty_name(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_fasta(">\nACDE\n")

    def test_no_records(self):
        with pytest.raises(ParseError):
            parse_fasta("\n\n")


class TestStockholm:
    def test_blocked_alignment(self):
        text = (
            "# STOCKHOLM 1.0\n"
            "#=GF ID demo\n"
            "s1 ACDE\n"
            "s2 AC.E\n"
            "\n"
            "s1 FGHI\n"
            "s2 FGHI\n"
            "//\n"
        )
        aln = parse_stockholm(text)
        assert aln.names == ("s1", "s2")
        assert aln.rows == ("ACDEFGHI", "AC-EFGHI")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_stockholm("s1 ACDE\n//\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_stockholm("# STOCKHOLM 1.0\ns1 ACDE\ns2 AC DE\n//\n")

    def test_no_sequences(self):
        with pytest.raises(ParseError):
            parse_stockholm("# STOCKHOLM 1.0\n//\n")


def outcome(parse, text):
    """The names and rows a parser gives, or the type and message it raises."""
    try:
        aln = parse(text)
    except StructentError as e:
        return type(e), str(e)
    return aln.names, aln.rows


class TestAlignmentText:
    @pytest.mark.parametrize("ch", textgen.NON_ASCII_LETTERS)
    @pytest.mark.parametrize("parse, text", [
        (parse_fasta, ">a\nA{}\n>b\nAC\n"),
        (parse_stockholm, "# STOCKHOLM 1.0\na A{}\nb AC\n//\n"),
    ])
    def test_non_ascii_rejected_as_written(self, parse, text, ch):
        with pytest.raises(ValidationError) as e:
            parse(text.format(ch))
        assert str(e.value) == f"row 'a' column 2: invalid character {ch!r}"

    @given(textgen.ascii_fastas())
    @settings(max_examples=400, deadline=None)
    def test_fasta_matches_line_reader(self, text):
        assert text.isascii()
        ref = outcome(lambda t: Alignment(*oracles.parse_fasta_ref(t)), text)
        assert outcome(parse_fasta, text) == ref

    @given(textgen.ascii_stockholms())
    @settings(max_examples=400, deadline=None)
    def test_stockholm_matches_line_reader(self, text):
        assert text.isascii()
        ref = outcome(lambda t: Alignment(*oracles.parse_stockholm_ref(t)), text)
        assert outcome(parse_stockholm, text) == ref

    def test_one_clean_per_record(self, monkeypatch):
        # a record's wrapped lines are joined first and cleaned once
        import structent.io as sio

        calls = []
        clean = sio._clean_residues
        monkeypatch.setattr(sio, "_clean_residues", lambda seq: calls.append(seq) or clean(seq))
        rows = ["acdefghiklmnpqrstvwy." * 15] * 7
        text = "".join(f">r{k}\n" + "".join(row[i:i + 60] + "\n" for i in range(0, len(row), 60)) for k, row in enumerate(rows))
        aln = parse_fasta(text)
        assert len(calls) == len(rows) and aln.rows == tuple(r.upper().replace(".", "-") for r in rows)
        calls.clear()
        blocks = ["# STOCKHOLM 1.0"] + [f"r{k} {row[i:i + 60]}" for i in range(0, len(rows[0]), 60) for k, row in enumerate(rows)]
        assert parse_stockholm("\n".join(blocks) + "\n//\n") == aln
        assert len(calls) == len(rows)


class TestNewick:
    def test_arc_lengths_reconstruct_heights(self):
        T = parse_newick(TWO_CLUSTER_NEWICK)
        D = tree_to_distance(T)
        assert D.value("a", "b") == pytest.approx(0.2, abs=1e-12)
        assert D.value("c", "d") == pytest.approx(0.2, abs=1e-12)
        assert D.value("a", "c") == pytest.approx(1.0, abs=1e-12)
        assert T.root.height == pytest.approx(1.0, abs=1e-12)

    def test_height_drop_lengths(self):
        T = parse_newick(TWO_CLUSTER_NEWICK, lengths="L")
        D = tree_to_distance(T)
        assert D.value("a", "b") == pytest.approx(0.1, abs=1e-12)
        assert D.value("a", "c") == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_both_conventions(self, two_cluster_tree):
        for lengths in ("arc", "L"):
            text = tree_to_newick(two_cluster_tree, lengths=lengths)
            back = parse_newick(text, lengths=lengths)
            assert back.alphabet == two_cluster_tree.alphabet
            assert np.allclose(
                tree_to_distance(back).matrix,
                tree_to_distance(two_cluster_tree).matrix,
                atol=1e-12,
            )

    def test_multifurcation_allowed(self):
        T = parse_newick("(a:0.5,b:0.5,c:0.5);")
        D = tree_to_distance(T)
        assert D.value("a", "b") == pytest.approx(1.0)
        assert D.value("b", "c") == pytest.approx(1.0)

    def test_non_equidistant_leaves_rejected(self):
        with pytest.raises(ValidationError, match="equidistant"):
            parse_newick("((a:0.1,b:0.2):0.4,c:0.5);")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError, match="position"):
            parse_newick("(a:0.5,b:0.5)")

    def test_unnamed_leaf(self):
        with pytest.raises(ParseError, match="leaf"):
            parse_newick("(a:0.5,:0.5);")

    def test_missing_branch_length(self):
        with pytest.raises(ValidationError, match="branch length"):
            parse_newick("(a:0.5,b);")

    def test_malformed_branch_length(self):
        with pytest.raises(ParseError, match="branch length"):
            parse_newick("(a:x,b:0.5);")

    def test_bad_lengths_mode(self):
        with pytest.raises(ValidationError):
            parse_newick(TWO_CLUSTER_NEWICK, lengths="edge")

    def test_overflowing_branch_length(self):
        with pytest.raises(ParseError, match="non-finite branch length"):
            parse_newick("(a:1e400,b:1e400);")

    def test_overflowing_height(self):
        parse_newick("(a:1e308,b:1e308);", lengths="L")
        with pytest.raises(ValidationError, match="height overflows"):
            parse_newick("(a:1e308,b:1e308);")  # arc lengths double into heights
        with pytest.raises(ValidationError, match="height overflows"):
            parse_newick("((a:1e308,b:1e308):1e308,(c:1e308,d:1e308):1e308);", lengths="L")


def newick_outcome(parse, text, lengths):
    """The alphabet and the preorder (letter, height, child count) a Newick
    parser gives, or the type and message it raises."""
    try:
        T = parse(text, lengths=lengths)
    except StructentError as e:
        return type(e), str(e)
    return T.alphabet, [(nd.letter, nd.height, len(nd.children)) for nd, _ in T.nodes()]


class TestNewickScanner:
    @pytest.mark.parametrize("text, expected", [
        ("(a : 0.5 , b:0.5 ) ;", (ParseError, "newick position 5: malformed or non-finite branch length")),
        ("(a: 0.5,b:0.5);", (ParseError, "newick position 4: malformed or non-finite branch length")),
        ("(a:0.5,b:0.5) x;", (ParseError, "newick position 15: expected ';' at end of tree")),
        ("(a:0.5,b:0.5); x", (Alphabet(("a", "b")), [(None, 1.0, 2), ("b", 0.0, 0), ("a", 0.0, 0)])),
        ("(a\x0bb:1,c:1);", (Alphabet(("a\x0bb", "c")), [(None, 2.0, 2), ("c", 0.0, 0), ("a\x0bb", 0.0, 0)])),
        ("(a b:0.5,c:0.5);", (ParseError, "newick position 4: expected ',' or ')', got 'b'")),
        ("(a:0.5,b:0.5", (ParseError, "newick position 13: expected ',' or ')', got ''")),
    ])
    def test_pinned_cases(self, text, expected):
        assert newick_outcome(parse_newick, text, "arc") == expected
        assert newick_outcome(oracles.parse_newick_ref, text, "arc") == expected

    @given(
        textgen.newick_trees().map(lambda t: t[0]) | textgen.NEWICK_JUNK | textgen.edited_newicks(),
        hst.sampled_from(["arc", "L"]),
    )
    @settings(max_examples=1500, deadline=None)
    def test_matches_cursor_reader(self, text, lengths):
        ref = newick_outcome(oracles.parse_newick_ref, text, lengths)
        assert newick_outcome(parse_newick, text, lengths) == ref


LETTER_TEXT = hst.text(alphabet="ab", min_size=1, max_size=3) | hst.text(
    alphabet="ab(),:; \t\r\n\x0b\x0c\x1c\x85\u2028", max_size=3
)


class TestWritersRefuseUnreadableLetters:
    @pytest.mark.parametrize("letter", ["a b", "c(1)", "x:1", "a;", "a\tb", "a\nb", "", ")"])
    def test_newick(self, letter):
        A = Alphabet(("ok", letter, "z,"))  # "z," is refused too, but comes later in the alphabet
        T = UltrametricTree(A, node(1.0, [leaf("z,"), leaf(letter), leaf("ok")]))
        with pytest.raises(ValidationError) as e:
            tree_to_newick(T)
        assert str(e.value) == f"letter {letter!r} cannot be written as a Newick name"

    @pytest.mark.parametrize("letter", ["a,b", " a", "a\t", "a\nb", "a\rb", "a\x0bb", "a\x1cb", "a\u2028b"])
    def test_csv(self, letter):
        A = Alphabet(("ok", letter, "z\n"))
        with pytest.raises(ValidationError) as e:
            distance_to_csv(DistanceMatrix(A, np.ones((3, 3)) - np.eye(3)))
        assert str(e.value) == f"letter {letter!r} cannot be written as a CSV cell"

    @pytest.mark.parametrize("letters, first, second", [
        ((1, "1", "b"), 1, "1"), (("a", 2.5, "2.5"), 2.5, "2.5"), (("x", True, "y", "True"), True, "True"),
    ])
    def test_letters_of_one_text(self, letters, first, second):
        # the readers give back one string letter per text, so two letters
        # of one text cannot round trip; the second of them is named
        A = Alphabet(letters)
        T = UltrametricTree(A, node(1.0, [leaf(a) for a in letters]))
        for write in (tree_to_newick, lambda T: distance_to_csv(tree_to_distance(T))):
            with pytest.raises(ValidationError) as e:
                write(T)
            assert str(e.value) == f"letter {second!r} has the text of the earlier letter {first!r}"

    @given(hst.lists(LETTER_TEXT, min_size=3, max_size=5, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_write_refuses_or_round_trips(self, letters):
        A = Alphabet(tuple(letters))
        T = UltrametricTree(A, node(1.0, [node(0.5, [leaf(letters[0]), leaf(letters[1])])] + [leaf(a) for a in letters[2:]]))
        try:
            text = tree_to_newick(T)
        except ValidationError as e:
            assert any(str(e).startswith(f"letter {a!r} ") for a in letters)
        else:
            assert tree_equal(parse_newick(text), T)
        D = tree_to_distance(T)
        try:
            text = distance_to_csv(D)
        except ValidationError as e:
            assert any(str(e).startswith(f"letter {a!r} ") for a in letters)
        else:
            back = parse_distance_csv(text)
            assert back.alphabet == A and np.array_equal(back.matrix, D.matrix)


class TestDistanceCsv:
    def test_round_trip(self, two_cluster_distance):
        text = distance_to_csv(two_cluster_distance)
        back = parse_distance_csv(text)
        assert back.alphabet == two_cluster_distance.alphabet
        assert np.allclose(back.matrix, two_cluster_distance.matrix, atol=1e-12)

    def test_rows_without_labels(self):
        text = "a,b\n0,0.5\n0.5,0\n"
        D = parse_distance_csv(text)
        assert D.value("a", "b") == pytest.approx(0.5)

    def test_mismatched_row_label(self):
        text = ",a,b\nb,0,0.5\na,0.5,0\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_distance_csv(text)

    def test_wrong_cell_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_distance_csv("a,b\n0,0.5,1\n0.5,0\n")

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_distance_csv("a,b\n0,0.5\n0.5,x\n")

    def test_wrong_row_count(self):
        with pytest.raises(ParseError, match="rows"):
            parse_distance_csv("a,b\n0,0.5\n")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_cell(self, cell):
        with pytest.raises(ParseError, match="line 2, column 2: not a finite number"):
            parse_distance_csv(f"a,b\n0,{cell}\n{cell},0\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_distance_csv("\n")


class TestDistributionJson:
    def test_round_trip(self):
        P = Distribution(Alphabet(("a", "b", "c")), (0.5, 0.25, 0.25))
        back = parse_distribution_json(distribution_to_json(P))
        assert back.alphabet == P.alphabet
        assert back.probs == pytest.approx(P.probs)

    def test_tolerance_boundary(self):
        ok = '{"alphabet": ["a", "b"], "probs": [0.499999999, 0.5]}'
        assert parse_distribution_json(ok).probs[0] == pytest.approx(0.499999999)
        bad = '{"alphabet": ["a", "b"], "probs": [0.49, 0.5]}'
        with pytest.raises(ValidationError):
            parse_distribution_json(bad)

    def test_missing_keys(self):
        with pytest.raises(ParseError, match="probs"):
            parse_distribution_json('{"alphabet": ["a"]}')

    def test_malformed_json_is_anchored(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_distribution_json("{nope}")

    def test_non_object(self):
        with pytest.raises(ParseError, match="object"):
            parse_distribution_json("[1, 2]")


class TestStructureJson:
    def test_round_trip(self, mixed_structure):
        back = parse_structure_json(structure_to_json(mixed_structure))
        assert back.alphabet == mixed_structure.alphabet
        got = {
            (s.components, m) for s, m in back.items()
        }
        want = {(s.components, m) for s, m in mixed_structure.items()}
        assert {c for c, _ in got} == {c for c, _ in want}
        assert sorted(m for _, m in got) == pytest.approx(
            sorted(m for _, m in want)
        )

    def test_missing_keys(self):
        with pytest.raises(ParseError, match="partitions"):
            parse_structure_json('{"alphabet": ["a", "b"]}')

    def test_partition_entry_shape(self):
        text = '{"alphabet": ["a", "b"], "partitions": [{"measure": 1.0}]}'
        with pytest.raises(ParseError, match="partition 0"):
            parse_structure_json(text)


class TestJointJson:
    def test_parses_matrix(self):
        text = (
            '{"row_alphabet": ["a", "b"], "col_alphabet": ["x", "y"],'
            ' "matrix": [[0.25, 0.25], [0.25, 0.25]]}'
        )
        J = parse_joint_json(text)
        assert J.row_alphabet.letters == ("a", "b")
        assert J.col_alphabet.letters == ("x", "y")
        assert np.allclose(J.matrix, 0.25)

    def test_missing_key(self):
        with pytest.raises(ParseError, match="matrix"):
            parse_joint_json('{"row_alphabet": ["a"], "col_alphabet": ["x"]}')


# Any JSON value, and fields that are often, but not always, well formed.
JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.sampled_from("abc"),
    lambda kids: hst.lists(kids, max_size=4) | hst.dictionaries(hst.text(max_size=2), kids, max_size=2),
    max_leaves=10,
)
LETTERS = hst.lists(hst.sampled_from("abc") | JSON_VALUES, max_size=4) | JSON_VALUES
NUMBERS = hst.floats(0.0, 1.0) | JSON_VALUES


def _rejects_only_as_input_errors(parse, payload) -> None:
    try:
        parse(json.dumps(payload))
    except (ParseError, ValidationError):
        pass


class TestMalformedJsonFields:
    """Whatever a JSON file holds, the parsers fail only with ParseError or
    ValidationError."""

    @given(hst.fixed_dictionaries({"alphabet": LETTERS, "probs": hst.lists(NUMBERS, max_size=4) | JSON_VALUES}))
    @settings(max_examples=300, deadline=None)
    def test_distribution(self, payload):
        _rejects_only_as_input_errors(parse_distribution_json, payload)

    @given(hst.fixed_dictionaries({
        "alphabet": LETTERS,
        "partitions": hst.lists(
            hst.fixed_dictionaries({"measure": NUMBERS, "components": hst.lists(LETTERS, max_size=3) | JSON_VALUES})
            | JSON_VALUES,
            max_size=3,
        ) | JSON_VALUES,
    }))
    @settings(max_examples=300, deadline=None)
    def test_structure(self, payload):
        _rejects_only_as_input_errors(parse_structure_json, payload)

    @given(hst.fixed_dictionaries({
        "row_alphabet": LETTERS,
        "col_alphabet": LETTERS,
        "matrix": hst.lists(hst.lists(NUMBERS, max_size=3) | JSON_VALUES, max_size=3) | JSON_VALUES,
    }))
    @settings(max_examples=300, deadline=None)
    def test_joint(self, payload):
        _rejects_only_as_input_errors(parse_joint_json, payload)


class TestPointsCsv:
    def test_single_column(self):
        pts, probs = parse_points_csv("0.0\n0.5\n1.0\n")
        assert pts == (0.0, 0.5, 1.0)
        assert probs is None

    def test_two_columns(self):
        pts, probs = parse_points_csv("0.0,0.25\n0.5,0.25\n1.0,0.5\n")
        assert pts == (0.0, 0.5, 1.0)
        assert probs == (0.25, 0.25, 0.5)

    def test_header_row_skipped(self):
        pts, probs = parse_points_csv("value,prob\n0.0,0.5\n1.0,0.5\n")
        assert pts == (0.0, 1.0)
        assert probs == (0.5, 0.5)

    def test_inconsistent_columns(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_points_csv("0.0,0.5\n0.5,0.25\n1.0\n")

    def test_not_a_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_points_csv("0.0\nx\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="no points"):
            parse_points_csv("x\n")

    @pytest.mark.parametrize("text", ["0\nnan\n1\n", "0,0.5\n1,inf\n", "0\n1e400\n", "nan\n0\n1\n"])
    def test_non_finite_value(self, text):
        with pytest.raises(ParseError, match="not a finite number"):
            parse_points_csv(text)


class TestMalformedText:
    """Whatever a text file holds, the parsers fail only with ParseError or
    ValidationError, and every number they return is finite."""

    @given(textgen.newick_trees().map(lambda t: t[0]) | textgen.NEWICK_JUNK, hst.sampled_from(["arc", "L"]))
    @settings(max_examples=300, deadline=None)
    def test_newick(self, text, lengths):
        try:
            T = parse_newick(text, lengths=lengths)
        except (ParseError, ValidationError):
            return
        assert math.isfinite(T.height)

    @given(textgen.distance_csvs().map(lambda t: t[0]) | hst.text(alphabet="ab,01.\n-inf", max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_distance_csv(self, text):
        try:
            D = parse_distance_csv(text)
        except (ParseError, ValidationError):
            return
        assert np.isfinite(D.matrix).all()

    @given(textgen.points_csvs())
    @settings(max_examples=300, deadline=None)
    def test_points_csv(self, text):
        try:
            pts, probs = parse_points_csv(text)
        except (ParseError, ValidationError):
            return
        assert all(map(math.isfinite, pts + (probs or ())))

    @given(textgen.FASTA_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_fasta(self, text):
        try:
            parse_fasta(text)
        except (ParseError, ValidationError):
            pass

    @given(textgen.STOCKHOLM_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_stockholm(self, text):
        try:
            parse_stockholm(text)
        except (ParseError, ValidationError):
            pass
