"""End-to-end command-line behavior: outputs, files, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import textgen

import structent
from structent import (
    DistanceMatrix,
    ParseError,
    distribution_to_json,
    hu_arcwise,
    parse_distance_csv,
    parse_distribution_json,
    parse_structure_json,
    structure_to_json,
    tree_to_newick,
)
from structent.cli import main
from structent.sampling import random_distribution, random_ultrametric_tree

TWO_CLUSTER_NEWICK = "((a:0.1,b:0.1):0.4,(c:0.1,d:0.1):0.4);"


@pytest.fixture
def files(tmp_path, abcd, uniform4, mixed_structure):
    d = {}
    d["tree"] = tmp_path / "tree.nwk"
    d["tree"].write_text(TWO_CLUSTER_NEWICK + "\n")
    d["uniform"] = tmp_path / "uniform.json"
    d["uniform"].write_text(distribution_to_json(uniform4))
    d["skew"] = tmp_path / "skew.json"
    d["skew"].write_text(
        '{"alphabet": ["a", "b", "c", "d"], "probs": [0.4, 0.3, 0.2, 0.1]}'
    )
    d["mixed"] = tmp_path / "mixed.json"
    d["mixed"].write_text(structure_to_json(mixed_structure))
    d["dist"] = tmp_path / "dist.csv"
    d["dist"].write_text(
        ",a,b,c,d\n"
        "a,0,0.2,1,1\n"
        "b,0.2,0,1,1\n"
        "c,1,1,0,0.2\n"
        "d,1,1,0.2,0\n"
    )
    d["joint"] = tmp_path / "joint.json"
    d["joint"].write_text(
        '{"row_alphabet": ["a", "b"], "col_alphabet": ["x", "y"],'
        ' "matrix": [[0.25, 0.25], [0.25, 0.25]]}'
    )
    d["pair_structure"] = tmp_path / "pair_structure.json"
    d["pair_structure"].write_text(
        '{"alphabet": ["a", "b"],'
        ' "partitions": [{"measure": 1.0, "components": [["a"], ["b"]]}]}'
    )
    d["xy_structure"] = tmp_path / "xy_structure.json"
    d["xy_structure"].write_text(
        '{"alphabet": ["x", "y"],'
        ' "partitions": [{"measure": 1.0, "components": [["x"], ["y"]]}]}'
    )
    d["tmp"] = tmp_path
    return d


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestHu:
    def test_deep_caterpillar(self, capsys, tmp_path, caterpillar):
        T = caterpillar(2000)
        P = random_distribution(T.alphabet, np.random.default_rng(2000))
        (tmp_path / "deep.nwk").write_text(tree_to_newick(T) + "\n")
        (tmp_path / "deep.json").write_text(distribution_to_json(P))
        code, out = run(capsys, ["hu", "--tree", str(tmp_path / "deep.nwk"),
                         "--probs", str(tmp_path / "deep.json")])
        assert code == 0
        assert out["H_U"] == pytest.approx(hu_arcwise(T, P), rel=1e-11)

    def test_worked_value_and_forms(self, capsys, files):
        code, out = run(
            capsys,
            ["hu", "--tree", str(files["tree"]), "--probs", str(files["uniform"]), "--forms"],
        )
        assert code == 0
        assert out["H_U"] == pytest.approx(1.2, abs=1e-9)
        assert out["log_base"] == "2"
        assert set(out["forms"]) == {"recursive", "nodewise", "arcwise", "bandwise"}
        for v in out["forms"].values():
            assert v == pytest.approx(1.2, abs=1e-9)

    def test_forms_on_deep_banded_tree(self, capsys, tmp_path):
        rng = np.random.default_rng(350)
        T = random_ultrametric_tree(350, rng)
        P = random_distribution(T.alphabet, rng)
        (tmp_path / "t.nwk").write_text(tree_to_newick(T))
        (tmp_path / "p.json").write_text(distribution_to_json(P))
        code, out = run(
            capsys,
            ["hu", "--tree", str(tmp_path / "t.nwk"), "--probs", str(tmp_path / "p.json"),
             "--forms"],
        )
        assert code == 0
        assert out["n"] == 350
        for v in out["forms"].values():
            assert v == pytest.approx(out["H_U"], abs=1e-9)

    def test_forms_compute_arcwise_once(self, capsys, files, monkeypatch):
        import structent.cli as cli

        calls = []
        monkeypatch.setattr(cli, "hu_arcwise", lambda T, P: calls.append(1) or hu_arcwise(T, P))
        code, out = run(capsys, ["hu", "--tree", str(files["tree"]), "--probs", str(files["uniform"]), "--forms"])
        assert code == 0 and len(calls) == 1
        assert out["forms"]["arcwise"] == out["H_U"]

    def test_structure_export(self, capsys, files):
        target = files["tmp"] / "banded.json"
        code, out = run(
            capsys,
            [
                "hu",
                "--tree", str(files["tree"]),
                "--probs", str(files["uniform"]),
                "--out-structure", str(target),
            ],
        )
        assert code == 0
        S = parse_structure_json(target.read_text())
        measures = sorted(m for _, m in S.items())
        assert measures == pytest.approx([0.2, 0.8])

    def test_node_above_its_near_zero_parent(self, capsys, tmp_path):
        """The ab node sits 7e-10 above its parent of height 8e-10, which the
        validator allows below the tolerance; the bands clamp it there."""
        tree = "(((a:1.5e-9,b:1.5e-9):-7e-10,c:8e-10):0.9999999992,(d:0.25,e:0.25):0.75,f:1);"
        (tmp_path / "t.nwk").write_text(tree + "\n")
        P = structent.Distribution(structent.Alphabet(tuple("abcdef")), [1 / 6] * 6)
        (tmp_path / "p.json").write_text(distribution_to_json(P))
        target = tmp_path / "bands.json"
        code, _ = run(capsys, ["hu", "--tree", str(tmp_path / "t.nwk"), "--lengths", "L", "--probs",
                               str(tmp_path / "p.json"), "--forms", "--out-structure", str(target)])
        assert code == 0
        assert parse_structure_json(target.read_text()).is_normalized

    def test_byte_determinism(self, capsys, files):
        argv = ["hu", "--tree", str(files["tree"]), "--probs", str(files["skew"]), "--forms"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestLogBase:
    def test_natural_log_conversion(self, capsys, files, monkeypatch):
        monkeypatch.setenv("STRUCTENT_LOG_BASE", "e")
        code, out = run(
            capsys, ["hu", "--tree", str(files["tree"]), "--probs", str(files["uniform"])]
        )
        assert code == 0
        assert out["log_base"] == "e"
        assert out["H_U"] == pytest.approx(1.2 * math.log(2.0), abs=1e-9)

    def test_base_ten(self, capsys, files, monkeypatch):
        monkeypatch.setenv("STRUCTENT_LOG_BASE", "10")
        code, out = run(
            capsys, ["hs", "--structure", str(files["mixed"]), "--probs", str(files["uniform"])]
        )
        assert code == 0
        assert out["H_S"] == pytest.approx(1.6 * math.log10(2.0), abs=1e-9)

    def test_invalid_base_fails_validation(self, capsys, files, monkeypatch):
        monkeypatch.setenv("STRUCTENT_LOG_BASE", "7")
        code, _ = run(
            capsys, ["hu", "--tree", str(files["tree"]), "--probs", str(files["uniform"])]
        )
        assert code == 1


class TestHs:
    def test_worked_value_with_q_check(self, capsys, files):
        code, out = run(
            capsys, ["hs", "--structure", str(files["mixed"]), "--probs", str(files["uniform"])]
        )
        assert code == 0
        assert out["H_S"] == pytest.approx(1.6, abs=1e-9)
        assert out["H_S_via_q"] == pytest.approx(1.6, abs=1e-9)
        assert out["is_normalized"] is True
        assert out["n_partitions"] == 2


class TestNotions:
    def test_independent_joint(self, capsys, files):
        code, out = run(
            capsys,
            [
                "notions",
                "--joint", str(files["joint"]),
                "--row-structure", str(files["pair_structure"]),
                "--col-structure", str(files["xy_structure"]),
            ],
        )
        assert code == 0
        assert out["I"] == pytest.approx(0.0, abs=1e-9)
        assert out["H_joint"] == pytest.approx(out["H_row"] + out["H_col"], abs=1e-9)
        assert out["H_row_given_col"] == pytest.approx(out["H_row"], abs=1e-9)

    def test_divergence_mode(self, capsys, files):
        code, out = run(
            capsys,
            [
                "notions",
                "--structure", str(files["mixed"]),
                "--probs", str(files["uniform"]),
                "--probs2", str(files["uniform"]),
            ],
        )
        assert code == 0
        assert out["D_KL"] == pytest.approx(0.0, abs=1e-12)

    def test_incomplete_arguments(self, capsys, files):
        code, _ = run(capsys, ["notions", "--joint", str(files["joint"])])
        assert code == 1


class TestDistance:
    def test_matrix_mode_recovers_tree(self, capsys, files):
        out_file = files["tmp"] / "tree_out.nwk"
        code, out = run(
            capsys,
            [
                "distance",
                "--matrix", str(files["dist"]),
                "--probs", str(files["uniform"]),
                "--out", str(out_file),
            ],
        )
        assert code == 0
        assert out["is_ultrametric"] is True
        assert out["H_U"] == pytest.approx(1.2, abs=1e-9)
        assert out_file.read_text().strip().endswith(";")

    def test_matrix_mode_reports_witness(self, capsys, files):
        bad = files["tmp"] / "bad.csv"
        bad.write_text(",a,b,c\na,0,0.2,1\nb,0.2,0,0.5\nc,1,0.5,0\n")
        code, out = run(capsys, ["distance", "--matrix", str(bad)])
        assert code == 0
        assert out["is_ultrametric"] is False
        assert len(out["witness"]) == 3
        assert "newick" not in out

    def test_matrix_mode_builds_levels_tied_within_the_witness_tolerance(self, capsys, files):
        # a-d lie at 1 within 1.4e-9, under the 2.5e-9 the witness allows at
        # height 2.5: one level, whose node sits at its smallest distance
        letters = "abcdefgh"
        ties = {"ab": "0.9999999994", "cd": "1"}

        def d(x, y):
            if x == y:
                return "0"
            if (x < "e") != (y < "e"):
                return "2.5"
            return ties.get(x + y, ties.get(y + x, "1.0000000008")) if x < "e" else "0.5"

        tied = files["tmp"] / "tied.csv"
        tied.write_text("," + ",".join(letters) + "\n" + "".join(
            x + "," + ",".join(d(x, y) for y in letters) + "\n" for x in letters
        ))
        code, out = run(capsys, ["distance", "--matrix", str(tied)])
        assert code == 0
        assert out["is_ultrametric"] is True
        assert out["newick"] == (
            "((a:0.4999999997,b:0.4999999997,c:0.4999999997,d:0.4999999997):0.7500000003,"
            "(e:0.25,f:0.25,g:0.25,h:0.25):1);"
        )

    def test_matrix_mode_finds_the_witness_once(self, capsys, files, monkeypatch):
        calls = []
        witness = DistanceMatrix._ultrametric_witness
        monkeypatch.setattr(DistanceMatrix, "_ultrametric_witness", lambda D: calls.append(1) or witness(D))
        bad = files["tmp"] / "bad.csv"
        bad.write_text(",a,b,c\na,0,0.2,1\nb,0.2,0,0.5\nc,1,0.5,0\n")
        assert main(["distance", "--matrix", str(bad)]) == 0
        assert capsys.readouterr().out == (
            '{"is_normalized": true, "is_ultrametric": false, "log_base": "2", "mode": "matrix", "n": 3, '
            '"witness": ["\'a\'", "\'c\'", "\'b\'"]}\n'
        )
        assert main(["distance", "--matrix", str(files["dist"]), "--out", str(files["tmp"] / "t.nwk")]) == 0
        assert len(calls) == 2  # one search per call, kept by the matrix

    def test_matrix_mode_writes_the_newick_it_prints(self, capsys, files, monkeypatch):
        import structent.cli as cli

        calls = []
        monkeypatch.setattr(cli, "tree_to_newick", lambda T: calls.append(1) or tree_to_newick(T))
        out_file = files["tmp"] / "t.nwk"
        code, out = run(capsys, ["distance", "--matrix", str(files["dist"]), "--out", str(out_file)])
        assert code == 0 and len(calls) == 1
        assert out_file.read_text() == out["newick"] + "\n"

    def test_matrix_mode_refuses_letters_newick_cannot_hold(self, capsys, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(",a b,c(1)\na b,0,1\nc(1),1,0\n")
        out_file = tmp_path / "t.nwk"
        assert main(["distance", "--matrix", str(m), "--out", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: letter 'a b' cannot be written as a Newick name\n"
        assert not out_file.exists()

    def test_structure_mode_refuses_letters_csv_cannot_hold(self, capsys, tmp_path):
        s = tmp_path / "s.json"
        s.write_text('{"alphabet": ["a,b", "c", "d"], '
                     '"partitions": [{"measure": 1.0, "components": [["a,b"], ["c"], ["d"]]}]}')
        out_file = tmp_path / "d.csv"
        assert main(["distance", "--structure", str(s), "--out", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: letter 'a,b' cannot be written as a CSV cell\n"
        assert not out_file.exists()

    def test_structure_mode_state_distances(self, capsys, files):
        out_file = files["tmp"] / "state.csv"
        code, out = run(
            capsys,
            ["distance", "--structure", str(files["mixed"]), "--out", str(out_file)],
        )
        assert code == 0
        assert out["mode"] == "structure"
        assert out["is_ultrametric"] is True
        assert out["max_distance"] == pytest.approx(1.0, abs=1e-12)
        M = parse_distance_csv(out_file.read_text())
        assert M.value("a", "b") == pytest.approx(0.6, abs=1e-12)
        assert M.value("a", "c") == pytest.approx(1.0, abs=1e-12)

    def test_mode_exclusivity(self, capsys, files):
        code, _ = run(
            capsys,
            ["distance", "--matrix", str(files["dist"]), "--structure", str(files["mixed"])],
        )
        assert code == 1


class TestCode:
    def test_matched_tree_hits_entropy(self, capsys, files):
        code, out = run(
            capsys,
            ["code", "--tree", str(files["tree"]), "--probs", str(files["uniform"])],
        )
        assert code == 0
        assert out["H_U"] == pytest.approx(1.2, abs=1e-9)
        assert out["mu_U"] == pytest.approx(1.2, abs=1e-9)
        assert out["lambda_U"] == pytest.approx(1.2, abs=1e-9)
        assert out["gap"] == pytest.approx(0.0, abs=1e-9)
        assert out["bound_ok"] is True
        assert out["optimized"] is False

    def test_optimize_reports_trace(self, capsys, files):
        code, out = run(
            capsys,
            [
                "code",
                "--matrix", str(files["dist"]),
                "--probs", str(files["skew"]),
                "--optimize",
            ],
        )
        assert code == 0
        assert out["optimized"] is True
        assert out["rewrites"] >= 0
        assert out["mu_U"] <= out["initial_mu_U"] + 1e-12
        assert out["bound_ok"] is True

    def test_structure_adds_esscl(self, capsys, files):
        code, out = run(
            capsys,
            [
                "code",
                "--tree", str(files["tree"]),
                "--probs", str(files["uniform"]),
                "--structure", str(files["mixed"]),
            ],
        )
        assert code == 0
        assert out["H_S"] == pytest.approx(1.6, abs=1e-9)
        assert out["ESSCL"] >= out["H_S"] - 1e-9

    def test_codeword_export(self, capsys, files):
        out_file = files["tmp"] / "codes.csv"
        code, out = run(
            capsys,
            [
                "code",
                "--tree", str(files["tree"]),
                "--probs", str(files["uniform"]),
                "--out", str(out_file),
            ],
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "letter,codeword,depth,distance_length,probability"
        words = [ln.split(",")[1] for ln in lines[1:]]
        assert len(words) == 4
        assert len(set(words)) == 4
        for w in words:
            assert set(w) <= {"0", "1"}
            for v in words:
                if v is not w:
                    assert not v.startswith(w)

    @pytest.mark.parametrize("newick, esscl", [
        ("(a:0.5,((b:0.1,c:0.1):0.15,d:0.25):0.25);", 0.808900859584),
        ("((a:0.25,(b:0.1,c:0.1):0.15):0.25,d:0.5);", 0.80675047084),
    ])
    def test_esscl_with_a_tiny_letter(self, capsys, tmp_path, newick, esscl):
        # 800-digit decimal values; the split merits once printed
        # -1.1140347743e+281 and 1.10657432757 here
        tree, probs, structure = tmp_path / "t.nwk", tmp_path / "p.json", tmp_path / "s.json"
        tree.write_text(newick)
        probs.write_text('{"alphabet": ["a", "b", "c", "d"], "probs": [1e-300, 0.1, 0.2, 0.7]}')
        structure.write_text('{"alphabet": ["a", "b", "c", "d"], '
                             '"partitions": [{"measure": 1.0, "components": [["a", "c"], ["b", "d"]]}]}')
        code, out = run(capsys, ["code", "--tree", str(tree), "--probs", str(probs), "--structure", str(structure)])
        assert code == 0
        assert out["ESSCL"] == esscl
        assert out["ESSCL"] >= out["H_S"]

    def test_needs_exactly_one_source(self, capsys, files):
        code, _ = run(capsys, ["code", "--probs", str(files["uniform"])])
        assert code == 1


class TestTrials:
    def test_summary_and_report_file(self, capsys, files):
        out_file = files["tmp"] / "report.json"
        code, out = run(
            capsys,
            [
                "trials",
                "--count", "5",
                "--seed", "1",
                "--min-n", "3",
                "--max-n", "10",
                "--violations-dir", str(files["tmp"]),
                "--out", str(out_file),
            ],
        )
        assert code == 0
        assert out["count"] == 5
        assert out["violations"] == 0
        assert out["bound"] == pytest.approx(1.0)
        report = json.loads(out_file.read_text())
        assert len(report["records"]) == 5
        assert report["max_gap"] == out["max_gap"]

    def test_deterministic_across_runs(self, capsys, files):
        argv = [
            "trials",
            "--count", "4",
            "--seed", "7",
            "--max-n", "8",
            "--violations-dir", str(files["tmp"]),
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestItr:
    def test_sample_mode(self, capsys, files):
        pts = files["tmp"] / "pts.csv"
        pts.write_text("0\n0.25\n0.5\n0.75\n1\n")
        code, out = run(capsys, ["itr", "--points", str(pts)])
        assert code == 0
        assert out["h_r_sample"] == pytest.approx(0.846439, abs=1e-6)
        assert out["span"] == [0.0, 1.0]

    def test_weighted_mode(self, capsys, files):
        pts = files["tmp"] / "wpts.csv"
        pts.write_text("0,0.25\n0.5,0.25\n1,0.5\n")
        code, out = run(capsys, ["itr", "--points", str(pts)])
        assert code == 0
        assert out["h_r"] > 0
        assert out["is_normalized"] is True

    def test_collapse_merges_duplicates(self, capsys, files):
        pts = files["tmp"] / "dup.csv"
        pts.write_text("0,0.25\n0.5,0.125\n0.5,0.125\n1,0.5\n")
        code, out = run(capsys, ["itr", "--points", str(pts), "--collapse"])
        assert code == 0
        assert out["n_points"] == 3
        code2, _ = run(capsys, ["itr", "--points", str(pts)])
        assert code2 == 1


class TestSequences:
    def test_typical_set_census(self, capsys, files):
        probs = files["tmp"] / "p2.json"
        probs.write_text('{"alphabet": ["a", "b"], "probs": [0.75, 0.25]}')
        code, out = run(
            capsys,
            ["sequences", "--probs", str(probs), "--length", "16", "--epsilon", "0.1"],
        )
        assert code == 0
        assert out["mode"] == "typical-set"
        assert out["count"] == 6748
        assert out["mass"] == pytest.approx(0.613234377466, abs=1e-9)

    def test_equivalence_class_mode(self, capsys, files):
        code, out = run(
            capsys,
            [
                "sequences",
                "--probs", str(files["uniform"]),
                "--structure", str(files["mixed"]),
                "--length", "4",
                "--epsilon", "0.2",
            ],
        )
        assert code == 0
        assert out["mode"] == "equivalence-classes"
        assert out["class_count"] >= 1
        assert out["h_s"] == pytest.approx(1.6, abs=1e-9)

    def test_sums_within_prob_tol_accepted(self, capsys, tmp_path):
        # both sums are off by 1e-9: hs accepts them, so sequences must too
        probs = tmp_path / "p.json"
        probs.write_text('{"alphabet": ["a", "b"], "probs": [0.5, 0.500000001]}')
        common = ["--length", "4", "--epsilon", "0.1"]
        assert run(capsys, ["sequences", "--probs", str(probs), *common])[0] == 0
        uniform = tmp_path / "u.json"
        uniform.write_text('{"alphabet": ["a", "b"], "probs": [0.5, 0.5]}')
        structure = tmp_path / "s.json"
        structure.write_text('{"alphabet": ["a", "b"],'
                             ' "partitions": [{"measure": 1.000000001, "components": [["a"], ["b"]]}]}')
        code, out = run(capsys, ["hs", "--probs", str(uniform), "--structure", str(structure)])
        assert code == 0 and out["is_normalized"] is True
        argv = ["sequences", "--probs", str(uniform), "--structure", str(structure), *common]
        assert run(capsys, argv)[0] == 0


    def test_cap_inputs_stay_small(self, tmp_path):
        # a fresh interpreter runs both modes at the enumeration cap (4**12
        # sequences) and reports its own peak resident set.  VmHWM is the
        # child's own; after exec, Linux carries the parent's high-water mark
        # into ru_maxrss, which is read only where VmHWM is missing
        probs = tmp_path / "p.json"
        probs.write_text('{"alphabet": ["a", "b", "c", "d"], "probs": [0.3, 0.1, 0.4, 0.2]}')
        structure = tmp_path / "s.json"
        structure.write_text(json.dumps({"alphabet": ["a", "b", "c", "d"], "partitions": [
            {"components": [["a", "c"], ["b", "d"]], "measure": 0.6},
            {"components": [["a", "b"], ["c", "d"]], "measure": 0.4},
        ]}))
        common = ["sequences", "--probs", str(probs), "--length", "12", "--epsilon", "0.15"]
        child = (
            "import resource, sys\n"
            "from structent.cli import main\n"
            f"codes = [main({common!r}), main({common + ['--structure', str(structure)]!r})]\n"
            "try:\n"
            "    with open('/proc/self/status') as fh:\n"
            "        peak_kb = next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
            "except (OSError, StopIteration):\n"
            "    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(codes, peak_kb)\n"
        )
        src = os.path.dirname(os.path.dirname(structent.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True)
        lines = done.stdout.splitlines()
        assert [json.loads(line)["mode"] for line in lines[:2]] == ["typical-set", "equivalence-classes"]
        codes, rss_kb = lines[2].rsplit(" ", 1)
        assert codes == "[0, 0]"
        assert int(rss_kb) / 1024 < 150


class TestConserve:
    def test_worked_columns(self, capsys, files):
        fasta = files["tmp"] / "aln.fasta"
        fasta.write_text(">r1\nAAA\n>r2\nAVF\n")
        out_file = files["tmp"] / "cons.csv"
        code, out = run(
            capsys, ["conserve", "--aln", str(fasta), "--out", str(out_file)]
        )
        assert code == 0
        assert out["n_rows"] == 2 and out["n_cols"] == 3
        h_us = [c["h_u"] for c in out["columns"]]
        assert h_us[0] == pytest.approx(0.0, abs=1e-12)
        assert h_us[1] == pytest.approx(0.25, abs=1e-9)
        assert h_us[2] == pytest.approx(1.0, abs=1e-9)
        lines = out_file.read_text().strip().splitlines()
        assert lines[0].startswith("column,coverage,h_u,h")
        assert len(lines) == 4

    def test_stockholm_autodetect(self, capsys, files):
        sto = files["tmp"] / "aln.sto"
        sto.write_text("# STOCKHOLM 1.0\nr1 AA\nr2 AV\n//\n")
        code, out = run(capsys, ["conserve", "--aln", str(sto)])
        assert code == 0
        assert out["n_cols"] == 2

    @pytest.mark.parametrize("ch", textgen.NON_ASCII_LETTERS)
    @pytest.mark.parametrize("text", [">a\nA{}\n>b\nAC\n", "# STOCKHOLM 1.0\na A{}\nb AC\n//\n"])
    def test_non_ascii_letter_rejected(self, capsys, files, text, ch):
        aln = files["tmp"] / "aln.txt"
        aln.write_text(text.format(ch), encoding="utf-8")
        assert main(["conserve", "--aln", str(aln)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"validation error: row 'a' column 2: invalid character {ch!r}\n"

    @pytest.mark.parametrize("base", ["2", "e"])
    def test_no_column_rebuild(self, capsys, files, monkeypatch, base):
        # in base 2 the report is emitted as scored; in another base each
        # scaled column is built once, with no dataclasses.replace call
        import dataclasses

        import structent.cli as cli

        calls = []
        replace = dataclasses.replace

        def counted(*a, **kw):
            calls.append(a)
            return replace(*a, **kw)

        monkeypatch.setattr(dataclasses, "replace", counted)
        monkeypatch.setattr(cli, "replace", counted, raising=False)  # a name imported from dataclasses
        monkeypatch.setenv("STRUCTENT_LOG_BASE", base)
        fasta = files["tmp"] / "aln.fasta"
        fasta.write_text(">r1\nAAAK\n>r2\nAVF-\n")
        code, out = run(capsys, ["conserve", "--aln", str(fasta)])
        assert code == 0 and calls == []
        factor = 1.0 if base == "2" else math.log(2.0)
        assert [c["h_u"] for c in out["columns"]] == pytest.approx([0.0, 0.25 * factor, 1.0 * factor, 0.0])

    def test_unknown_letter_with_custom_tree(self, capsys, files):
        fasta = files["tmp"] / "bad_aln.fasta"
        fasta.write_text(">r1\nW\n>r2\nW\n")
        code, _ = run(
            capsys,
            ["conserve", "--aln", str(fasta), "--tree", str(files["tree"])],
        )
        assert code == 1


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys, files):
        code, _ = run(
            capsys, ["hu", "--tree", "/nonexistent.nwk", "--probs", str(files["uniform"])]
        )
        assert code == 2

    def test_malformed_json_is_parse_error(self, capsys, files):
        bad = files["tmp"] / "bad.json"
        bad.write_text("{nope")
        code, _ = run(capsys, ["hu", "--tree", str(files["tree"]), "--probs", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("kind, text", [
        ("structure", '{"alphabet": ["a", "b"], "partitions": [{"measure": 1, "components": 5}]}'),
        ("structure", '{"alphabet": ["a", "b"], "partitions": [{"measure": "x", "components": [["a"], ["b"]]}]}'),
        ("structure", '{"alphabet": ["a", ["b"]], "partitions": [{"measure": 1, "components": [["a"], ["b"]]}]}'),
        ("structure", '{"alphabet": ["a", "b"], "partitions": 7}'),
        ("distribution", '{"alphabet": ["a", "b"], "probs": "ab"}'),
        ("distribution", '{"alphabet": ["a", "b"], "probs": [[0.5], [0.5]]}'),
        ("distribution", '{"alphabet": ["a", "b"], "probs": [null, 1]}'),
        ("distribution", '{"alphabet": 5, "probs": [1]}'),
    ])
    def test_malformed_field_is_parse_error(self, capsys, files, kind, text):
        bad = files["tmp"] / "bad.json"
        bad.write_text(text)
        if kind == "structure":
            parse = parse_structure_json
            argv = ["hs", "--structure", str(bad), "--probs", str(files["uniform"])]
        else:
            parse = parse_distribution_json
            argv = ["hu", "--tree", str(files["tree"]), "--probs", str(bad)]
        with pytest.raises(ParseError):
            parse(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, data, argv", [
        ("a.fasta", b">a\nA\xff\n", ["conserve", "--aln", "{f}"]),
        ("t.nwk", b"((a:0.1,b:0.1):0.4,(c:0.1,\xe9d:0.1):0.4);", ["hu", "--tree", "{f}", "--probs", "{p}"]),
    ])
    def test_non_text_file_is_parse_error(self, capsys, files, name, data, argv):
        f = files["tmp"] / name
        f.write_bytes(data)
        assert main([a.format(f=f, p=files["uniform"]) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {f}: not a text file: ") and captured.err.count("\n") == 1

    def test_invalid_distribution_is_validation_error(self, capsys, files):
        bad = files["tmp"] / "badp.json"
        bad.write_text('{"alphabet": ["a", "b", "c", "d"], "probs": [0.9, 0.3, 0.2, 0.1]}')
        code, _ = run(capsys, ["hu", "--tree", str(files["tree"]), "--probs", str(bad)])
        assert code == 1

    def test_usage_error_exits_64(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["hu", "--probs", str(files["uniform"])])
        assert exc.value.code == 64

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("structent ")


def strict_json(text: str):
    """Parse stdout as strict JSON: NaN and the infinities are rejected."""

    def reject(name):
        raise ValueError(f"stdout holds {name}, which is not JSON")

    return json.loads(text, parse_constant=reject)


BIG_MEASURES = '{"alphabet": ["a", "b", "c"], "partitions": [' \
    '{"measure": 1e308, "components": [["a"], ["b", "c"]]}, {"measure": 1e308, "components": [["a", "b"], ["c"]]}]}'

BIG_JOINT = '{"row_alphabet": ["a", "b", "c"], "col_alphabet": ["a", "b", "c"], ' \
    '"matrix": [[0, 0, 0], [0, 0, 0], [0, 1e308, 1e308]]}'

class TestNonFiniteInput:
    """Non-finite numbers and out-of-range counts fail as input errors
    instead of printing NaN or infinity or raising a raw exception."""

    @pytest.mark.parametrize(
        "name, text, argv, expected",
        [
            ("pts.csv", "0\nnan\n1\n", ["itr", "--points", "{f}"], 2),
            ("pts.csv", "0,0.5\ninf,0.5\n", ["itr", "--points", "{f}"], 2),
            ("pts.csv", "-1e308\n0\n1e308\n", ["itr", "--points", "{f}"], 1),
            ("pts.csv", "-1e308,0.5\n1e308,0.5\n", ["itr", "--points", "{f}"], 1),
            ("t.nwk", "(a:1e400,b:1e400);", ["hu", "--tree", "{f}", "--probs", "{p}"], 2),
            ("t.nwk", "(a:1e308,b:1e308);", ["hu", "--tree", "{f}", "--probs", "{p}"], 1),
            ("d.csv", ",a,b\na,0,inf\nb,inf,0\n", ["distance", "--matrix", "{f}"], 2),
            ("d.csv", ",a,b\na,0,nan\nb,nan,0\n", ["distance", "--matrix", "{f}", "--probs", "{p}"], 2),
            ("-", "", ["sequences", "--probs", "{p}", "--length", "3", "--epsilon", "nan"], 1),
            ("-", "", ["sequences", "--probs", "{p}", "--length", "3", "--epsilon", "inf"], 1),
            ("-", "", ["sequences", "--probs", "{p}", "--length", "3", "--epsilon", "-0.1"], 1),
            ("-", "", ["trials", "--count", "2", "--seed", "-1", "--max-n", "5"], 1),
            ("-", "", ["trials", "--count", "-1", "--seed", "3", "--max-n", "5"], 1),
            # probabilities whose fsum overflows
            ("pts.csv", "-1.0,8.98846567431158e+307\n0,8.988465674311579e+307\n", ["itr", "--points", "{f}"], 1),
            ("s.json", BIG_MEASURES, ["hs", "--structure", "{f}", "--probs", "{q}"], 1),
            ("s.json", BIG_MEASURES, ["notions", "--joint", "{j}", "--row-structure", "{f}", "--col-structure", "{f}"], 1),
            ("s.json", BIG_MEASURES, ["distance", "--structure", "{f}"], 1),
            ("s.json", BIG_MEASURES, ["code", "--tree", "{t}", "--probs", "{q}", "--structure", "{f}"], 1),
            # joint cells whose sum overflows
            ("big.json", BIG_JOINT, ["notions", "--joint", "{f}", "--row-structure", "{h}", "--col-structure", "{h}"], 1),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exit_code_and_no_summary(self, capsys, tmp_path, name, text, argv, expected):
        f = tmp_path / name
        f.write_text(text)
        p = tmp_path / "p.json"
        p.write_text('{"alphabet": ["a", "b"], "probs": [0.5, 0.5]}')
        q = tmp_path / "q.json"  # three letters, for the structure rows
        q.write_text('{"alphabet": ["a", "b", "c"], "probs": [0.25, 0.25, 0.5]}')
        j = tmp_path / "j.json"
        j.write_text('{"row_alphabet": ["a", "b", "c"], "col_alphabet": ["a", "b", "c"], '
                     '"matrix": [[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.2]]}')
        t = tmp_path / "tree.nwk"
        t.write_text("((a:0.25,b:0.25):0.25,c:0.5);")
        h = tmp_path / "halves.json"
        h.write_text(BIG_MEASURES.replace("1e308", "0.5"))
        argv = [a.format(f=f, p=p, q=q, j=j, t=t, h=h) for a in argv] + (["--violations-dir", str(tmp_path)] if argv[0] == "trials" else [])
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_infinite_divergence_prints_null(self, capsys, tmp_path):
        S = tmp_path / "s.json"
        S.write_text('{"alphabet": ["a", "b"], "partitions": [{"measure": 1.0, "components": [["a"], ["b"]]}]}')
        P, Q = tmp_path / "p.json", tmp_path / "q.json"
        P.write_text('{"alphabet": ["a", "b"], "probs": [0.5, 0.5]}')
        Q.write_text('{"alphabet": ["a", "b"], "probs": [1.0, 0.0]}')
        assert main(["notions", "--structure", str(S), "--probs", str(P), "--probs2", str(Q)]) == 0
        assert strict_json(capsys.readouterr().out)["D_KL"] is None

    def test_empty_typical_set_rate_prints_null(self, capsys, tmp_path):
        P = tmp_path / "p.json"
        P.write_text('{"alphabet": ["a", "b"], "probs": [0.3, 0.7]}')
        assert main(["sequences", "--probs", str(P), "--length", "2", "--epsilon", "0"]) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["count"] == 0 and out["rate"] is None


def main_on_files(files: dict, argv: list) -> int:
    """Run ``main`` with each ``@name`` argument replaced by a file holding
    ``files[name]``.  The exit code must be 0, 1, 2 or 64, no exception may
    escape, whatever reaches stdout must be strict JSON, and an error that
    ``main`` returns writes one line to stderr, with no warning beside it."""
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            with open(os.path.join(d, name), "w") as fh:
                fh.write(text)
        argv = [os.path.join(d, a[1:]) if a.startswith("@") else a for a in argv]
        if argv[0] == "trials":
            argv += ["--violations-dir", d]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning prints to stderr outside the test runner
            try:
                code = main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
            else:
                if code:
                    assert err.getvalue().count("\n") + len(caught) == 1 and err.getvalue().endswith("\n")
    assert code in (0, 1, 2, 64)
    for line in out.getvalue().splitlines():
        strict_json(line)
    return code


def distribution_text(letters, probs) -> str:
    return json.dumps({"alphabet": list(letters), "probs": list(probs)})


DISTRIBUTIONS = hst.sampled_from([(0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5), (0.25, 0.25, 0.5)])
HALVES = '{"alphabet": ["a", "b", "c"], "partitions": [' \
    '{"measure": 0.5, "components": [["a"], ["b", "c"]]}, {"measure": 0.5, "components": [["a", "b"], ["c"]]}]}'


class TestGeneratedFiles:
    """cli.main on generated files: only input errors, and strict JSON."""

    @given(textgen.newick_trees(), hst.sampled_from(["arc", "L"]), hst.booleans())
    @settings(max_examples=150, deadline=None)
    def test_hu(self, tree, lengths, uniform):
        text, letters = tree
        probs = [1.0 / len(letters)] * len(letters) if uniform else [1.0] + [0.0] * (len(letters) - 1)
        main_on_files(
            {"t.nwk": text, "p.json": distribution_text(letters, probs)},
            ["hu", "--tree", "@t.nwk", "--probs", "@p.json", "--lengths", lengths, "--forms"],
        )

    @given(textgen.distance_csvs(), hst.booleans())
    @settings(max_examples=150, deadline=None)
    def test_distance_and_code(self, matrix, with_probs):
        text, letters = matrix
        files = {"d.csv": text, "p.json": distribution_text(letters, [1.0 / len(letters)] * len(letters))}
        main_on_files(files, ["distance", "--matrix", "@d.csv"] + (["--probs", "@p.json"] if with_probs else []))
        main_on_files(files, ["code", "--matrix", "@d.csv", "--probs", "@p.json", "--optimize"])

    @given(textgen.points_csvs(), hst.booleans())
    @example("-1.0,8.98846567431158e+307\n0,8.988465674311579e+307\n", False)  # fsum overflow
    @settings(max_examples=150, deadline=None)
    def test_itr(self, text, collapse):
        main_on_files({"pts.csv": text}, ["itr", "--points", "@pts.csv"] + (["--collapse"] if collapse else []))

    @given(DISTRIBUTIONS, hst.integers(-1, 5), textgen.NUMBER_TEXT, hst.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sequences(self, probs, length, epsilon, with_structure):
        files = {"p.json": distribution_text("abc", probs), "s.json": HALVES}
        argv = ["sequences", "--probs", "@p.json", "--length", str(length), "--epsilon", epsilon]
        main_on_files(files, argv + (["--structure", "@s.json"] if with_structure else []))

    @given(DISTRIBUTIONS, DISTRIBUTIONS)
    @settings(max_examples=30, deadline=None)
    def test_divergence(self, p, q):
        files = {"s.json": HALVES, "p.json": distribution_text("abc", p), "q.json": distribution_text("abc", q)}
        main_on_files(files, ["notions", "--structure", "@s.json", "--probs", "@p.json", "--probs2", "@q.json"])

    @given(
        hst.integers(-2, 3),
        hst.sampled_from(["-1", "0", "7", str(2**64), "x"]),
        hst.integers(1, 6),
        hst.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_trials(self, count, seed, n_min, n_max):
        argv = ["trials", "--count", str(count), "--seed", seed, "--min-n", str(n_min), "--max-n", str(n_max)]
        main_on_files({}, argv)

    @given(hst.data(), hst.integers(1, 5), DISTRIBUTIONS)
    @settings(max_examples=150, deadline=None)
    def test_structure_commands(self, data, n, probs):
        letters = [f"a{k}" for k in range(n)]
        probs = probs[:n] + (0.0,) * (n - len(probs)) if n >= 3 else (1.0,) + (0.0,) * (n - 1)
        files = {
            "s.json": data.draw(textgen.structure_jsons(letters)),
            "p.json": distribution_text(data.draw(hst.permutations(letters)), probs),
            "t.nwk": "(" + ",".join(f"{a}:1" for a in data.draw(hst.permutations(letters))) + ");",
        }
        main_on_files(files, ["hs", "--structure", "@s.json", "--probs", "@p.json"])
        main_on_files(files, ["distance", "--structure", "@s.json"])
        main_on_files(files, ["code", "--tree", "@t.nwk", "--probs", "@p.json", "--structure", "@s.json"])

    @given(hst.data(), hst.integers(1, 4), hst.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_notions_joint(self, data, n, m):
        rows, cols = [f"a{k}" for k in range(n)], [f"b{k}" for k in range(m)]
        files = {
            "j.json": data.draw(textgen.joint_jsons(rows, cols)),
            "r.json": data.draw(textgen.structure_jsons(rows)),
            "c.json": data.draw(textgen.structure_jsons(cols)),
        }
        main_on_files(files, ["notions", "--joint", "@j.json", "--row-structure", "@r.json", "--col-structure", "@c.json"])

    @given(textgen.FASTA_TEXT | textgen.STOCKHOLM_TEXT, hst.sampled_from(["skip", "extra-letter"]))
    @settings(max_examples=150, deadline=None)
    def test_conserve(self, text, gap_mode):
        main_on_files({"aln.txt": text}, ["conserve", "--aln", "@aln.txt", "--gap-mode", gap_mode])
