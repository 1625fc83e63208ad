"""Command-line surface.

Every subcommand reads its declared input files, runs the corresponding
library operation, returns a summary that ``main`` prints as JSON to stdout,
and optionally writes CSV/Newick artifacts to files.  Exit codes: 0
success, 1 validation error, 2 parse error, 64 usage error.

Entropy-like quantities are computed in bits and converted for display when
the ``STRUCTENT_LOG_BASE`` environment variable is ``e`` or ``10``: ``main``
reads the base before any input, passes the subcommand the factor converting
bits into it, and records the base in the summary.  Floats are printed at 12
significant digits and key order is fixed, so output is byte-identical
across runs given the same inputs and seeds.  JSON has no infinity or NaN,
so an infinite or undefined value (a D_KL of +inf, the rate of an empty
typical set) prints as ``null``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .alphabet import Alphabet, Distribution, PartitionStructure
from .concordance import state_distance_matrix
from .errors import AlphabetMismatch, ParseError, StructentError, ValidationError
from .notions import (
    StructuredAlphabet,
    StructuredJoint,
    d_kl_s,
    h_s,
    h_s_conditional,
    h_s_joint,
    h_s_via_q,
    i_s,
)
from .coding import (
    GAP_BOUND,
    GAP_TOL,
    distance_code_lengths,
    esscl,
    initial_code_tree,
    lambda_u,
    mu_u,
    optimize_with_trace,
    run_bound_trials,
)
from .conservation import (
    DEFAULT_COVERAGE_THRESHOLD,
    ColumnScore,
    ConservationReport,
    conservation_score,
    synthetic_aa_tree,
)
from .io import (
    Alignment,
    distance_to_csv,
    parse_distance_csv,
    parse_distribution_json,
    parse_fasta,
    parse_joint_json,
    parse_newick,
    parse_points_csv,
    parse_stockholm,
    parse_structure_json,
    structure_to_json,
    tree_to_newick,
)
from .linear import LinearAlphabet, collapse_duplicate_points, h_r, h_r_sample
from .sequences import (
    equivalence_class_stats,
    letter_space,
    typical_set,
    types_correction,
)
from .ultrametric import (
    hu_arcwise,
    hu_bandwise,
    hu_nodewise,
    hu_recursive,
    to_partition_structure,
    tree_from_distance,
    tree_to_distance,
)


def _log_base() -> tuple[str, float]:
    """Display base and the factor converting bits into it."""
    raw = os.environ.get("STRUCTENT_LOG_BASE", "2").strip().lower()
    if raw in ("", "2"):
        return "2", 1.0
    if raw == "e":
        return "e", math.log(2.0)
    if raw == "10":
        return "10", math.log10(2.0)
    raise ValidationError(f"STRUCTENT_LOG_BASE must be 2, e, or 10, not {raw!r}")


def _round12(x):
    if isinstance(x, float):  # JSON has no NaN or infinity: they print as null
        return float(f"{x:.12g}") if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    return x


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(_round12(payload), sort_keys=True) + "\n")


def _read(path: str) -> str:
    with open(path, "r") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not a text file: {e}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _dist_on(alphabet: Alphabet, P: Distribution) -> Distribution:
    """Reindex `P` onto `alphabet` (same letters, possibly another order)."""
    if set(P.alphabet.letters) != set(alphabet.letters):
        raise AlphabetMismatch("distribution letters do not match the alphabet")
    return Distribution.from_mapping(alphabet, P.as_mapping())


def _structure_on(alphabet: Alphabet, S: PartitionStructure) -> PartitionStructure:
    if set(S.alphabet.letters) != set(alphabet.letters):
        raise AlphabetMismatch("structure letters do not match the alphabet")
    if S.alphabet == alphabet:
        return S
    cols = [S.alphabet.index_of(a) for a in alphabet]
    return PartitionStructure._from_labels(alphabet, S.labels[:, cols], S.measures)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's default 2
        self.exit(64, f"{self.prog}: error: {message}\n")


# ----------------------------------------------------------- subcommands


def _cmd_hu(args, f: float) -> dict:
    T = parse_newick(_read(args.tree), lengths=args.lengths)
    P = _dist_on(T.alphabet, parse_distribution_json(_read(args.probs)))
    hu = f * hu_arcwise(T, P)
    out = {
        "H_U": hu,
        "n": len(T.alphabet),
        "tree_height": T.height,
        "is_normalized": T.is_normalized,
    }
    if args.forms:
        out["forms"] = {
            "recursive": f * hu_recursive(T, P),
            "nodewise": f * hu_nodewise(T, P),
            "arcwise": hu,
            "bandwise": f * hu_bandwise(T, P),
        }
    if args.out_structure:
        _write(args.out_structure, structure_to_json(to_partition_structure(T)) + "\n")
        out["structure_file"] = args.out_structure
    return out


def _cmd_hs(args, f: float) -> dict:
    S = parse_structure_json(_read(args.structure))
    P = _dist_on(S.alphabet, parse_distribution_json(_read(args.probs)))
    X = StructuredAlphabet(P, S)
    out = {
        "H_S": f * h_s(X),
        "n": len(S.alphabet),
        "n_partitions": len(S),
        "total_measure": S.total_measure,
        "is_normalized": S.is_normalized,
        "is_separating": S.is_separating,
    }
    if S.is_normalized:
        out["H_S_via_q"] = f * h_s_via_q(X)
    return out


def _cmd_notions(args, f: float) -> dict:
    if args.joint:
        if not (args.row_structure and args.col_structure):
            raise ValidationError("--joint needs --row-structure and --col-structure")
        J = parse_joint_json(_read(args.joint))
        SA = _structure_on(J.row_alphabet, parse_structure_json(_read(args.row_structure)))
        SB = _structure_on(J.col_alphabet, parse_structure_json(_read(args.col_structure)))
        SJ = StructuredJoint(J, SA, SB)
        out = {
            "H_row": f * h_s(StructuredAlphabet(J.row_marginal(), SA)),
            "H_col": f * h_s(StructuredAlphabet(J.col_marginal(), SB)),
            "H_joint": f * h_s_joint(SJ),
            "H_row_given_col": f * h_s_conditional(SJ, "row|col"),
            "H_col_given_row": f * h_s_conditional(SJ, "col|row"),
            "I": f * i_s(SJ),
        }
    elif args.structure and args.probs and args.probs2:
        S = parse_structure_json(_read(args.structure))
        P = _dist_on(S.alphabet, parse_distribution_json(_read(args.probs)))
        Q = _dist_on(S.alphabet, parse_distribution_json(_read(args.probs2)))
        out = {
            "D_KL": f * d_kl_s(StructuredAlphabet(P, S), Q),
        }
    else:
        raise ValidationError(
            "notions needs either --joint with --row-structure/--col-structure, "
            "or --structure with --probs and --probs2"
        )
    return out


def _cmd_distance(args, f: float) -> dict:
    if bool(args.matrix) == bool(args.structure):
        raise ValidationError("distance needs exactly one of --matrix or --structure")
    if args.matrix:
        D = parse_distance_csv(_read(args.matrix))
        out = {
            "mode": "matrix",
            "n": len(D.alphabet),
            "is_ultrametric": D.is_ultrametric,
            "is_normalized": D.is_normalized,
        }
        witness = D._ultra[1]  # found and kept by is_ultrametric above
        if witness is not None:
            out["witness"] = [repr(x) for x in witness]
        else:
            T = tree_from_distance(D)
            out["newick"] = tree_to_newick(T)
            if args.probs:
                P = _dist_on(D.alphabet, parse_distribution_json(_read(args.probs)))
                out["H_U"] = f * hu_arcwise(T, P)
            if args.out:
                _write(args.out, out["newick"] + "\n")
                out["tree_file"] = args.out
    else:
        S = parse_structure_json(_read(args.structure))
        M = state_distance_matrix(S)
        out = {
            "mode": "structure",
            "n": len(S.alphabet),
            "is_ultrametric": M.is_ultrametric,
            "is_normalized": M.is_normalized,
            "max_distance": float(M.matrix.max()),
        }
        if args.out:
            _write(args.out, distance_to_csv(M))
            out["matrix_file"] = args.out
    return out


def _cmd_code(args, f: float) -> dict:
    if bool(args.tree) == bool(args.matrix):
        raise ValidationError("code needs exactly one of --tree or --matrix")
    if args.tree:
        T = parse_newick(_read(args.tree), lengths=args.lengths)
    else:
        T = tree_from_distance(parse_distance_csv(_read(args.matrix)))
    P = _dist_on(T.alphabet, parse_distribution_json(_read(args.probs)))
    D = tree_to_distance(T)
    if args.optimize:
        C, trace = optimize_with_trace(T, P)
    else:
        C, trace = initial_code_tree(T, P), None
    hu = hu_arcwise(T, P)
    mu = mu_u(C, P, D)
    out = {
        "H_U": f * hu,
        "mu_U": f * mu,
        "lambda_U": f * lambda_u(C, P, D),
        "gap": f * (mu - hu),
        "bound_ok": mu - hu <= GAP_BOUND + GAP_TOL,
        "optimized": bool(args.optimize),
    }
    if trace is not None:
        out["rewrites"] = len(trace.rewrites)
        out["restarts"] = trace.restarts
        out["initial_mu_U"] = f * trace.initial
    if args.structure:
        S = _structure_on(T.alphabet, parse_structure_json(_read(args.structure)))
        X = StructuredAlphabet(P, S)
        out["ESSCL"] = f * esscl(C, X)
        out["H_S"] = f * h_s(X)
    if args.out:
        words = C.codewords()
        lengths = distance_code_lengths(C, P, D)
        lines = ["letter,codeword,depth,distance_length,probability"]
        for a in T.alphabet:
            lines.append(
                f"{a},{words[a]},{len(words[a])},{lengths[a]:.12g},{P.p(a):.12g}"
            )
        _write(args.out, "\n".join(lines) + "\n")
        out["codes_file"] = args.out
    return out


def _cmd_trials(args, f: float) -> dict:
    report = run_bound_trials(
        count=args.count,
        n_min=args.min_n,
        n_max=args.max_n,
        seed=args.seed,
        violations_dir=args.violations_dir,
    )
    d = report.to_dict()
    for rec in d["records"]:
        for key in ("hu", "mu", "gap"):
            rec[key] = f * rec[key]
    d["max_gap"] = f * d["max_gap"]
    d["bound"] = f * GAP_BOUND
    summary = {k: v for k, v in d.items() if k != "records"}
    if args.out:
        d["log_base"] = args.log_base
        _write(args.out, json.dumps(_round12(d), sort_keys=True) + "\n")
        summary["report_file"] = args.out
    return summary


def _cmd_itr(args, f: float) -> dict:
    points, probs = parse_points_csv(_read(args.points))
    if probs is not None:
        if args.collapse:
            points, probs = collapse_duplicate_points(points, probs)
        A = LinearAlphabet(points)
        P = Distribution(A.alphabet, probs)
        out = {
            "h_r": f * h_r(A, P),
            "n_points": len(points),
            "span": [min(points), max(points)],
            "is_normalized": A.is_normalized,
        }
    else:
        out = {
            "h_r_sample": f * h_r_sample(points),
            "n": len(points),
            "span": [min(points), max(points)],
        }
    return out


def _cmd_sequences(args, f: float) -> dict:
    P = parse_distribution_json(_read(args.probs))
    if args.structure:
        S = _structure_on(P.alphabet, parse_structure_json(_read(args.structure)))
        stats = equivalence_class_stats(args.length, P, S, args.epsilon)
        lo, hi = stats.size_rates
        out = {
            "mode": "equivalence-classes",
            "N": args.length,
            "epsilon": args.epsilon,
            "typical_count": stats.typical_count,
            "class_count": stats.class_count,
            "class_rate": f * stats.class_rate,
            "h_structure": f * stats.h_structure,
            "h_s": f * stats.h_s,
            "min_class_size": stats.min_class_size,
            "max_class_size": stats.max_class_size,
            "size_rates": [f * lo, f * hi],
        }
    else:
        summary = typical_set(letter_space(P, args.length), args.epsilon)
        out = {
            "mode": "typical-set",
            "N": args.length,
            "epsilon": args.epsilon,
            "space_size": summary.space_size,
            "count": summary.count,
            "mass": summary.mass,
            "rate": f * summary.rate,
            "entropy": f * summary.entropy,
            "types_correction": f * types_correction(len(P.alphabet), args.length),
        }
    return out


def _parse_alignment(text: str, fmt: str) -> Alignment:
    if fmt == "auto":
        fmt = "stockholm" if text.lstrip().startswith("# STOCKHOLM") else "fasta"
    return parse_stockholm(text) if fmt == "stockholm" else parse_fasta(text)


def _cmd_conserve(args, f: float) -> dict:
    aln = _parse_alignment(_read(args.aln), args.format)
    if args.tree:
        T = parse_newick(_read(args.tree), lengths=args.lengths)
    else:
        T = synthetic_aa_tree(include_gap=(args.gap_mode == "extra-letter"))
    report = conservation_score(
        aln, T, gap_mode=args.gap_mode, coverage_threshold=args.coverage_threshold
    )
    if f != 1.0:  # in base 2 the bits are printed as they are
        scaled = (ColumnScore(c.index, c.coverage, f * c.h_u, f * c.h, c.h_reduced, c.flagged) for c in report.columns)
        report = ConservationReport(report.gap_mode, report.coverage_threshold, tuple(scaled))
    scores = [c.h_u for c in report.columns]
    out = {
        "n_rows": aln.n_rows,
        "n_cols": aln.n_cols,
        "gap_mode": report.gap_mode,
        "coverage_threshold": report.coverage_threshold,
        "flagged": list(report.flagged_columns),
        "mean_h_u": float(np.mean(scores)) if scores else 0.0,
        "max_h_u": max(scores, default=0.0),
        "columns": [
            {
                "column": c.index,
                "coverage": c.coverage,
                "h_u": c.h_u,
                "h": c.h,
                "flagged": c.flagged,
            }
            for c in report.columns
        ],
    }
    if args.out:
        _write(args.out, report.to_csv())
        out["report_file"] = args.out
    return out


# -------------------------------------------------------------- dispatch


def build_parser() -> _Parser:
    p = _Parser(prog="structent", description="Structure-sensitive information theory")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    hu = sub.add_parser("hu", help="ultrametric entropy of a tree + distribution")
    hu.add_argument("--tree", required=True, help="Newick file")
    hu.add_argument("--lengths", choices=("arc", "L"), default="arc")
    hu.add_argument("--probs", required=True, help="distribution JSON")
    hu.add_argument("--forms", action="store_true", help="report all four formulations")
    hu.add_argument("--out-structure", help="write the banded partition structure JSON")
    hu.set_defaults(func=_cmd_hu)

    hs = sub.add_parser("hs", help="structure-weighted entropy")
    hs.add_argument("--structure", required=True, help="structure JSON")
    hs.add_argument("--probs", required=True, help="distribution JSON")
    hs.set_defaults(func=_cmd_hs)

    no = sub.add_parser("notions", help="joint/conditional/mutual/divergence notions")
    no.add_argument("--joint", help="joint distribution JSON")
    no.add_argument("--row-structure", help="structure JSON for rows")
    no.add_argument("--col-structure", help="structure JSON for columns")
    no.add_argument("--structure", help="structure JSON (divergence mode)")
    no.add_argument("--probs", help="distribution JSON (divergence mode)")
    no.add_argument("--probs2", help="second distribution JSON (divergence mode)")
    no.set_defaults(func=_cmd_notions)

    di = sub.add_parser("distance", help="ultrametric checks / state distances")
    di.add_argument("--matrix", help="distance CSV")
    di.add_argument("--structure", help="structure JSON (state-distance mode)")
    di.add_argument("--probs", help="distribution JSON (adds H_U in matrix mode)")
    di.add_argument("--out", help="write tree Newick / distance CSV")
    di.set_defaults(func=_cmd_distance)

    co = sub.add_parser("code", help="distance-weighted code statistics")
    co.add_argument("--tree", help="Newick file")
    co.add_argument("--matrix", help="distance CSV (must be ultrametric)")
    co.add_argument("--lengths", choices=("arc", "L"), default="arc")
    co.add_argument("--probs", required=True, help="distribution JSON")
    co.add_argument("--structure", help="structure JSON (adds ESSCL/H_S)")
    co.add_argument("--optimize", action="store_true", help="run the rewrite optimizer")
    co.add_argument("--out", help="write per-letter codewords CSV")
    co.set_defaults(func=_cmd_code)

    tr = sub.add_parser("trials", help="randomized optimizer-vs-entropy bound trials")
    tr.add_argument("--count", type=int, required=True)
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--min-n", type=int, default=3)
    tr.add_argument("--max-n", type=int, default=50)
    tr.add_argument("--violations-dir", default=".")
    tr.add_argument("--out", help="write the full trial report JSON")
    tr.set_defaults(func=_cmd_trials)

    it = sub.add_parser("itr", help="real-line entropy of points CSV")
    it.add_argument("--points", required=True, help="CSV: value[,probability] rows")
    it.add_argument("--collapse", action="store_true", help="merge duplicate points")
    it.set_defaults(func=_cmd_itr)

    se = sub.add_parser("sequences", help="typical-set / equivalence-class counts")
    se.add_argument("--probs", required=True, help="distribution JSON")
    se.add_argument("--length", type=int, required=True)
    se.add_argument("--epsilon", type=float, required=True)
    se.add_argument("--structure", help="structure JSON (equivalence-class mode)")
    se.set_defaults(func=_cmd_sequences)

    cv = sub.add_parser("conserve", help="per-column conservation scores for an MSA")
    cv.add_argument("--aln", required=True, help="FASTA or Stockholm file")
    cv.add_argument("--format", choices=("auto", "fasta", "stockholm"), default="auto")
    cv.add_argument("--tree", help="amino-acid tree Newick (default: bundled synthetic)")
    cv.add_argument("--lengths", choices=("arc", "L"), default="arc")
    cv.add_argument("--gap-mode", choices=("skip", "extra-letter"), default="skip")
    cv.add_argument(
        "--coverage-threshold", type=float, default=DEFAULT_COVERAGE_THRESHOLD
    )
    cv.add_argument("--out", help="write the per-column CSV report")
    cv.set_defaults(func=_cmd_conserve)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.log_base, f = _log_base()
        out = args.func(args, f)
        out["log_base"] = args.log_base
        _emit(out)
        return 0
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except StructentError as e:
        sys.stderr.write(f"validation error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
