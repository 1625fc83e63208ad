"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs one round of every workload, confirms that its checker accepts the
program's real output, then perturbs that output in one place and confirms
that the checker rejects it.  Also confirms that ``BENCHMARK.json`` names
exactly the metrics ``run.py`` prints.  Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import harness
import layers
from harness import CheckFailed

SEED = 7
failures: list[str] = []


def expect_verdict(what: str, check, ops, accept: bool) -> None:
    try:
        check(ops)
        verdict, why = True, ""
    except CheckFailed as e:
        verdict, why = False, f" ({e})"
    ok = verdict == accept
    print(f"{'ok  ' if ok else 'FAIL'} {what}: {'accepted' if verdict else 'rejected'}{why}")
    if not ok:
        failures.append(what)


def perturbed(ops, label, edit):
    """A deep copy of ``ops`` with ``edit`` applied to the op ``label``."""
    out = copy.deepcopy(ops)
    edit(next(op for op in out if op.label == label))
    return out


def edit_json(field, change):
    def edit(op):
        doc = json.loads(op.meta[field] if field != "out" else op.out)
        change(doc)
        text = json.dumps(doc)
        if field == "out":
            op.out = text
        else:
            op.meta[field] = text
    return edit


def bound_trials(work: str) -> None:
    from bound_trials import BoundTrials

    wl = BoundTrials(SEED, work)
    ops = wl.round(0)
    expect_verdict("bound_trials: real output", wl.check, ops, True)

    def gap_above_one(doc):
        rec = doc["records"][3]
        rec["mu"] = rec["hu"] + 1.001
        rec["gap"] = 1.001

    expect_verdict("bound_trials: one trial gap pushed above 1", wl.check,
                   perturbed(ops, "band2", edit_json("report", gap_above_one)), False)

    def hu_off(doc):
        doc["records"][0]["hu"] += 1e-6
        doc["records"][0]["gap"] -= 1e-6

    expect_verdict("bound_trials: regenerated H_U off by 1e-6", wl.check,
                   perturbed(ops, "band0", edit_json("report", hu_off)), False)


def conserve_msa(work: str) -> None:
    from conserve_msa import ConserveMsa

    wl = ConserveMsa(SEED, work)
    ops = wl.round(0)
    expect_verdict("conserve_msa: real output", wl.check, ops, True)

    def h_u_off(op):
        lines = op.meta["csv"].splitlines()
        cells = lines[500].split(",")
        cells[2] = repr(float(cells[2]) + 1e-6)
        lines[500] = ",".join(cells)
        op.meta["csv"] = "\n".join(lines) + "\n"

    one = [op for op in ops if op.label == "fasta_skip"]
    expect_verdict("conserve_msa: one column's h_u off by 1e-6", wl.check,
                   perturbed(one, "fasta_skip", h_u_off), False)

    def swap_flag(doc):
        doc["flagged"] = doc["flagged"][1:]

    expect_verdict("conserve_msa: a flagged column dropped from the summary", wl.check,
                   perturbed(one, "fasta_skip", edit_json("out", swap_flag)), False)

    def stockholm_differs(op):
        op.out = op.out.replace('"log_base": "2"', '"log_base": "2" ')

    expect_verdict("conserve_msa: Stockholm output differs from FASTA by one byte", wl.check,
                   perturbed(ops, "stockholm_extra-letter", stockholm_differs), False)


def cli_suite(work: str) -> None:
    from cli_suite import CliSuite

    wl = CliSuite(SEED, work)
    ops = wl.round(0)
    expect_verdict("cli_suite: real output", wl.check, ops, True)

    def bump(key, delta):
        def change(doc):
            doc[key] += delta
        return change

    cases = [
        ("notions_joint", "H_col_given_row", 1e-6, "a chain-rule term changed by 1e-6"),
        ("sequences_typical", "count", 1, "typical count off by one"),
        ("sequences_classes", "class_count", 1, "class count off by one"),
        ("hu", "H_U", 1e-6, "H_U off by 1e-6"),
        ("hs", "H_S_via_q", 1e-6, "H_S_via_q off by 1e-6"),
        ("code", "mu_U", -1.0, "mu_U pushed below lambda_U"),
        ("itr_points", "h_r", 1e-6, "h_r off by 1e-6"),
    ]
    for label, key, delta, what in cases:
        expect_verdict(f"cli_suite: {what}", wl.check,
                       perturbed(ops, label, edit_json("out", bump(key, delta))), False)

    def i_r_off(op):
        op.out = json.dumps(json.loads(op.out) + 1e-6)

    expect_verdict("cli_suite: i_r off by 1e-6", wl.check, perturbed(ops, "i_r", i_r_off), False)

    csv = wl.structure_args[-1]
    text = harness.read(csv)
    harness.write(csv, text.replace(",1,", ",0.999,", 1))
    expect_verdict("cli_suite: one state distance changed", wl.check, ops, False)


def benchmark_json() -> None:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok = per_layer == list(layers.PER_LAYER) and end_to_end == {
        "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json names the metrics run.py prints")
    if not ok:
        failures.append("BENCHMARK.json")


def main() -> int:
    harness.add_source_path()
    benchmark_json()
    root = os.path.join(harness.ROOT, ".perfbench_work")
    os.makedirs(root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=root)
    try:
        for case in (bound_trials, conserve_msa, cli_suite):
            sub = os.path.join(work, case.__name__)
            os.makedirs(sub)
            case(sub)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} case(s) misbehaved" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
