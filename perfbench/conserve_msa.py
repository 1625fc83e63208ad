"""Workload ``conserve_msa``: conservation scoring of one large alignment.

Each round runs the ``conserve`` subcommand four times: on the FASTA and
the Stockholm rendering of the same alignment, each in both gap modes,
against the bundled synthetic amino-acid tree.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np

import gen
from harness import Op, close, expect, read, run_cli, write

N_ROWS, N_COLS = 400, 3000
FORMATS = ("fasta", "stockholm")
GAP_MODES = ("skip", "extra-letter")
COVERAGE_THRESHOLD = 0.5
ENGINEERED = (0.0, 0.25, 1.0)  # scores of the first three columns
LETTERS = "".join(gen.AA_GROUPS) + gen.GAP


def expected_scores(grid: np.ndarray, gap_mode: str) -> dict[str, np.ndarray]:
    """Per-column coverage, H and H_U computed from the column counts.

    Under the bundled tree (groups at height 0.25 under a height-1 root)
    H_U = 0.75 * H(group masses) + 0.25 * H(letter frequencies); in
    extra-letter mode the gap is a letter and a group of its own."""
    counts = np.stack([(grid == a).sum(axis=0) for a in LETTERS], axis=1).astype(float)
    gap = len(LETTERS) - 1
    coverage = 1.0 - counts[:, gap] / grid.shape[0]
    if gap_mode == "skip":
        counts[:, gap] = 0.0
    edges = np.cumsum([0] + [len(g) for g in gen.AA_GROUPS] + [1])
    groups = np.add.reduceat(counts, edges[:-1], axis=1)  # the gap is the last group
    total = counts.sum(axis=1, keepdims=True)
    safe = np.where(total > 0, total, 1.0)

    def H(m):
        f = m / safe
        with np.errstate(divide="ignore", invalid="ignore"):
            return -np.where(f > 0, f * np.log2(f), 0.0).sum(axis=1)

    h = H(counts)
    return {
        "coverage": coverage,
        "h": h,
        "h_u": 0.75 * H(groups) + 0.25 * h,
        "flagged": coverage < COVERAGE_THRESHOLD,
    }


class ConserveMsa:
    name = "conserve_msa"
    items_per_round = len(FORMATS) * len(GAP_MODES) * N_ROWS * N_COLS  # cells scored
    trace_rounds = 2

    def __init__(self, seed: int, work: str):
        self.work = work
        rng = np.random.default_rng(seed)
        self.grid = gen.random_alignment(N_ROWS, N_COLS, rng)
        names = [f"seq{k:04d}" for k in range(N_ROWS)]
        self.paths = {
            "fasta": write(os.path.join(work, "family.fasta"), gen.fasta(names, self.grid)),
            "stockholm": write(os.path.join(work, "family.sto"), gen.stockholm(names, self.grid)),
        }
        self.expected = {mode: expected_scores(self.grid, mode) for mode in GAP_MODES}
        small = gen.random_alignment(20, 64, rng)
        self.warm_path = write(os.path.join(work, "warm.fasta"), gen.fasta(names[:20], small))

    def _conserve(self, fmt: str, mode: str, tracer=None) -> Op:
        label = f"{fmt}_{mode}"
        out = os.path.join(self.work, f"{mode}.csv")  # one path, so the summaries match
        argv = ["conserve", "--aln", self.paths[fmt], "--gap-mode", mode, "--out", out]
        if tracer is None:
            op = run_cli(label, argv)
        else:
            with tracer.span("cli.conserve"):
                op = run_cli(label, argv)
        op.meta = {"fmt": fmt, "mode": mode, "csv": read(out) if op.ok else ""}
        return op

    def warmup(self) -> list[Op]:
        return [run_cli("warmup", ["conserve", "--aln", self.warm_path])]

    def round(self, r: int, tracer=None) -> list[Op]:
        return [self._conserve(fmt, mode, tracer) for fmt in FORMATS for mode in GAP_MODES]

    def traced_round(self, r: int, tracer) -> list[Op]:
        return self.round(r, tracer)

    def check(self, ops: list[Op]) -> None:
        by_key = {}
        for op in ops:
            if not op.ok or op.label == "warmup":
                continue
            mode = op.meta["mode"]
            by_key[(op.meta["fmt"], mode)] = op
            check_report(op.label, json.loads(op.out), op.meta["csv"], self.expected[mode])
        for mode in GAP_MODES:
            pair = [by_key.get((fmt, mode)) for fmt in FORMATS]
            if None not in pair:
                expect(pair[0].out == pair[1].out, f"{mode}: FASTA and Stockholm summaries differ")
                expect(pair[0].meta["csv"] == pair[1].meta["csv"], f"{mode}: FASTA and Stockholm reports differ")

    def layer_metrics(self, tracer, totals: dict) -> dict:
        inner = sum(totals.get(k, 0.0) for k in ("io.parse_fasta", "io.parse_stockholm", "conservation.score"))
        return {"cli.conserve_emit_s": totals.get("cli.conserve", 0.0) - inner}


def check_report(label: str, summary: dict, csv: str, want: dict) -> None:
    """One ``conserve`` call: its JSON summary and CSV report against the
    benchmark's own per-column scores."""
    expect(summary["n_rows"] == N_ROWS and summary["n_cols"] == N_COLS, f"{label}: shape")
    table = np.loadtxt(io.StringIO(csv), delimiter=",", skiprows=1, ndmin=2)
    expect(table.shape == (N_COLS, 5), f"{label}: report has {table.shape} cells")
    expect(np.array_equal(table[:, 0], np.arange(1, N_COLS + 1)), f"{label}: column numbering")
    for k, key in ((1, "coverage"), (2, "h_u"), (3, "h")):
        bad = np.flatnonzero(np.abs(table[:, k] - want[key]) > 1e-9 * np.maximum(1.0, want[key]))
        expect(bad.size == 0, f"{label}: {key} of column {bad[:1] + 1} is "
               f"{table[bad[:1], k]}, expected {want[key][bad[:1]]}")
    expect(np.array_equal(table[:, 4].astype(bool), want["flagged"]), f"{label}: flagged columns")
    expect((table[:, 2] <= table[:, 3] + 1e-12).all(), f"{label}: H_U above H")
    for j, score in enumerate(ENGINEERED):
        close(table[j, 2], score, f"{label}: engineered column {j + 1}")
    cols = summary["columns"]
    expect(len(cols) == N_COLS, f"{label}: summary column count")
    expect(summary["flagged"] == [c["column"] for c in cols if c["flagged"]], f"{label}: summary flags")
    expect(summary["flagged"] == (np.flatnonzero(want["flagged"]) + 1).tolist(), f"{label}: flagged list")
    close(summary["max_h_u"], float(want["h_u"].max()), f"{label}: max H_U")
    close(summary["mean_h_u"], float(want["h_u"].mean()), f"{label}: mean H_U")
