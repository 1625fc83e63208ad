"""Workload ``cli_suite``: one pass over the other subcommands on fixed
generated inputs, plus the real-line joint notions, which have no
subcommand and are called as library functions."""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import sys
import time

import numpy as np

import gen
from harness import Op, close, expect, read, run_cli, write

HU_LEAVES = 200  # hu --forms; the banded tree has one level per internal node
MATRIX_LEAVES = 160  # distance --matrix
BAND_LEAVES = 128  # distance --structure and hs, on the tree's banded structure
JOINT_SIDE, JOINT_PARTITIONS = 40, 30  # notions --joint
KL_LETTERS, KL_PARTITIONS = 60, 30  # notions, divergence mode
CODE_LEAVES, CODE_PARTITIONS = 40, 8  # code --optimize --structure
ITR_POINTS = 2000  # itr, both modes
LINE_POINTS = 60  # i_r, h_r_joint, h_r_conditional
SEQ_LETTERS, SEQ_LENGTH = 4, 12  # 4**12 = 2**24 sequences, the enumeration cap
SEQ_EPSILON = 0.15
SEQ_PROBS = (0.4, 0.3, 0.2, 0.1)
SEQ_MEASURES = (0.6, 0.4)
TOL = 1e-9


def h2(p):
    """Binary entropy, elementwise."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    return np.nan_to_num(t)


def reduced(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.bincount(labels, weights=probs)


def structure_entropy(probs, structure, n) -> float:
    rows = gen.label_rows(structure, n)
    return sum(m * gen.entropy(reduced(probs, rows[k])) for k, (_, m) in enumerate(structure))


def compositions(total: int, parts: int):
    """Every vector of ``parts`` non-negative integers summing to ``total``."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + cuts + (total + parts - 1,)
        yield np.array([edges[k + 1] - edges[k] - 1 for k in range(parts)])


def multinomial(counts) -> int:
    out, n = 1, 0
    for c in counts:
        n += int(c)
        out *= math.comb(n, int(c))
    return out


def typical_census(probs, N: int, eps: float):
    """Typical-set size and mass by the method of types.  Compositions whose
    surprisal rate lies within 1e-9 of the boundary are reported apart, so
    rounding in the program cannot fail the check.  Returns
    (count of sure members, count of boundary members, mass of sure members)."""
    logp = -np.log2(probs)
    H = float(probs @ logp)
    sure = edge = 0
    mass = 0.0
    for c in compositions(N, len(probs)):
        dev = abs(float(c @ logp) / N - H) - eps
        if abs(dev) <= 1e-9:
            edge += multinomial(c)
        elif dev < 0:
            k = multinomial(c)
            sure += k
            mass += k * 2.0 ** -float(c @ logp)
    return sure, edge, mass


def class_census(probs, structure, N: int, eps: float):
    """Equivalence classes of typical pair sequences by the method of
    types.  A class is a sequence of partitions with partition composition
    m; its members choose a component at each position, so its size
    depends on m alone.  Returns (typical count, class count, min size,
    max size, boundary compositions seen)."""
    blocks = [len(b) for b, _ in structure]
    q = np.concatenate([m * reduced(probs, gen.label_rows([(b, m)], len(probs))[0])
                        for b, m in structure])
    logq = -np.log2(q)
    H = float(q @ logq)
    owner = np.repeat(np.arange(len(structure)), blocks)
    sizes: dict[tuple, int] = {}
    edge = 0
    for c in compositions(N, len(q)):
        dev = abs(float(c @ logq) / N - H) - eps
        if abs(dev) <= 1e-9:
            edge += 1
        if dev > 0:
            continue
        m = tuple(int(c[owner == s].sum()) for s in range(len(structure)))
        ways = 1
        for s in range(len(structure)):
            ways *= multinomial(c[owner == s])
        sizes[m] = sizes.get(m, 0) + ways
    typical = sum(multinomial(m) * k for m, k in sizes.items())
    classes = sum(multinomial(m) for m in sizes)
    return typical, classes, min(sizes.values()), max(sizes.values()), edge, H


class CliSuite:
    name = "cli_suite"
    items_per_round = 1  # passes
    trace_rounds = 2

    def __init__(self, seed: int, work: str):
        from structent.linear import LinearAlphabet, linear_structure
        from structent.notions import JointDistribution, StructuredJoint, i_s

        self.work = work
        rng = np.random.default_rng(seed)
        f = lambda name, text: write(os.path.join(work, name), text)
        exp = self.expected = {}

        # hu --forms --out-structure
        t = gen.random_tree(HU_LEAVES, rng)
        p = gen.dirichlet(HU_LEAVES, rng)
        self.hu_args = ["hu", "--tree", f("hu.nwk", t.newick()),
                        "--probs", f("hu_p.json", gen.distribution_json(t.letters, p)),
                        "--forms", "--out-structure", os.path.join(work, "hu_structure.json")]
        exp["hu"] = gen.hu_grouping(t, p)
        self.hu_letters, self.hu_probs = t.letters, p
        self.hu_bands = len(np.unique(t.height[t.leaf_of < 0]))

        # distance --matrix
        t = gen.random_tree(MATRIX_LEAVES, rng)
        p = gen.dirichlet(MATRIX_LEAVES, rng)
        self.matrix_args = ["distance", "--matrix", f("m.csv", gen.distance_csv(t.letters, t.distance())),
                            "--probs", f("m_p.json", gen.distribution_json(t.letters, p))]
        exp["distance_matrix"] = gen.hu_grouping(t, p)

        # distance --structure and hs, on a banded structure
        t = gen.random_tree(BAND_LEAVES, rng)
        p = gen.dirichlet(BAND_LEAVES, rng)
        self.band_D = t.distance()
        bands = gen.banded_partitions(self.band_D)
        sfile = f("band.json", gen.structure_json(t.letters, bands))
        self.structure_args = ["distance", "--structure", sfile, "--out", os.path.join(work, "band_d.csv")]
        self.hs_args = ["hs", "--structure", sfile, "--probs", f("band_p.json", gen.distribution_json(t.letters, p))]
        exp["hs"] = gen.hu_grouping(t, p)
        exp["hs_partitions"] = len(bands)

        # notions --joint
        rows = [f"r{k}" for k in range(JOINT_SIDE)]
        cols = [f"c{k}" for k in range(JOINT_SIDE)]
        J = gen.dirichlet(JOINT_SIDE * JOINT_SIDE, rng).reshape(JOINT_SIDE, JOINT_SIDE)
        SA = gen.random_structure(JOINT_SIDE, JOINT_PARTITIONS, rng)
        SB = gen.random_structure(JOINT_SIDE, JOINT_PARTITIONS, rng)
        self.joint_args = ["notions", "--joint", f("joint.json", gen.joint_json(rows, cols, J)),
                           "--row-structure", f("rs.json", gen.structure_json(rows, SA)),
                           "--col-structure", f("cs.json", gen.structure_json(cols, SB))]
        exp["H_row"] = structure_entropy(J.sum(axis=1), SA, JOINT_SIDE)
        exp["H_col"] = structure_entropy(J.sum(axis=0), SB, JOINT_SIDE)
        ra, rb = gen.label_rows(SA, JOINT_SIDE), gen.label_rows(SB, JOINT_SIDE)
        exp["H_joint"] = sum(
            mA * mB * gen.entropy(np.bincount(
                (ra[i][:, None] * JOINT_SIDE + rb[j][None, :]).ravel(), weights=J.ravel()))
            for i, (_, mA) in enumerate(SA) for j, (_, mB) in enumerate(SB))

        # notions, divergence mode
        letters = [f"k{k}" for k in range(KL_LETTERS)]
        P, Q = gen.dirichlet(KL_LETTERS, rng), gen.dirichlet(KL_LETTERS, rng)
        S = gen.random_structure(KL_LETTERS, KL_PARTITIONS, rng)
        self.kl_args = ["notions", "--structure", f("kl_s.json", gen.structure_json(letters, S)),
                        "--probs", f("kl_p.json", gen.distribution_json(letters, P)),
                        "--probs2", f("kl_q.json", gen.distribution_json(letters, Q))]
        kl = 0.0
        for k, (_, m) in enumerate(S):
            lab = gen.label_rows(S, KL_LETTERS)[k]
            rp, rq = reduced(P, lab), reduced(Q, lab)
            kl += m * float((rp * np.log2(rp / rq)).sum())
        exp["D_KL"] = kl

        # code --optimize --structure
        t = gen.random_tree(CODE_LEAVES, rng)
        p = gen.dirichlet(CODE_LEAVES, rng)
        S = gen.random_structure(CODE_LEAVES, CODE_PARTITIONS, rng)
        self.code_args = ["code", "--tree", f("code.nwk", t.newick()),
                          "--probs", f("code_p.json", gen.distribution_json(t.letters, p)),
                          "--structure", f("code_s.json", gen.structure_json(t.letters, S)),
                          "--optimize"]
        exp["code_hu"] = gen.hu_grouping(t, p)
        exp["code_hs"] = structure_entropy(p, S, CODE_LEAVES)

        # itr, weighted points and a bare sample
        x = np.sort(rng.uniform(0.0, 1.0, ITR_POINTS))
        w = gen.dirichlet(ITR_POINTS, rng)
        self.itr_args = ["itr", "--points", f("pts.csv", gen.points_csv(x, w))]
        exp["h_r"] = float(np.diff(x) @ h2(np.cumsum(w)[:-1]))
        y = rng.normal(0.0, 1.0, ITR_POINTS)
        self.sample_args = ["itr", "--points", f("sample.csv", gen.points_csv(y))]
        ys = np.sort(y)
        exp["h_r_sample"] = float(np.diff(ys) @ h2(np.arange(1, ITR_POINTS) / ITR_POINTS))

        # sequences: typical set and equivalence classes at the cap
        letters = [f"s{k}" for k in range(SEQ_LETTERS)]
        # Fixed masses and measures, letters and partitions drawn: the
        # enumeration's size and memory then vary little from seed to seed.
        p = rng.permutation(SEQ_PROBS)
        pfile = f("seq_p.json", gen.distribution_json(letters, p))
        halves = [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]
        pick = rng.choice(3, size=2, replace=False)
        S = [(halves[pick[k]], SEQ_MEASURES[k]) for k in range(2)]
        common = ["--length", str(SEQ_LENGTH), "--epsilon", str(SEQ_EPSILON)]
        self.typical_args = ["sequences", "--probs", pfile] + common
        self.classes_args = ["sequences", "--probs", pfile,
                             "--structure", f("seq_s.json", gen.structure_json(letters, S))] + common
        exp["typical"] = typical_census(p, SEQ_LENGTH, SEQ_EPSILON)
        exp["typical_H"] = gen.entropy(p)
        exp["classes"] = class_census(p, S, SEQ_LENGTH, SEQ_EPSILON)
        exp["classes_hs"] = structure_entropy(p, S, SEQ_LETTERS)
        exp["classes_hstruct"] = gen.entropy([m for _, m in S])

        # real-line joint notions, as library calls
        a = np.sort(rng.uniform(0.0, 1.0, LINE_POINTS))
        b = np.sort(rng.uniform(0.0, 1.0, LINE_POINTS))
        a, b = (a - a[0]) / (a[-1] - a[0]), (b - b[0]) / (b[-1] - b[0])  # span 1
        JL = gen.dirichlet(LINE_POINTS * LINE_POINTS, rng).reshape(LINE_POINTS, LINE_POINTS)
        C = JL.cumsum(0).cumsum(1)[:-1, :-1]  # mass of rows <= i and columns <= j
        ra, cb = JL.sum(1).cumsum()[:-1], JL.sum(0).cumsum()[:-1]
        cells = np.stack([C, ra[:, None] - C, cb[None, :] - C, 1 - ra[:, None] - cb[None, :] + C])
        with np.errstate(divide="ignore", invalid="ignore"):
            Hc = -np.where(cells > 0, cells * np.log2(np.where(cells > 0, cells, 1)), 0).sum(0)
        wts = np.outer(np.diff(a), np.diff(b))
        exp["h_r_joint"] = float((wts * Hc).sum())
        exp["i_r"] = float((wts * (h2(ra)[:, None] + h2(cb)[None, :] - Hc)).sum())
        exp["h_r_row"] = float(np.diff(a) @ h2(ra))
        self.A, self.B = LinearAlphabet(a), LinearAlphabet(b)
        self.JL = JointDistribution(self.A.alphabet, self.B.alphabet, JL)
        exp["i_s_line"] = i_s(StructuredJoint(self.JL, linear_structure(self.A), linear_structure(self.B)))

        self.warm_args = ["hu", "--tree", f("warm.nwk", gen.random_tree(12, rng).newick()),
                          "--probs", f("warm_p.json", gen.distribution_json(
                              [f"a{k}" for k in range(12)], gen.dirichlet(12, rng))), "--forms"]

    # ------------------------------------------------------------ running

    def warmup(self) -> list[Op]:
        return [run_cli("warmup", self.warm_args)]

    def _library(self, label: str, call) -> Op:
        import structent.linear as linear

        t = time.perf_counter()
        try:
            value = call(linear)
        except Exception as e:  # a raw exception is a failed operation
            sys.stderr.write(f"perfbench: {label} raised {e!r}\n")
            return Op(label, -1, "", seconds=time.perf_counter() - t)
        return Op(label, 0, json.dumps(value), seconds=time.perf_counter() - t)

    def round(self, r: int, tracer=None) -> list[Op]:
        calls = [
            ("hu", self.hu_args), ("distance_matrix", self.matrix_args),
            ("distance_structure", self.structure_args), ("hs", self.hs_args),
            ("notions_joint", self.joint_args), ("notions_kl", self.kl_args),
            ("code", self.code_args), ("itr_points", self.itr_args),
            ("itr_sample", self.sample_args), ("sequences_typical", self.typical_args),
            ("sequences_classes", self.classes_args),
        ]
        ops = []
        for label, argv in calls:
            if tracer is None:
                ops.append(run_cli(label, argv))
            else:
                with tracer.span(f"cli.{label}"):
                    ops.append(run_cli(label, argv))
        A, B, J = self.A, self.B, self.JL
        ops.append(self._library("i_r", lambda lin: lin.i_r(A, B, J)))
        ops.append(self._library("h_r_joint", lambda lin: lin.h_r_joint(A, B, J)))
        ops.append(self._library("h_r_conditional", lambda lin: lin.h_r_conditional(A, B, J, "col|row")))
        return ops

    def traced_round(self, r: int, tracer) -> list[Op]:
        return self.round(r, tracer)

    def layer_metrics(self, tracer, totals: dict) -> dict:
        return {}

    # ------------------------------------------------------------- checks

    def check(self, ops: list[Op]) -> None:
        out = {op.label: json.loads(op.out) for op in ops if op.ok}
        exp = self.expected
        if "warmup" in out:
            forms = out["warmup"]["forms"]
            for name, v in forms.items():
                close(v, out["warmup"]["H_U"], f"warmup: H_U {name}")
        if "hu" in out:
            o = out["hu"]
            for name, v in o["forms"].items():
                close(v, exp["hu"], f"hu: H_U {name} form")
            close(o["H_U"], exp["hu"], "hu: H_U")
            S = json.loads(read(self.hu_args[-1]))
            expect(len(S["partitions"]) == self.hu_bands, "hu: banded structure has one partition per level")
            index = {a: k for k, a in enumerate(self.hu_letters)}
            structure = [([[index[a] for a in c] for c in part["components"]], part["measure"])
                         for part in S["partitions"]]
            close(sum(m for _, m in structure), 1.0, "hu: banded structure measure")
            close(structure_entropy(self.hu_probs, structure, len(index)), exp["hu"], "hu: H_S of the banded structure")
        if "distance_matrix" in out:
            o = out["distance_matrix"]
            expect(o["is_ultrametric"] and o["is_normalized"], "distance --matrix: flags")
            close(o["H_U"], exp["distance_matrix"], "distance --matrix: H_U")
        if "distance_structure" in out:
            o = out["distance_structure"]
            expect(o["is_ultrametric"], "distance --structure: not ultrametric")
            close(o["max_distance"], 1.0, "distance --structure: max distance")
            M = np.loadtxt(io.StringIO(read(self.structure_args[-1])), delimiter=",", skiprows=1,
                           usecols=range(1, BAND_LEAVES + 1))
            err = float(np.abs(M - self.band_D).max())
            expect(err <= TOL, f"distance --structure: state distances differ from LCA heights by {err}")
        if "hs" in out:
            o = out["hs"]
            close(o["H_S"], exp["hs"], "hs: H_S against H_U of the tree")
            close(o["H_S_via_q"], o["H_S"], "hs: H_S_via_q")
            expect(o["is_separating"] and o["n_partitions"] == exp["hs_partitions"], "hs: structure flags")
        if "notions_joint" in out:
            o = out["notions_joint"]
            close(o["H_row"], exp["H_row"], "notions: H_row")
            close(o["H_col"], exp["H_col"], "notions: H_col")
            close(o["H_joint"], exp["H_joint"], "notions: H_joint")
            close(o["H_row"] + o["H_col_given_row"], o["H_joint"], "notions: chain rule via rows")
            close(o["H_col"] + o["H_row_given_col"], o["H_joint"], "notions: chain rule via columns")
            close(o["I"], o["H_row"] + o["H_col"] - o["H_joint"], "notions: I")
            expect(o["I"] >= -1e-12, "notions: I negative")
        if "notions_kl" in out:
            close(out["notions_kl"]["D_KL"], exp["D_KL"], "notions: D_KL")
        if "code" in out:
            o = out["code"]
            expect(o["bound_ok"] and o["gap"] <= 1.0 + 1e-9, "code: bound")
            expect(o["H_U"] <= o["lambda_U"] + 1e-12 and o["lambda_U"] <= o["mu_U"] + 1e-12,
                   "code: H_U <= lambda_U <= mu_U fails")
            expect(o["ESSCL"] >= o["H_S"] - 1e-12, "code: ESSCL below H_S")
            close(o["H_U"], exp["code_hu"], "code: H_U")
            close(o["H_S"], exp["code_hs"], "code: H_S")
        if "itr_points" in out:
            close(out["itr_points"]["h_r"], exp["h_r"], "itr: h_r")
        if "itr_sample" in out:
            close(out["itr_sample"]["h_r_sample"], exp["h_r_sample"], "itr: h_r_sample")
        if "sequences_typical" in out:
            o = out["sequences_typical"]
            sure, edge, mass = exp["typical"]
            N, H, eps = SEQ_LENGTH, exp["typical_H"], SEQ_EPSILON
            expect(o["space_size"] == SEQ_LETTERS ** SEQ_LENGTH, "sequences: space size")
            expect(sure <= o["count"] <= sure + edge, f"sequences: typical count {o['count']}, types give {sure}")
            if edge == 0:
                close(o["mass"], mass, "sequences: typical mass")
            close(o["entropy"], H, "sequences: entropy")
            expect(o["count"] <= 2 ** (N * (H + eps)), "sequences: count above 2^{N(H+eps)}")
            expect(o["count"] >= o["mass"] * 2 ** (N * (H - eps)) * (1 - 1e-9),
                   "sequences: count below mass * 2^{N(H-eps)}")
        if "sequences_classes" in out:
            o = out["sequences_classes"]
            typical, classes, lo, hi, edge, HQ = exp["classes"]
            got = (o["typical_count"], o["class_count"], o["min_class_size"], o["max_class_size"])
            if edge == 0:
                expect(got == (typical, classes, lo, hi), f"sequences: classes {got}, types give {(typical, classes, lo, hi)}")
            expect(o["class_count"] * o["min_class_size"] <= o["typical_count"]
                   <= o["class_count"] * o["max_class_size"], "sequences: class sizes")
            expect(o["typical_count"] <= 2 ** (SEQ_LENGTH * (HQ + SEQ_EPSILON)),
                   "sequences: typical pairs above 2^{N(H+eps)}")
            close(o["h_s"], exp["classes_hs"], "sequences: h_s")
            close(o["h_structure"], exp["classes_hstruct"], "sequences: h_structure")
        if "i_r" in out:
            close(out["i_r"], exp["i_r"], "i_r")
            close(out["i_r"], exp["i_s_line"], "i_r against i_s on the linear structures")
        if "h_r_joint" in out:
            close(out["h_r_joint"], exp["h_r_joint"], "h_r_joint")
        if "h_r_conditional" in out and "h_r_joint" in out:
            close(out["h_r_joint"], exp["h_r_row"] + out["h_r_conditional"], "real-line chain rule")
