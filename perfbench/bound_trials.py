"""Workload ``bound_trials``: the paper's coding-bound harness.

Each round runs the ``trials`` subcommand once per band of alphabet sizes
covering n in [3, 50], so every round weighs small and large instances
alike whatever the seed.  The coding optimizer takes most of the time.
"""

from __future__ import annotations

import json
import os

import numpy as np

import gen
from harness import Op, close, expect, read, run_cli

BANDS = ((3, 10), (11, 18), (19, 26), (27, 34), (35, 42), (43, 50))
COUNT = 8  # trials per band and round
GAP_LIMIT = 1.0 + 1e-9
TRACE_ROUNDS = 5  # 240 traced trials: ten lie beyond the 95th percentile


def tree_of(T) -> gen.Tree:
    """The benchmark's own array copy of a program ``UltrametricTree``."""
    letters = tuple(T.alphabet.letters)
    index = {a: k for k, a in enumerate(letters)}
    children, height, leaf_of = [], [], []
    stack = [(T.root, None)]
    while stack:
        nd, parent = stack.pop()
        i = len(children)
        children.append([])
        height.append(nd.height)
        leaf_of.append(index[nd.letter] if nd.is_leaf else -1)
        if parent is not None:
            children[parent].append(i)
        stack.extend((c, i) for c in nd.children)
    return gen.Tree(letters, children, np.array(height), np.array(leaf_of))


def mu_from_codewords(words: dict, letters, probs: np.ndarray, D: np.ndarray) -> float:
    """Distance-weighted code length as the path sum over codewords: every
    proper prefix is an internal code node whose cost is the expected
    distance between the letters under its 0 and 1 branches."""
    code = [words[a] for a in letters]
    prefixes = {w[:k] for w in code for k in range(len(w))}
    total = 0.0
    for w in prefixes:
        left = np.array([c.startswith(w + "0") for c in code])
        right = np.array([c.startswith(w + "1") for c in code])

        def cond(mask):
            p = np.where(mask, probs, 0.0)
            s = p.sum()
            return p / s if s > 0.0 else mask / mask.sum()

        total += probs[left | right].sum() * (cond(left) @ D @ cond(right))
    return float(total)


class BoundTrials:
    name = "bound_trials"
    items_per_round = COUNT * len(BANDS)
    trace_rounds = TRACE_ROUNDS

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.trial_log: list[tuple[int, int]] = []  # (seed, n) of each traced trial
        self.violations = os.path.join(work, "violations")
        os.makedirs(self.violations, exist_ok=True)

    def _seeds(self, r: int) -> list[int]:
        rng = np.random.default_rng([self.seed, r])
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=len(BANDS))]

    def _trials(self, label, lo, hi, count, seed) -> Op:
        out = os.path.join(self.work, f"{label}.json")
        op = run_cli(label, [
            "trials", "--count", str(count), "--seed", str(seed),
            "--min-n", str(lo), "--max-n", str(hi),
            "--violations-dir", self.violations, "--out", out,
        ])
        op.meta = {"lo": lo, "hi": hi, "count": count, "seed": seed,
                   "report": read(out) if op.ok else ""}
        return op

    def warmup(self) -> list[Op]:
        return [self._trials("warmup", 3, 10, 2, self.seed)]

    def round(self, r: int, tracer=None) -> list[Op]:
        return [
            self._trials(f"band{k}", lo, hi, COUNT, s)
            for k, ((lo, hi), s) in enumerate(zip(BANDS, self._seeds(r)))
        ]

    # ------------------------------------------------------------ checks

    def check(self, ops: list[Op]) -> None:
        from structent import sampling

        for op in ops:
            if not op.ok:
                continue
            m = op.meta
            summary = json.loads(op.out)
            report = json.loads(m["report"])
            recs = report["records"]
            expect(summary["count"] == m["count"] == len(recs), f"{op.label}: trial count")
            expect(summary["violations"] == 0, f"{op.label}: bound violations reported")
            expect(summary["max_gap"] <= GAP_LIMIT, f"{op.label}: max gap above 1")
            master = np.random.default_rng(m["seed"])
            for rec in recs:
                expect(rec["seed"] == int(master.integers(0, 2**63 - 1)), f"{op.label}: instance seed")
                expect(m["lo"] <= rec["n"] <= m["hi"], f"{op.label}: n out of range")
                expect(rec["gap"] <= GAP_LIMIT, f"{op.label}: seed {rec['seed']} gap {rec['gap']} above 1")
                expect(rec["mu"] >= rec["hu"] - 1e-12, f"{op.label}: mu_U below H_U")
                close(rec["gap"], rec["mu"] - rec["hu"], f"{op.label}: gap")
            # one instance per call, regenerated from its seed
            rec = recs[0]
            rng = np.random.default_rng(rec["seed"])
            n = int(rng.integers(m["lo"], m["hi"] + 1))
            expect(n == rec["n"], f"{op.label}: regenerated n")
            T = sampling.random_ultrametric_tree(n, rng)
            P = sampling.random_distribution(T.alphabet, rng)
            close(rec["hu"], gen.hu_grouping(tree_of(T), np.asarray(P.probs)), f"{op.label}: H_U")

    # ------------------------------------------------------------ traced

    def traced_round(self, r: int, tracer) -> list[Op]:
        """Replay round ``r`` through public calls, one span per trial, and
        compare every (H_U, mu_U) with the report the CLI wrote for it."""
        import structent.coding as coding
        import structent.sampling as sampling
        import structent.ultrametric as ultrametric

        ops = []
        for k, ((lo, hi), s) in enumerate(zip(BANDS, self._seeds(r))):
            master = np.random.default_rng(s)
            got = []
            for _ in range(COUNT):
                inst = int(master.integers(0, 2**63 - 1))
                with tracer.span("bound_trials.trial"):
                    rng = np.random.default_rng(inst)
                    n = int(rng.integers(lo, hi + 1))
                    with tracer.span("sampling.instance"):
                        T = sampling.random_ultrametric_tree(n, rng)
                        P = sampling.random_distribution(T.alphabet, rng)
                    C, trace = coding.optimize_with_trace(T, P)
                    D = ultrametric.tree_to_distance(T)
                    hu = ultrametric.hu_arcwise(T, P)
                    mu = coding.mu_u(C, P, D)
                tracer.count("bound_trials.leaves", n)
                tracer.count("coding.optimize_rewrites", len(trace.rewrites))
                self.trial_log.append((inst, n))
                got.append((inst, n, hu, mu, C.codewords(), T, P))
            report = read(os.path.join(self.work, f"band{k}.json"))
            ops.append(Op(f"replay{k}", 0, "", {"replay": got, "report": report}))
        return ops

    def check_traced(self, ops: list[Op]) -> None:
        for op in ops:
            recs = json.loads(op.meta["report"])["records"]
            for rec, (inst, n, hu, mu, words, T, P) in zip(recs, op.meta["replay"]):
                expect(rec["seed"] == inst and rec["n"] == n, f"{op.label}: replayed seed")
                close(hu, rec["hu"], f"{op.label}: replayed H_U of seed {inst}")
                close(mu, rec["mu"], f"{op.label}: replayed mu_U of seed {inst}")
                tree = tree_of(T)
                own = mu_from_codewords(words, tree.letters, np.asarray(P.probs), tree.distance())
                close(mu, own, f"{op.label}: mu_U path sum of seed {inst}")

    def layer_metrics(self, tracer, totals: dict) -> dict:
        """Per-trial latency of the replay, and its slowest seeds."""
        ms = [1e3 * (s[4] - s[3]) for s in tracer.spans if s[1] == "bound_trials.trial"]
        slowest = sorted(zip(ms, self.trial_log), reverse=True)[:10]
        tracer.notes["slowest_trials"] = [{"ms": t, "seed": s, "n": n} for t, (s, n) in slowest]
        return {
            "bound_trials.trial_p50_ms": float(np.percentile(ms, 50)),
            "bound_trials.trial_p95_ms": float(np.percentile(ms, 95)),
        }
