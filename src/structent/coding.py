"""Distance-weighted source coding over structured alphabets.

A binary code tree assigns every letter a codeword.  When the alphabet
carries an ultrametric distance, the cost of resolving a code node is the
expected distance between its two branches, and

    mu_u     = sum over internal nodes of P(A_c) * ExpDist(left, right)

is the distance-weighted average code length.  ``lambda_u`` additionally
scales each node by the binary entropy of its branch split, giving a lower
bound that still dominates the tree entropy:  H_U <= lambda_u <= mu_u.

When the alphabet carries a partition structure instead, each node's cost
is its split merit (see :mod:`structent.concordance`) computed on the
restricted structure, and the analogous average is the expected
structure-sensitive code length ``esscl``, bounded below by the structure
entropy.

These sums read the flat preorder view of :class:`CodeTree`, in which every
subtree owns a contiguous run of one leaf order: a per-node table of masses
and expected distances, each from one contiguous block of the distance
matrix put in leaf order, or a per-node table of merits.  Codewords and
per-letter lengths are sums along root-to-leaf paths, in one preorder pass.

``optimize`` improves every subtree, children first, cross-combining its
branches whenever that lowers ``mu_u``.  Each node caches the restricted
mass vector pm = p * 1[node] and the profile prof = D @ pm, sums of its
children's, so a node's weighted cost is (m_L + m_R) * (pm_L @ prof_R) /
(m_L * m_R).  The up to 15 arrangements of up to four blocks are lists of
splits in preorder, a split being the (left, right) pair of block bit
masks.  Each split is costed once as a scalar from the block cross weights
pm_a @ prof_b (a zero-mass side with uniform weights), an arrangement
scores the sum of its splits, and only the winner is built.  The starting
tree is costed from the distance table, so ``mu_u`` stays an independent
check.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .alphabet import (
    Alphabet,
    Distribution,
    Letter,
    power_structure,
    sequence_alphabet,
)
from .concordance import BinarySplit, d_hat
from .errors import (
    DegenerateSplit,
    NotNormalized,
    TooFewLetters,
    UnsupportedRegime,
    ValidationError,
)
from .notions import StructuredAlphabet, binary_entropy, h_s
from .ultrametric import (
    DistanceMatrix,
    UltrametricTree,
    _Node,
    _preorder,
    _unfold,
    _weights,
    hu_arcwise,
    set_distance,
    tree_to_distance,
)
from . import sampling


class CodeNode(_Node):
    """A node of a strictly binary code tree."""

    __slots__ = ("letter", "left", "right", "_vec", "_contrib", "_opt")

    def __init__(self, letter=None, left: "CodeNode" = None, right: "CodeNode" = None):
        if (left is None) != (right is None):
            raise ValidationError("code nodes have zero or two children")
        self.letter = letter
        self.left = left
        self.right = right
        self._vec = None
        self._contrib = None
        self._opt = False

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def children(self) -> tuple:
        return () if self.left is None else (self.left, self.right)

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"CodeLeaf({self.letter!r})"
        return f"CodeNode({len(self.leaves)} leaves)"


class CodeTree:
    """A strictly binary tree whose leaves are exactly the alphabet.

    Like :class:`~structent.ultrametric.UltrametricTree`, it keeps the view
    of its nodes that ``ultrametric._preorder`` builds: in preorder with
    left branches first, so a left child sits right after its parent, with
    each node's (left, right) positions in ``_kids`` and its range
    ``[_lo, _hi)`` in ``_order``, the leaves' alphabet indices.
    """

    __slots__ = ("alphabet", "root", "_nodes", "_kids", "_lo", "_hi", "_order")

    def __init__(self, alphabet: Alphabet, root: CodeNode):
        self.alphabet = alphabet
        self.root = root
        self._nodes, _, self._kids, self._lo, self._hi, self._order = _preorder(
            root, alphabet, lambda nd: () if nd.left is None else (nd.right, nd.left), "code "
        )

    def internal_nodes(self) -> Iterator[CodeNode]:
        """Internal nodes in preorder, left branches first."""
        return (nd for nd, k in zip(self._nodes, self._kids) if k)

    def _path_sums(self, zero, step) -> dict:
        """By letter, ``zero`` plus ``step(i, side)`` over the nodes ``i`` on
        the letter's root path, ``side`` the branch taken there (0 left)."""
        acc = [zero] * len(self._nodes)
        out = {}
        for i, (nd, k) in enumerate(zip(self._nodes, self._kids)):
            if k:
                acc[k[0]] = acc[i] + step(i, 0)
                acc[k[1]] = acc[i] + step(i, 1)
            else:
                out[nd.letter] = acc[i]
        return out

    def codewords(self) -> dict[Letter, str]:
        return self._path_sums("", lambda i, side: "01"[side])

    def depths(self) -> dict[Letter, int]:
        return {a: len(w) for a, w in self.codewords().items()}


def _distance_table(C: CodeTree, P: Distribution, D: DistanceMatrix) -> list[tuple[float, float, float]]:
    """(mass, left mass, expected distance between the branches) of every
    position, zeros at leaves.  A node's branches own adjacent runs of the
    leaf order, so its distances are one block of the matrix in that order."""
    if C.alphabet != P.alphabet or C.alphabet != D.alphabet:
        raise ValidationError("code tree, distribution, and distance must share an alphabet")
    order = np.array(C._order, dtype=np.intp)
    p = np.asarray(P.probs, dtype=float)[order]
    Dl = D.matrix[np.ix_(order, order)]
    rows = []
    for i, k in enumerate(C._kids):
        if not k:
            rows.append((0.0, 0.0, 0.0))
            continue
        a, m, b = C._lo[i], C._lo[k[1]], C._hi[i]
        (wl, ml), (wr, mr) = _weights(p[a:m]), _weights(p[m:b])
        rows.append((ml + mr, ml, float(wl @ Dl[a:m, m:b] @ wr)))
    return rows


def mu_u(C: CodeTree, P: Distribution, D: DistanceMatrix) -> float:
    """Distance-weighted average code length:
    sum over internal nodes of P(A_c) * ExpDist(left, right)."""
    return math.fsum(w * cost for w, _, cost in _distance_table(C, P, D))


def lambda_u(C: CodeTree, P: Distribution, D: DistanceMatrix) -> float:
    """Entropy-discounted variant of :func:`mu_u`: each node's cost is
    scaled by the binary entropy of its branch masses."""
    return math.fsum(
        w * cost * binary_entropy(wl / w) for w, wl, cost in _distance_table(C, P, D) if w > 0.0
    )


def distance_code_lengths(C: CodeTree, P: Distribution, D: DistanceMatrix) -> dict[Letter, float]:
    """Per-letter distance-weighted code length: the sum of node costs along
    the root-to-leaf path.  Satisfies sum_a P(a) * CL(a) = mu_u."""
    cost = [c for _, _, c in _distance_table(C, P, D)]
    return C._path_sums(0.0, lambda i, side: cost[i])


# ----------------------------------------------------- structure coding


def _merit_table(C: CodeTree, X: StructuredAlphabet) -> list[tuple[float, float]]:
    """(mass, split merit under the restricted structure) of every
    position, zeros at leaves; nodes the decoder never reaches (zero mass)
    or whose split carries no entropy have merit 0."""
    if C.alphabet != X.alphabet:
        raise ValidationError("code tree and structured alphabet disagree")
    letters = [C.alphabet.letters[j] for j in C._order]
    probs = [X.P.probs[j] for j in C._order]
    rows = []
    for i, k in enumerate(C._kids):
        w = merit = 0.0
        if k:
            a, m, b = C._lo[i], C._lo[k[1]], C._hi[i]
            w = math.fsum(probs[a:b])
            if w > 0.0:
                try:
                    merit = d_hat(BinarySplit(letters[a:m], letters[m:b]), X.S, X.P)
                except DegenerateSplit:
                    pass
        rows.append((w, merit))
    return rows


def esscl(C: CodeTree, X: StructuredAlphabet) -> float:
    """Expected structure-sensitive code length:
    sum over internal nodes of P(A_i) * merit(i).

    Never smaller than the structure entropy of ``X``."""
    return math.fsum(w * merit for w, merit in _merit_table(C, X))


def code_lengths(C: CodeTree, X: StructuredAlphabet) -> dict[Letter, float]:
    """Per-letter structure-sensitive code length: the sum of node merits
    along the root-to-leaf path.  Satisfies sum_a P(a) * CL(a) = esscl."""
    merit = [m for _, m in _merit_table(C, X)]
    return C._path_sums(0.0, lambda i, side: merit[i])


# ------------------------------------------------------------- optimize


@dataclass
class OptimizeTrace:
    """Record of an :func:`optimize` run: every accepted rewrite strictly
    lowered the weighted cost of the rewritten subtree."""

    initial: float = 0.0
    final: float = 0.0
    rewrites: list[tuple[float, float]] = field(default_factory=list)

    @property
    def restarts(self) -> int:
        return len(self.rewrites)


def _pair_blocks(blocks: list[tuple[float, str, CodeNode]]) -> CodeNode:
    """Greedy probability balancing of (mass, least letter repr, node)
    blocks: heaviest first, ties broken by letter, each block joins the
    lighter side (the one with fewer blocks on equal masses), and each side
    is paired in the same way."""

    def split(group: list) -> list:
        if len(group) < 3:
            return [group[:1], group[1:]] if len(group) == 2 else []
        sides: list[list] = [[], []]
        masses = [0.0, 0.0]
        for b in sorted(group, key=lambda b: (-b[0], b[1])):
            pick = 0
            if masses[1] < masses[0] or (masses[1] == masses[0] and len(sides[1]) < len(sides[0])):
                pick = 1
            sides[pick].append(b)
            masses[pick] += b[0]
        return sides

    return _unfold(blocks, split, lambda g, kids: CodeNode(None, *kids) if kids else g[0][2])


def code_tree_from_nesting(A: Alphabet, nesting) -> CodeTree:
    """Build a code tree from nested pairs, e.g. ((\"a\", \"b\"), \"c\")."""

    def parts(x):
        return x if isinstance(x, tuple) and len(x) == 2 and not (x in A._index) else ()

    return CodeTree(
        A, _unfold(nesting, parts, lambda x, kids: CodeNode(None, *kids) if kids else CodeNode(letter=x))
    )


def initial_code_tree(T: UltrametricTree, P: Distribution) -> CodeTree:
    """The starting point for :func:`optimize`: the ultrametric tree itself,
    built bottom-up, with multiway nodes binarized by greedy probability
    balancing (deterministic: heavier blocks first, ties broken by letter
    order) and pass-through chains skipped."""
    if P.alphabet != T.alphabet:
        raise ValidationError("distribution and tree use different alphabets")
    probs, letters, order = P.probs, T.alphabet.letters, T._order

    def binarize(i: int, blocks: list[CodeNode]) -> CodeNode:
        if not blocks:
            return CodeNode(letter=T._nodes[i].letter)
        if len(blocks) < 3:  # a pass-through node's one block is returned as it is
            return blocks[0] if len(blocks) == 1 else CodeNode(None, *blocks)
        runs = [order[T._lo[c]:T._hi[c]] for c in T._kids[i]]
        return _pair_blocks([
            (math.fsum(probs[j] for j in run), min(repr(letters[j]) for j in run), b)
            for run, b in zip(runs, blocks)
        ])

    return CodeTree(T.alphabet, T._fold(binarize))


def _arrangements(k: int) -> list[list[tuple[int, int]]]:
    """Every full binary tree over ``k`` blocks (up to mirror symmetry, which
    leaves the cost unchanged) as its splits in preorder: 3 shapes for three
    blocks, 15 for four.  A split is one internal node, the pair (left
    blocks, right blocks) of bit masks, with the lowest block on the left.
    A block set's subsets have smaller masks, so they are arranged first."""
    arranged: dict[int, list] = {}
    for mask in range(1, 1 << k):
        first, *rest = (b for b in range(k) if mask >> b & 1)
        arranged[mask] = [] if rest else [[]]
        for j in range(len(rest)):
            for combo in itertools.combinations(rest, j):
                x = sum(1 << b for b in (first, *combo))
                y = mask ^ x
                arranged[mask] += [[(x, y), *lt, *rt] for lt in arranged[x] for rt in arranged[y]]
    return arranged[(1 << k) - 1]


class _Shapes:
    """Arrangement tables for ``k`` blocks, in :func:`_arrangements` order.

    ``splits`` lists every split once; ``X``/``Y`` hold each split's sides
    as 0/1 rows over the blocks, and ``uses[s]`` lists the indices of shape
    ``s``'s splits in preorder, so ``uses[s, 0]`` is its root split."""

    def __init__(self, k: int):
        shapes = _arrangements(k)
        self.splits = list(dict.fromkeys(split for sh in shapes for split in sh))
        index = {split: i for i, split in enumerate(self.splits)}
        self.uses = np.array([[index[split] for split in sh] for sh in shapes], dtype=np.intp)
        # the unrearranged node: kl blocks on the left, the rest on the right
        roots = [sh[0] for sh in shapes]
        self.own = {
            kl: roots.index(((1 << kl) - 1, (1 << k) - (1 << kl))) for kl in (1, 2) if 1 <= k - kl <= 2
        }
        bits = np.array([1 << b for b in range(k)])
        self.X = np.array([(x & bits) > 0 for x, _ in self.splits], dtype=float)
        self.Y = np.array([(y & bits) > 0 for _, y in self.splits], dtype=float)


_SHAPES = {k: _Shapes(k) for k in (3, 4)}


def _split_costs(
    blocks: list[CodeNode], tab: _Shapes, P: Distribution, D: DistanceMatrix
) -> np.ndarray:
    """Weighted cost P(X u Y) * ExpDist(X, Y) of every split in ``tab``.

    With block cross weights W[a, b] = pm_a @ prof_b, a split's cost is
    (m_X + m_Y) * W(X, Y) / (m_X * m_Y); a split with a side of zero mass is
    costed by :func:`~structent.ultrametric.set_distance` instead."""
    V = np.stack([b._vec for b in blocks])
    W = V[:, 0] @ V[:, 1].T
    m = V[:, 0].sum(axis=1)
    mx, my = tab.X @ m, tab.Y @ m
    w = ((tab.X @ W) * tab.Y).sum(axis=1)
    if m.all():
        return (mx + my) * (w / mx / my)
    cost = np.empty(len(w))
    for s, (xs, ys) in enumerate(zip(tab.X, tab.Y)):
        if mx[s] > 0.0 and my[s] > 0.0:
            cost[s] = (mx[s] + my[s]) * (w[s] / mx[s] / my[s])
        else:
            X, Y = ([a for b, x in zip(blocks, side) if x for a in b.leaves] for side in (xs, ys))
            cost[s] = (mx[s] + my[s]) * set_distance(D, P, X, Y)
    return cost


def _join(L: CodeNode, R: CodeNode, contrib: float) -> CodeNode:
    """A node the search builds, with its rows and weighted cost."""
    nd = CodeNode(left=L, right=R)
    nd._vec = L._vec + R._vec
    nd._contrib = contrib
    return nd


def _build(uses: np.ndarray, blocks: list[CodeNode], tab: _Shapes, cost: np.ndarray) -> CodeNode:
    """The code tree of one arrangement, given by its split indices in
    preorder.  In reverse preorder both sides of a split are built before
    it; each node's weighted cost is taken from the split costs."""
    built = {1 << b: nd for b, nd in enumerate(blocks)}
    for s in reversed(uses.tolist()):
        x, y = tab.splits[s]
        L, R = built[x], built[y]
        built[x | y] = _join(L, R, float(cost[s]) + L._contrib + R._contrib)
    return built[x | y]


def _optimize_node(
    root: CodeNode, P: Distribution, D: DistanceMatrix, cap: int, trace: OptimizeTrace
) -> CodeNode:
    """Optimize the internal node ``root`` on an explicit stack of frames
    [node, its optimized left branch or None].  A node's blocks are
    rearranged once both its branches are optimized; when an arrangement
    wins, the frame starts over on the rewritten node.  A node marked
    ``_opt`` is not visited again.  More than ``cap`` rewrites fail."""
    stack: list[list] = [[root, None]]
    done = None  # what the frame closed last returned
    while stack:
        frame = stack[-1]
        nd, L = frame
        if done is None:  # visit the next branch
            child = nd.left if L is None else nd.right
            if child._opt or child.is_leaf:
                child._opt = True
                done = child
            else:
                stack.append([child, None])
            continue
        if L is None:
            frame[1], done = done, None
            continue
        R, done = done, None
        blocks_l = [L] if L.is_leaf else [L.left, L.right]
        blocks = blocks_l + ([R] if R.is_leaf else [R.left, R.right])
        if len(blocks) > 2:  # with two leaves, L and R are nd's own children
            tab = _SHAPES[len(blocks)]
            cost = _split_costs(blocks, tab, P, D)
            scores = cost[tab.uses].sum(axis=1)
            inner = sum(b._contrib for b in blocks)
            own = tab.own[len(blocks_l)]
            base = inner + scores[own]
            best = int(np.argmin(scores))
            if inner + scores[best] < base - 1e-12 * max(1.0, abs(base)):
                trace.rewrites.append((float(base), float(inner + scores[best])))
                if len(trace.rewrites) > cap:
                    raise ValidationError(
                        "code optimization exceeded its restart budget; "
                        "this is not expected for any ultrametric input"
                    )
                frame[:] = [_build(tab.uses[best], blocks, tab, cost), None]
                continue
            if L is not nd.left or R is not nd.right:
                # the root split of the unrearranged shape is (L, R)
                nd = _join(L, R, float(cost[tab.uses[own, 0]]) + L._contrib + R._contrib)
        nd._opt = True
        stack.pop()
        done = nd
    return done


def optimize(T: UltrametricTree, P: Distribution) -> CodeTree:
    """Search for a low-cost code tree for an ultrametric source.

    Starting from the ultrametric tree itself, every subtree is optimized,
    children first; then the (up to four) grandchild blocks are
    cross-combined in every full binary arrangement and the cheapest kept.
    Whenever a rearrangement wins, optimization of that subtree restarts
    from the rewritten tree.  Ties favor the original tree, so the weighted
    cost strictly decreases with every accepted rewrite and the search
    terminates.
    """
    return optimize_with_trace(T, P)[0]


def optimize_with_trace(T: UltrametricTree, P: Distribution) -> tuple[CodeTree, OptimizeTrace]:
    return _optimize_on(T, P, tree_to_distance(T))


def _optimize_on(T: UltrametricTree, P: Distribution, D: DistanceMatrix) -> tuple[CodeTree, OptimizeTrace]:
    """:func:`optimize_with_trace` given the tree's distance matrix."""
    if len(T.alphabet) < 2:
        raise TooFewLetters("code optimization needs at least two letters")
    C0 = initial_code_tree(T, P)
    p = np.asarray(P.probs, dtype=float)
    table = _distance_table(C0, P, D)
    nodes, kids = C0._nodes, C0._kids
    for i in reversed(range(len(nodes))):  # children first
        nd, k = nodes[i], kids[i]
        if not k:
            j = C0._order[C0._lo[i]]
            nd._vec, nd._contrib = np.zeros((2, len(p))), 0.0
            nd._vec[0, j], nd._vec[1] = p[j], D.matrix[:, j] * p[j]
        else:
            L, R = nodes[k[0]], nodes[k[1]]
            nd._vec = L._vec + R._vec
            nd._contrib = table[i][0] * table[i][2] + L._contrib + R._contrib
    trace = OptimizeTrace(initial=C0.root._contrib)
    n = len(T.alphabet)
    root = _optimize_node(C0.root, P, D, max(100, 10 * n * n), trace)
    trace.final = root._contrib
    return CodeTree(T.alphabet, root), trace


# --------------------------------------------------------------- trials


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    n: int
    hu: float
    mu: float

    @property
    def gap(self) -> float:
        return self.mu - self.hu


@dataclass
class TrialReport:
    """Outcome of randomized optimize-vs-entropy trials.

    A violation is an instance whose optimized cost exceeds the tree entropy
    by more than one bit (plus tolerance); each one is serialized to a JSON
    file so the instance can be replayed.
    """

    seed: int
    count: int
    n_range: tuple[int, int]
    records: list[TrialRecord] = field(default_factory=list)
    violation_files: list[str] = field(default_factory=list)

    @property
    def max_gap(self) -> float:
        return max((r.gap for r in self.records), default=0.0)

    @property
    def violations(self) -> int:
        return len(self.violation_files)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "n_range": list(self.n_range),
            "max_gap": self.max_gap,
            "violations": self.violations,
            "violation_files": list(self.violation_files),
            "records": [
                {"seed": r.seed, "n": r.n, "hu": r.hu, "mu": r.mu, "gap": r.gap}
                for r in self.records
            ],
        }


GAP_BOUND = 1.0
GAP_TOL = 1e-9


def run_bound_trials(
    count: int,
    n_min: int,
    n_max: int,
    seed: int,
    violations_dir: Optional[str] = None,
) -> TrialReport:
    """Run ``count`` random instances and compare optimized cost to entropy.

    Each instance draws a random ultrametric tree (random recursive binary
    splits, heights sorted to decrease away from the root, normalized) and a
    flat-Dirichlet distribution, both from a per-instance seed derived from
    ``seed`` so any instance can be reproduced in isolation.
    """
    if n_min < 2 or n_max < n_min:
        raise ValidationError("need 2 <= n_min <= n_max")
    if count < 0 or seed < 0:
        raise ValidationError("need a non-negative count and seed")
    master = np.random.default_rng(seed)
    report = TrialReport(seed=seed, count=count, n_range=(n_min, n_max))
    for k in range(count):
        inst_seed = int(master.integers(0, 2**63 - 1))
        rng = np.random.default_rng(inst_seed)
        n = int(rng.integers(n_min, n_max + 1))
        T = sampling.random_ultrametric_tree(n, rng)
        P = sampling.random_distribution(T.alphabet, rng)
        D = tree_to_distance(T)
        C, _ = _optimize_on(T, P, D)
        hu = hu_arcwise(T, P)
        mu = mu_u(C, P, D)
        rec = TrialRecord(seed=inst_seed, n=n, hu=hu, mu=mu)
        report.records.append(rec)
        if rec.gap > GAP_BOUND + GAP_TOL:
            path = _write_violation(violations_dir or ".", k, rec, D, P)
            report.violation_files.append(path)
    return report


def _write_violation(dirpath: str, index: int, rec: TrialRecord, D: DistanceMatrix, P: Distribution) -> str:
    os.makedirs(dirpath, exist_ok=True)
    payload = {
        "seed": rec.seed,
        "n": rec.n,
        "hu": rec.hu,
        "mu": rec.mu,
        "gap": rec.gap,
        "alphabet": [repr(a) for a in D.alphabet.letters],
        "distance": D.matrix.tolist(),
        "probs": list(P.probs),
    }
    path = os.path.join(dirpath, f"bound_violation_{index:05d}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return path


# ------------------------------------------- block-coding exactness


def _balanced_code(letters: list) -> CodeNode:
    """The balanced code tree over a power-of-two number of letters:
    neighbours are paired level by level."""
    nodes = [CodeNode(letter=a) for a in letters]
    while len(nodes) > 1:
        nodes = [CodeNode(None, L, R) for L, R in zip(nodes[::2], nodes[1::2])]
    return nodes[0]


def typical_compression_check(X: StructuredAlphabet, m: int) -> tuple[float, float]:
    """Per-symbol structure-sensitive code length of block coding.

    For a uniform distribution on a power-of-two alphabet with a normalized
    structure, coding length-``m`` blocks with a balanced binary tree costs
    exactly the structure entropy per symbol.  Returns
    ``(esscl / m, h_s(X))``; the two coincide to floating-point accuracy.
    """
    n = len(X.alphabet)
    if n & (n - 1) != 0:
        raise UnsupportedRegime("alphabet size must be a power of two")
    if any(abs(p - 1.0 / n) > 1e-9 for p in X.P.probs):
        raise UnsupportedRegime("distribution must be uniform")
    if not X.S.is_normalized:
        raise NotNormalized("structure must have total measure 1")
    if m < 1:
        raise ValidationError("block length must be at least 1")
    seq_alpha = sequence_alphabet(X.alphabet, m)
    N = len(seq_alpha)
    P_m = Distribution(seq_alpha, [1.0 / N] * N)
    X_m = StructuredAlphabet(P_m, power_structure(X.S, m))
    C = CodeTree(seq_alpha, _balanced_code(list(seq_alpha.letters)))
    return esscl(C, X_m) / m, h_s(X)
