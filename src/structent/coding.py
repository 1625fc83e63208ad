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

``optimize`` searches for a cheap code tree by recursively improving
subtrees and cross-combining their branches whenever that lowers ``mu_u``.
It costs code nodes from two vectors cached on each node, the restricted
mass vector pm = p * 1[node] and the distance-mass profile prof = D @ pm,
both sums of the children's.  A node's weighted cost is then one dot
product, (m_L + m_R) * (pm_L @ prof_R) / (m_L * m_R), and the up to 15
arrangements of up to four blocks are scored as scalars from the block
cross weights pm_a @ prof_b; only the winning arrangement is built.  A side
of zero mass is costed directly, with uniform weights.  ``mu_u``,
``lambda_u`` and ``distance_code_lengths`` cost each node from the distance
submatrix instead, an independent check on the search.
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
    hu_arcwise,
    tree_to_distance,
)
from . import sampling


class CodeNode:
    """A node of a strictly binary code tree."""

    __slots__ = ("letter", "left", "right", "leaves", "_idx", "_vec", "_contrib", "_opt")

    def __init__(self, letter=None, left: "CodeNode" = None, right: "CodeNode" = None):
        self.letter = letter
        self.left = left
        self.right = right
        if left is None and right is None:
            self.leaves = frozenset((letter,))
        elif left is not None and right is not None:
            self.leaves = left.leaves | right.leaves
        else:
            raise ValidationError("code nodes have zero or two children")
        self._idx = None
        self._vec = None
        self._contrib = None
        self._opt = False

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"CodeLeaf({self.letter!r})"
        return f"CodeNode({len(self.leaves)} leaves)"


class CodeTree:
    """A strictly binary tree whose leaves are exactly the alphabet."""

    __slots__ = ("alphabet", "root")

    def __init__(self, alphabet: Alphabet, root: CodeNode):
        self.alphabet = alphabet
        self.root = root
        seen: set = set()

        def walk(nd: CodeNode) -> None:
            if nd.is_leaf:
                if nd.letter not in alphabet._index:
                    raise ValidationError(f"code leaf {nd.letter!r} not in alphabet")
                if nd.letter in seen:
                    raise ValidationError(f"duplicate code leaf {nd.letter!r}")
                seen.add(nd.letter)
                return
            walk(nd.left)
            walk(nd.right)

        walk(root)
        if seen != set(alphabet.letters):
            raise ValidationError("code tree leaves must cover the alphabet exactly")

    def internal_nodes(self) -> Iterator[CodeNode]:
        stack = [self.root]
        while stack:
            nd = stack.pop()
            if nd.is_leaf:
                continue
            yield nd
            stack.append(nd.left)
            stack.append(nd.right)

    def codewords(self) -> dict[Letter, str]:
        out: dict[Letter, str] = {}

        def walk(nd: CodeNode, word: str) -> None:
            if nd.is_leaf:
                out[nd.letter] = word
                return
            walk(nd.left, word + "0")
            walk(nd.right, word + "1")

        walk(self.root, "")
        return out

    def depths(self) -> dict[Letter, int]:
        return {a: len(w) for a, w in self.codewords().items()}


def _expected_distance(
    Dm: np.ndarray, p: np.ndarray, bi: np.ndarray, ci: np.ndarray
) -> float:
    """Expected distance between index sets under conditional weights; a
    zero-mass side falls back to uniform weights."""

    def w(idx: np.ndarray) -> np.ndarray:
        v = p[idx]
        t = v.sum()
        if t > 0.0:
            return v / t
        return np.full(len(idx), 1.0 / len(idx))

    return float(w(bi) @ Dm[np.ix_(bi, ci)] @ w(ci))


class _Ctx:
    """Shared arrays for code-tree evaluation over one (P, D) instance."""

    __slots__ = ("alphabet", "p", "Dm", "index")

    def __init__(self, P: Distribution, D: DistanceMatrix):
        if P.alphabet != D.alphabet:
            raise ValidationError("distribution and distance use different alphabets")
        self.alphabet = P.alphabet
        self.p = np.asarray(P.probs, dtype=float)
        self.Dm = D.matrix
        self.index = P.alphabet._index

    def idx(self, nd: CodeNode) -> np.ndarray:
        if nd._idx is None:
            nd._idx = np.fromiter(
                sorted(self.index[a] for a in nd.leaves), dtype=np.intp
            )
        return nd._idx

    def vec(self, nd: CodeNode) -> np.ndarray:
        """The rows pm = p * 1[leaves] and prof = D @ pm of a node, cached;
        a parent's rows are the sums of its children's."""
        if nd._vec is None:
            if nd.is_leaf:
                i = self.index[nd.letter]
                nd._vec = np.zeros((2, len(self.p)))
                nd._vec[0, i] = self.p[i]
                nd._vec[1] = self.Dm[:, i] * self.p[i]
            else:
                nd._vec = self.vec(nd.left) + self.vec(nd.right)
        return nd._vec

    def node_cost(self, nd: CodeNode) -> float:
        return _expected_distance(self.Dm, self.p, self.idx(nd.left), self.idx(nd.right))

    def mass(self, nd: CodeNode) -> float:
        return float(self.p[self.idx(nd)].sum())


def mu_u(C: CodeTree, P: Distribution, D: DistanceMatrix) -> float:
    """Distance-weighted average code length:
    sum over internal nodes of P(A_c) * ExpDist(left, right)."""
    _check_code_alphabets(C, P, D)
    ctx = _Ctx(P, D)
    return math.fsum(ctx.mass(nd) * ctx.node_cost(nd) for nd in C.internal_nodes())


def lambda_u(C: CodeTree, P: Distribution, D: DistanceMatrix) -> float:
    """Entropy-discounted variant of :func:`mu_u`: each node's cost is
    scaled by the binary entropy of its branch masses."""
    _check_code_alphabets(C, P, D)
    ctx = _Ctx(P, D)
    total = 0.0
    for nd in C.internal_nodes():
        w = ctx.mass(nd)
        if w <= 0.0:
            continue
        wl = ctx.mass(nd.left)
        total += w * ctx.node_cost(nd) * binary_entropy(wl / w)
    return total


def _check_code_alphabets(C: CodeTree, P: Distribution, D: DistanceMatrix) -> None:
    if C.alphabet != P.alphabet or C.alphabet != D.alphabet:
        raise ValidationError("code tree, distribution, and distance must share an alphabet")


def distance_code_lengths(C: CodeTree, P: Distribution, D: DistanceMatrix) -> dict[Letter, float]:
    """Per-letter distance-weighted code length: the sum of node costs along
    the root-to-leaf path.  Satisfies sum_a P(a) * CL(a) = mu_u."""
    _check_code_alphabets(C, P, D)
    ctx = _Ctx(P, D)
    out: dict[Letter, float] = {}

    def walk(nd: CodeNode, acc: float) -> None:
        if nd.is_leaf:
            out[nd.letter] = acc
            return
        cost = ctx.node_cost(nd)
        walk(nd.left, acc + cost)
        walk(nd.right, acc + cost)

    walk(C.root, 0.0)
    return out


# ----------------------------------------------------- structure coding


def _node_merit(nd: CodeNode, X: StructuredAlphabet) -> float:
    """Split merit of a code node under the restricted structure; nodes the
    decoder never reaches (zero mass) or whose split carries no entropy
    contribute 0."""
    P = X.P
    if P.mass(nd.leaves) <= 0.0:
        return 0.0
    split = BinarySplit(nd.left.leaves, nd.right.leaves)
    try:
        return d_hat(split, X.S, P)
    except DegenerateSplit:
        return 0.0


def esscl(C: CodeTree, X: StructuredAlphabet) -> float:
    """Expected structure-sensitive code length:
    sum over internal nodes of P(A_i) * merit(i).

    Never smaller than the structure entropy of ``X``."""
    if C.alphabet != X.alphabet:
        raise ValidationError("code tree and structured alphabet disagree")
    return math.fsum(
        X.P.mass(nd.leaves) * _node_merit(nd, X) for nd in C.internal_nodes()
    )


def code_lengths(C: CodeTree, X: StructuredAlphabet) -> dict[Letter, float]:
    """Per-letter structure-sensitive code length: the sum of node merits
    along the root-to-leaf path.  Satisfies sum_a P(a) * CL(a) = esscl."""
    if C.alphabet != X.alphabet:
        raise ValidationError("code tree and structured alphabet disagree")
    out: dict[Letter, float] = {}

    def walk(nd: CodeNode, acc: float) -> None:
        if nd.is_leaf:
            out[nd.letter] = acc
            return
        merit = _node_merit(nd, X)
        walk(nd.left, acc + merit)
        walk(nd.right, acc + merit)

    walk(C.root, 0.0)
    return out


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


class _RestartGuard:
    def __init__(self, cap: int):
        self.cap = cap
        self.count = 0

    def bump(self) -> None:
        self.count += 1
        if self.count > self.cap:
            raise ValidationError(
                "code optimization exceeded its restart budget; "
                "this is not expected for any ultrametric input"
            )


def _block_key(b: CodeNode, p_of: dict[Letter, float]):
    mass = math.fsum(p_of[a] for a in b.leaves)
    return (-mass, sorted(map(repr, b.leaves))[0])


def _pair_blocks(blocks: list[CodeNode], p_of: dict[Letter, float]) -> CodeNode:
    if len(blocks) == 1:
        return blocks[0]
    if len(blocks) == 2:
        return CodeNode(left=blocks[0], right=blocks[1])
    ordered = sorted(blocks, key=lambda b: _block_key(b, p_of))
    sides: list[list[CodeNode]] = [[], []]
    masses = [0.0, 0.0]
    for b in ordered:
        pick = 0
        if masses[1] < masses[0] or (masses[1] == masses[0] and len(sides[1]) < len(sides[0])):
            pick = 1
        sides[pick].append(b)
        masses[pick] += math.fsum(p_of[a] for a in b.leaves)
    return CodeNode(
        left=_pair_blocks(sides[0], p_of), right=_pair_blocks(sides[1], p_of)
    )


def code_tree_from_nesting(A: Alphabet, nesting) -> CodeTree:
    """Build a code tree from nested pairs, e.g. ((\"a\", \"b\"), \"c\")."""

    def walk(x) -> CodeNode:
        if isinstance(x, tuple) and len(x) == 2 and not (x in A._index):
            return CodeNode(left=walk(x[0]), right=walk(x[1]))
        return CodeNode(letter=x)

    return CodeTree(A, walk(nesting))


def initial_code_tree(T: UltrametricTree, P: Distribution) -> CodeTree:
    """The starting point for :func:`optimize`: the ultrametric tree itself,
    built bottom-up, with multiway nodes binarized by greedy probability
    balancing (deterministic: heavier blocks first, ties broken by letter
    order) and pass-through chains skipped."""
    if P.alphabet != T.alphabet:
        raise ValidationError("distribution and tree use different alphabets")
    p_of = P.as_mapping()

    def binarize(i: int, blocks: list[CodeNode]) -> CodeNode:
        # a pass-through node's one block is returned as it is
        if not blocks:
            return CodeNode(letter=T._nodes[i].letter)
        return _pair_blocks(blocks, p_of)

    return CodeTree(T.alphabet, T._fold(binarize))


def _contrib(nd: CodeNode, ctx: _Ctx) -> float:
    """Weighted cost of a subtree: P(A_c) * cost(c) summed over its internal
    nodes, each costed from the distance submatrix.  Cached per node; nodes
    are never mutated after creation, and nodes the search builds arrive
    with their cost already cached from the split costs."""
    if nd._contrib is None:
        if nd.is_leaf:
            nd._contrib = 0.0
        else:
            nd._contrib = (
                ctx.mass(nd) * ctx.node_cost(nd)
                + _contrib(nd.left, ctx)
                + _contrib(nd.right, ctx)
            )
    return nd._contrib


def _arrangements(blocks: list) -> Iterator[tuple]:
    """Every full binary tree over ``blocks`` as nested pairs (up to mirror
    symmetry, which leaves the cost unchanged): 3 shapes for three blocks,
    15 for four."""
    if len(blocks) == 1:
        yield blocks[0]
        return
    first, rest = blocks[0], blocks[1:]
    n = len(rest)
    for k in range(n):
        for combo in itertools.combinations(range(n), k):
            left = [first] + [rest[i] for i in combo]
            right = [rest[i] for i in range(n) if i not in combo]
            for lt in _arrangements(left):
                for rt in _arrangements(right):
                    yield (lt, rt)


def _mask(shape) -> int:
    """Bit set of the block indices under a nested-pair shape."""
    if isinstance(shape, tuple):
        return _mask(shape[0]) | _mask(shape[1])
    return 1 << shape


class _Shapes:
    """Arrangement tables for ``k`` blocks, in :func:`_arrangements` order.

    A split is one internal node, the pair (left block set, right block set)
    as bit masks; ``X``/``Y`` hold each split's sides as 0/1 rows over the
    blocks, and ``uses[s]`` lists the splits of shape ``s``."""

    def __init__(self, k: int):
        self.shapes = list(_arrangements(list(range(k))))
        self.splits: dict[tuple[int, int], int] = {}
        uses = []

        def walk(sh) -> None:
            if isinstance(sh, tuple):
                split = (_mask(sh[0]), _mask(sh[1]))
                used.append(self.splits.setdefault(split, len(self.splits)))
                walk(sh[0])
                walk(sh[1])

        for sh in self.shapes:
            used: list[int] = []
            walk(sh)
            uses.append(used)
        # the unrearranged node: kl left blocks under one branch, the rest
        # under the other
        self.own = {}
        for kl in (1, 2):
            if 1 <= k - kl <= 2:
                left = 0 if kl == 1 else (0, 1)
                right = kl if k - kl == 1 else (kl, kl + 1)
                self.own[kl] = self.shapes.index((left, right))
        self.uses = np.array(uses, dtype=np.intp)
        bits = np.array([1 << b for b in range(k)])
        self.X = np.array([(x & bits) > 0 for x, _ in self.splits], dtype=float)
        self.Y = np.array([(y & bits) > 0 for _, y in self.splits], dtype=float)


_SHAPES = {k: _Shapes(k) for k in (3, 4)}


def _split_costs(blocks: list[CodeNode], tab: _Shapes, ctx: _Ctx) -> np.ndarray:
    """Weighted cost P(X u Y) * ExpDist(X, Y) of every split in ``tab``.

    With block cross weights W[a, b] = pm_a @ prof_b, a split's cost is
    (m_X + m_Y) * W(X, Y) / (m_X * m_Y); a side of zero mass falls back to
    :func:`_expected_distance` and its uniform weights."""
    V = np.stack([ctx.vec(b) for b in blocks])
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
            bi = np.sort(np.concatenate([ctx.idx(b) for b, x in zip(blocks, xs) if x]))
            ci = np.sort(np.concatenate([ctx.idx(b) for b, y in zip(blocks, ys) if y]))
            cost[s] = (mx[s] + my[s]) * _expected_distance(ctx.Dm, ctx.p, bi, ci)
    return cost


def _build(shape, blocks: list[CodeNode], tab: _Shapes, cost: np.ndarray) -> CodeNode:
    """The code tree of one arrangement, each node's weighted cost cached
    from the split costs."""
    if not isinstance(shape, tuple):
        return blocks[shape]
    nd = CodeNode(
        left=_build(shape[0], blocks, tab, cost), right=_build(shape[1], blocks, tab, cost)
    )
    s = tab.splits[_mask(shape[0]), _mask(shape[1])]
    nd._contrib = float(cost[s]) + nd.left._contrib + nd.right._contrib
    return nd


def _optimize_node(
    nd: CodeNode, ctx: _Ctx, guard: _RestartGuard, trace: OptimizeTrace
) -> CodeNode:
    if nd._opt or nd.is_leaf:
        nd._opt = True
        return nd
    while True:
        L = _optimize_node(nd.left, ctx, guard, trace)
        R = _optimize_node(nd.right, ctx, guard, trace)
        blocks_l = [L] if L.is_leaf else [L.left, L.right]
        blocks_r = [R] if R.is_leaf else [R.left, R.right]
        blocks = blocks_l + blocks_r
        if len(blocks) == 2:  # two leaves: L and R are nd's own children
            nd._opt = True
            return nd
        tab = _SHAPES[len(blocks)]
        cost = _split_costs(blocks, tab, ctx)
        scores = cost[tab.uses].sum(axis=1)
        inner = sum(_contrib(b, ctx) for b in blocks)
        own = tab.own[len(blocks_l)]
        base = inner + scores[own]
        best = int(np.argmin(scores))
        eps = 1e-12 * max(1.0, abs(base))
        if inner + scores[best] < base - eps:
            guard.bump()
            trace.rewrites.append((float(base), float(inner + scores[best])))
            nd = _build(tab.shapes[best], blocks, tab, cost)
        else:
            if L is not nd.left or R is not nd.right:
                nd = CodeNode(left=L, right=R)
                # the root split of the unrearranged shape is (L, R)
                nd._contrib = float(cost[tab.uses[own, 0]]) + L._contrib + R._contrib
            nd._opt = True
            return nd


def optimize(T: UltrametricTree, P: Distribution) -> CodeTree:
    """Search for a low-cost code tree for an ultrametric source.

    Starting from the ultrametric tree itself, every subtree is optimized
    recursively; then the (up to four) grandchild blocks are cross-combined
    in every full binary arrangement and the cheapest kept.  Whenever a
    rearrangement wins, optimization of that subtree restarts from the
    rewritten tree.  Ties favor the original tree, so the weighted cost
    strictly decreases with every accepted rewrite and the search terminates.
    """
    return optimize_with_trace(T, P)[0]


def optimize_with_trace(T: UltrametricTree, P: Distribution) -> tuple[CodeTree, OptimizeTrace]:
    if len(T.alphabet) < 2:
        raise TooFewLetters("code optimization needs at least two letters")
    C0 = initial_code_tree(T, P)
    D = tree_to_distance(T)
    ctx = _Ctx(P, D)
    trace = OptimizeTrace()
    trace.initial = _contrib(C0.root, ctx)
    n = len(T.alphabet)
    guard = _RestartGuard(cap=max(100, 10 * n * n))
    root = _optimize_node(C0.root, ctx, guard, trace)
    trace.final = _contrib(root, ctx)
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
    master = np.random.default_rng(seed)
    report = TrialReport(seed=seed, count=count, n_range=(n_min, n_max))
    for k in range(count):
        inst_seed = int(master.integers(0, 2**63 - 1))
        rng = np.random.default_rng(inst_seed)
        n = int(rng.integers(n_min, n_max + 1))
        T = sampling.random_ultrametric_tree(n, rng)
        P = sampling.random_distribution(T.alphabet, rng)
        C, _ = optimize_with_trace(T, P)
        D = tree_to_distance(T)
        hu = hu_arcwise(T, P)
        mu = mu_u(C, P, D)
        rec = TrialRecord(seed=inst_seed, n=n, hu=hu, mu=mu)
        report.records.append(rec)
        if rec.gap > GAP_BOUND + GAP_TOL:
            path = _write_violation(violations_dir or ".", k, rec, T, P)
            report.violation_files.append(path)
    return report


def _write_violation(dirpath: str, index: int, rec: TrialRecord, T, P) -> str:
    os.makedirs(dirpath, exist_ok=True)
    D = tree_to_distance(T)
    payload = {
        "seed": rec.seed,
        "n": rec.n,
        "hu": rec.hu,
        "mu": rec.mu,
        "gap": rec.gap,
        "alphabet": [repr(a) for a in T.alphabet.letters],
        "distance": D.matrix.tolist(),
        "probs": list(P.probs),
    }
    path = os.path.join(dirpath, f"bound_violation_{index:05d}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return path


# ------------------------------------------- block-coding exactness


def _balanced_code(letters: list, lo: int, hi: int) -> CodeNode:
    if hi - lo == 1:
        return CodeNode(letter=letters[lo])
    mid = (lo + hi) // 2
    return CodeNode(
        left=_balanced_code(letters, lo, mid), right=_balanced_code(letters, mid, hi)
    )


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
    C = CodeTree(seq_alpha, _balanced_code(list(seq_alpha.letters), 0, N))
    return esscl(C, X_m) / m, h_s(X)
