"""Ultrametric distances, their trees, and entropy over them.

An ultrametric distance satisfies D(a,b) <= max(D(a,c), D(b,c)) for every
triple.  Such a distance is equivalent to a rooted tree whose leaves are the
letters, where every internal node carries a height, heights decrease from
the root down, and the distance between two leaves is the height of their
lowest common ancestor.

The entropy of a distribution over an ultrametric space is computed here in
four independent ways that provably agree:

* ``hu_recursive``  - grouping recursion over the root split;
* ``hu_nodewise``   - per-node terms P_i * height(i) * H(children of i);
* ``hu_arcwise``    - per-arc terms -L_i * P_i * log2 P_i;
* ``hu_bandwise``   - horizontal bands of the (banded) tree, each band
  contributing its width times the entropy of its level partition.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

import numpy as np

from .alphabet import Alphabet, Distribution, Letter, Partition, PartitionStructure
from .errors import (
    NotNormalized,
    NotUltrametric,
    TooFewLetters,
    ValidationError,
    ZeroMassSide,
)
from .notions import binary_entropy, entropy

HEIGHT_TOL = 1e-9


class DistanceMatrix:
    """A symmetric, non-negative distance matrix with zero diagonal."""

    __slots__ = ("alphabet", "matrix", "_ultra")

    def __init__(self, alphabet: Alphabet, matrix):
        m = np.asarray(matrix, dtype=float)
        n = len(alphabet)
        if m.shape != (n, n):
            raise ValidationError("distance matrix shape must match the alphabet")
        if np.isnan(m).any() or (m < -1e-12).any():
            raise ValidationError("distances must be non-negative")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-9):
            raise ValidationError("distance matrix must be symmetric")
        if np.abs(np.diag(m)).max() > 1e-12:
            raise ValidationError("distance matrix diagonal must be zero")
        m = np.clip((m + m.T) / 2.0, 0.0, None)
        np.fill_diagonal(m, 0.0)
        self.alphabet = alphabet
        self.matrix = m
        self._ultra: Optional[tuple[bool, Optional[tuple]]] = None

    def value(self, a: Letter, b: Letter) -> float:
        i, j = self.alphabet.index_of(a), self.alphabet.index_of(b)
        return float(self.matrix[i, j])

    def _ultrametric_witness(self) -> Optional[tuple]:
        """A triple (a, b, c) violating the ultrametric inequality, or None."""
        m = self.matrix
        # violation: D(a,b) > max(D(a,c), D(b,c)) + tol for some c
        best = np.maximum(m[:, None, :], m[None, :, :])  # best[a,b,c]
        tol = HEIGHT_TOL * max(1.0, float(m.max() or 1.0))
        bad = best < (m[:, :, None] - tol)
        if not bad.any():
            return None
        a, b, c = np.argwhere(bad)[0]
        return (self.alphabet.letters[a], self.alphabet.letters[b], self.alphabet.letters[c])

    @property
    def is_ultrametric(self) -> bool:
        if self._ultra is None:
            w = self._ultrametric_witness()
            self._ultra = (w is None, w)
        return self._ultra[0]

    @property
    def is_normalized(self) -> bool:
        """Maximum distance equals 1."""
        return abs(float(self.matrix.max()) - 1.0) <= HEIGHT_TOL

    def submatrix(self, subset: Iterable[Letter]) -> "DistanceMatrix":
        sub = self.alphabet.restricted(subset)
        idx = [self.alphabet.index_of(a) for a in sub]
        return DistanceMatrix(sub, self.matrix[np.ix_(idx, idx)])


def set_distance(D: DistanceMatrix, P: Distribution, B: Iterable[Letter], C: Iterable[Letter]) -> float:
    """Expected distance between two disjoint letter sets.

    Cross pairs are weighted by the conditional probabilities within each
    set; a zero-mass set falls back to uniform weights over its letters.
    """
    if P.alphabet != D.alphabet:
        raise ValidationError("distribution and distance use different alphabets")
    Bs = D.alphabet.check_subset(B)
    Cs = D.alphabet.check_subset(C)
    if not Bs or not Cs:
        raise ValidationError("set distance needs non-empty sets")
    if Bs & Cs:
        raise ValidationError("set distance needs disjoint sets")

    def weights(S: frozenset) -> tuple[list[int], np.ndarray]:
        idx = sorted(D.alphabet.index_of(a) for a in S)
        w = np.array([P.probs[i] for i in idx], dtype=float)
        tot = w.sum()
        if tot > 0.0:
            return idx, w / tot
        return idx, np.full(len(idx), 1.0 / len(idx))

    bi, bw = weights(Bs)
    ci, cw = weights(Cs)
    return float(bw @ D.matrix[np.ix_(bi, ci)] @ cw)


class TreeNode:
    """One node of an ultrametric tree.  Leaves carry a letter and height 0;
    internal nodes carry a height and at least two children (pass-through
    nodes produced by banding have exactly one)."""

    __slots__ = ("letter", "height", "children", "leaves", "passthrough")

    def __init__(self, letter=None, height: float = 0.0, children: tuple = (), passthrough: bool = False):
        self.letter = letter
        self.height = float(height)
        self.children = tuple(children)
        self.passthrough = passthrough
        if self.children:
            self.leaves = frozenset().union(*(c.leaves for c in self.children))
        else:
            self.leaves = frozenset((letter,))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"Leaf({self.letter!r})"
        return f"Node(h={self.height:.6g}, {len(self.children)} children)"


def leaf(letter: Letter) -> TreeNode:
    return TreeNode(letter=letter, height=0.0)


def node(height: float, children: Iterable[TreeNode]) -> TreeNode:
    return TreeNode(height=height, children=tuple(children))


class UltrametricTree:
    """A rooted tree with equidistant leaves, identified with an ultrametric
    distance via height of the lowest common ancestor."""

    __slots__ = ("alphabet", "root")

    def __init__(self, alphabet: Alphabet, root: TreeNode):
        self.alphabet = alphabet
        self.root = root
        self._validate()

    def _validate(self) -> None:
        seen: set = set()
        scale = max(1.0, self.root.height)
        tol = HEIGHT_TOL * scale

        def walk(nd: TreeNode) -> None:
            if nd.is_leaf:
                if nd.letter not in self.alphabet._index:
                    raise ValidationError(f"leaf {nd.letter!r} not in alphabet")
                if nd.letter in seen:
                    raise ValidationError(f"duplicate leaf {nd.letter!r}")
                seen.add(nd.letter)
                if abs(nd.height) > 1e-12:
                    raise ValidationError("leaves must have height 0")
                return
            if len(nd.children) < 2 and not nd.passthrough:
                raise ValidationError("internal nodes need at least two children")
            if nd.height < -1e-12:
                raise ValidationError("heights must be non-negative")
            for c in nd.children:
                if c.height > nd.height + tol:
                    raise ValidationError("child height exceeds parent height")
                if not c.is_leaf and c.height >= nd.height - tol and nd.height > tol:
                    raise ValidationError("internal child must sit strictly below its parent")
                walk(c)

        walk(self.root)
        if seen != set(self.alphabet.letters):
            raise ValidationError("tree leaves must cover the alphabet exactly")

    @property
    def height(self) -> float:
        return self.root.height

    @property
    def is_normalized(self) -> bool:
        return abs(self.root.height - 1.0) <= HEIGHT_TOL

    def nodes(self) -> Iterator[tuple[TreeNode, Optional[TreeNode]]]:
        """Preorder (node, parent) pairs."""
        stack = [(self.root, None)]
        while stack:
            nd, par = stack.pop()
            yield nd, par
            for c in nd.children:
                stack.append((c, nd))

    def distance(self, a: Letter, b: Letter) -> float:
        if a == b:
            self.alphabet.index_of(a)
            return 0.0
        nd = self.root
        while True:
            holders = [c for c in nd.children if a in c.leaves and b in c.leaves]
            if not holders:
                return nd.height
            nd = holders[0]

    def rescaled(self, factor: float) -> "UltrametricTree":
        if factor <= 0.0:
            raise ValidationError("scale factor must be positive")

        def walk(nd: TreeNode) -> TreeNode:
            if nd.is_leaf:
                return leaf(nd.letter)
            out = node(nd.height * factor, [walk(c) for c in nd.children])
            out.passthrough = nd.passthrough
            return out

        return UltrametricTree(self.alphabet, walk(self.root))

    def normalized(self) -> "UltrametricTree":
        if self.root.height <= 0.0:
            raise ValidationError("cannot normalize a tree of height 0")
        return self.rescaled(1.0 / self.root.height)


def tree_to_distance(T: UltrametricTree) -> DistanceMatrix:
    n = len(T.alphabet)
    m = np.zeros((n, n))
    idx = T.alphabet.index_of

    def walk(nd: TreeNode) -> None:
        for i, ci in enumerate(nd.children):
            for cj in nd.children[i + 1:]:
                for a in ci.leaves:
                    for b in cj.leaves:
                        ia, ib = idx(a), idx(b)
                        m[ia, ib] = m[ib, ia] = nd.height
            walk(ci)

    walk(T.root)
    return DistanceMatrix(T.alphabet, m)


def _distinct_levels(values: Iterable[float]) -> list[float]:
    """Sorted distinct values, grouping anything closer than the tolerance."""
    vals = sorted(float(v) for v in values)
    levels: list[list[float]] = []
    for v in vals:
        if levels and v - levels[-1][0] <= HEIGHT_TOL * max(1.0, abs(v)):
            levels[-1].append(v)
        else:
            levels.append([v])
    return [math.fsum(g) / len(g) for g in levels]


def tree_from_distance(D: DistanceMatrix, P: Optional[Distribution] = None) -> UltrametricTree:
    """Build the unique ultrametric tree of a distance matrix.

    Clusters are merged bottom-up at each distinct distance level; letters at
    distance zero stay distinct leaves under a shared height-0 node.  The
    distribution argument is only validated for alphabet agreement; trees do
    not store probabilities.
    """
    if P is not None and P.alphabet != D.alphabet:
        raise ValidationError("distribution and distance use different alphabets")
    if not D.is_ultrametric:
        raise NotUltrametric(f"ultrametric inequality fails at triple {D._ultra[1]!r}")
    A = D.alphabet
    n = len(A)
    if n == 1:
        return UltrametricTree(A, leaf(A.letters[0]))
    m = D.matrix
    off = m[np.triu_indices(n, k=1)]
    levels = _distinct_levels(off)
    clusters: list[TreeNode] = [leaf(a) for a in A]
    reps: list[int] = list(range(n))  # matrix row representing each cluster
    for d in levels:
        tol = HEIGHT_TOL * max(1.0, d)
        groups: list[list[int]] = []
        assigned = [-1] * len(clusters)
        for i in range(len(clusters)):
            if assigned[i] >= 0:
                continue
            g = [i]
            assigned[i] = len(groups)
            for j in range(i + 1, len(clusters)):
                if assigned[j] < 0 and m[reps[i], reps[j]] <= d + tol:
                    g.append(j)
                    assigned[j] = len(groups)
            groups.append(g)
        new_clusters: list[TreeNode] = []
        new_reps: list[int] = []
        for g in groups:
            if len(g) == 1:
                new_clusters.append(clusters[g[0]])
            else:
                new_clusters.append(node(d, [clusters[i] for i in g]))
            new_reps.append(reps[g[0]])
        clusters, reps = new_clusters, new_reps
        if len(clusters) == 1:
            break
    if len(clusters) != 1:
        raise NotUltrametric("distance levels did not merge to a single root")
    return UltrametricTree(A, clusters[0])


def band(T: UltrametricTree) -> UltrametricTree:
    """Insert pass-through nodes so every internal height is realized on
    every root-to-leaf path.  Idempotent; entropy is unchanged."""
    heights = _distinct_levels(
        [nd.height for nd, _ in T.nodes() if not nd.is_leaf] + [0.0]
    )

    def wrap(nd: TreeNode, parent_height: float) -> TreeNode:
        out = rebuild(nd)
        tol = HEIGHT_TOL * max(1.0, parent_height)
        between = [h for h in heights if nd.height + tol < h < parent_height - tol]
        for h in between:  # ascending
            p = TreeNode(height=h, children=(out,), passthrough=True)
            out = p
        return out

    def rebuild(nd: TreeNode) -> TreeNode:
        if nd.is_leaf:
            return leaf(nd.letter)
        out = node(nd.height, [wrap(c, nd.height) for c in nd.children])
        out.passthrough = nd.passthrough
        return out

    return UltrametricTree(T.alphabet, rebuild(T.root))


def _subtree_masses(T: UltrametricTree, P: Distribution) -> dict[int, float]:
    """Probability mass of every subtree, keyed by node id.  Walks the
    breadth-first order backwards, so children come before their parent
    and deep (e.g. banded) trees need no recursion."""
    if P.alphabet != T.alphabet:
        raise ValidationError("distribution and tree use different alphabets")
    order = [T.root]
    for nd in order:  # grows while it is read: breadth-first
        order.extend(nd.children)
    masses: dict[int, float] = {}
    for nd in reversed(order):
        if nd.is_leaf:
            masses[id(nd)] = P.p(nd.letter)
        else:
            masses[id(nd)] = math.fsum([masses[id(c)] for c in nd.children])
    return masses


def hu_recursive(T: UltrametricTree, P: Distribution) -> float:
    """Entropy by grouping recursion: the root split contributes
    height * H(split masses), plus the mass-weighted entropies of the
    subtrees under their conditional distributions."""
    if P.alphabet != T.alphabet:
        raise ValidationError("distribution and tree use different alphabets")

    def rec(nd: TreeNode) -> tuple[float, float]:
        if nd.is_leaf:
            return P.p(nd.letter), 0.0
        parts = [rec(c) for c in nd.children]
        mass = math.fsum(w for w, _ in parts)
        if mass <= 0.0:
            return 0.0, 0.0
        split = entropy(w / mass for w, _ in parts)
        inner = math.fsum((w / mass) * h for w, h in parts)
        return mass, nd.height * split + inner

    return rec(T.root)[1]


def hu_nodewise(T: UltrametricTree, P: Distribution) -> float:
    """Entropy as a sum over internal nodes:
    P(A_i) * height(i) * H(children of i | A_i)."""
    masses = _subtree_masses(T, P)
    total = 0.0
    for nd, _ in T.nodes():
        if nd.is_leaf:
            continue
        w = masses[id(nd)]
        if w <= 0.0:
            continue
        total += w * nd.height * entropy(masses[id(c)] / w for c in nd.children)
    return total


def hu_arcwise(T: UltrametricTree, P: Distribution) -> float:
    """Entropy as a sum over arcs: -L_i * P(A_i) * log2 P(A_i), where L_i is
    the height drop from the parent to node i."""
    masses = _subtree_masses(T, P)
    total = 0.0
    for nd, parent in T.nodes():
        if parent is None:
            continue
        w = masses[id(nd)]
        if 0.0 < w < 1.0:
            total += (parent.height - nd.height) * (-w * math.log2(w))
    return total


def hu_bandwise(T: UltrametricTree, P: Distribution) -> float:
    """Entropy as a sum over horizontal bands of the banded tree: each band
    contributes its width times the entropy of the partition of the alphabet
    realized at its floor."""
    if P.alphabet != T.alphabet:
        raise ValidationError("distribution and tree use different alphabets")
    B = band(T)
    masses = _subtree_masses(B, P)
    return math.fsum(
        gap * entropy(masses[id(nd)] for nd in nds) for gap, nds in _bands_from(B)
    )


def _bands_from(B: UltrametricTree) -> list[tuple[float, list[TreeNode]]]:
    """Horizontal bands of a banded tree as (width, floor nodes) pairs.

    Each band spans two consecutive realized heights; its floor nodes are
    the nodes at the lower height whose parent sits strictly above, and
    their leaf sets partition the alphabet.
    """
    floors: dict[int, tuple[float, list[TreeNode]]] = {}
    heights = _distinct_levels([nd.height for nd, _ in B.nodes()])

    def level_of(h: float) -> int:
        for k, v in enumerate(heights):
            if abs(h - v) <= HEIGHT_TOL * max(1.0, abs(v)):
                return k
        raise AssertionError("height missing from level table")

    for nd, parent in B.nodes():
        if parent is None:
            continue
        gap = parent.height - nd.height
        if gap <= HEIGHT_TOL * max(1.0, parent.height):
            continue
        k = level_of(nd.height)
        if k not in floors:
            floors[k] = (gap, [])
        floors[k][1].append(nd)
    return [floors[k] for k in sorted(floors)]


def to_partition_structure(T: UltrametricTree) -> PartitionStructure:
    """The partition structure induced by a normalized tree: one partition
    per band (leaf sets at the band floor) with the band width as measure.

    The structure entropy of the result equals the tree entropy for every
    distribution, and its total measure is the root height, 1.
    """
    if not T.is_normalized:
        raise NotNormalized("tree root height must be 1")
    if len(T.alphabet) < 2:
        raise TooFewLetters("need at least two letters to form partitions")
    B = band(T)
    items = []
    for gap, nds in _bands_from(B):
        s = Partition(T.alphabet, [nd.leaves for nd in nds])
        items.append((s, gap))
    return PartitionStructure(T.alphabet, items)


def check_binary_partition_minimality(
    T: UltrametricTree, P: Distribution, Y: Partition
) -> tuple[float, float]:
    """Compare tree entropy against the two-block grouping bound for an
    arbitrary binary partition Y = {A1, A2} of the alphabet.

    Returns (tree entropy, grouped value) where the grouped value is
    ExpDist(A1, A2) * h(P(A1)) plus the mass-weighted entropies of the two
    restricted spaces.  The tree entropy is never larger, with equality when
    Y is the root's natural split.
    """
    if len(Y) != 2:
        raise ValidationError("minimality check needs a two-block partition")
    if Y.alphabet != T.alphabet:
        raise ValidationError("partition alphabet does not match the tree")
    D = tree_to_distance(T)
    sides = [frozenset(c) for c in Y.components]
    weights = [P.mass(side) for side in sides]
    if min(weights) <= 0.0:
        raise ZeroMassSide("both sides of the split need positive probability")
    rhs = set_distance(D, P, sides[0], sides[1]) * binary_entropy(weights[0])
    for side, w in zip(sides, weights):
        if len(side) == 1:
            continue
        sub_alpha = T.alphabet.restricted(side)
        sub_P = Distribution(sub_alpha, [P.p(a) / w for a in sub_alpha], renormalize=True)
        sub_T = tree_from_distance(D.submatrix(side))
        rhs += w * hu_arcwise(sub_T, sub_P)
    return hu_arcwise(T, P), rhs


def tree_equal(T1: UltrametricTree, T2: UltrametricTree, tol: float = HEIGHT_TOL) -> bool:
    """Structural equality up to child order and a height tolerance."""
    if T1.alphabet != T2.alphabet:
        return False

    def key(nd: TreeNode):
        return T1.alphabet.sort_key(nd.leaves)

    def eq(a: TreeNode, b: TreeNode) -> bool:
        if a.is_leaf or b.is_leaf:
            return a.is_leaf and b.is_leaf and a.letter == b.letter
        if abs(a.height - b.height) > tol * max(1.0, a.height):
            return False
        if len(a.children) != len(b.children):
            return False
        ca = sorted(a.children, key=key)
        cb = sorted(b.children, key=key)
        return all(eq(x, y) for x, y in zip(ca, cb))

    return eq(T1.root, T2.root)
