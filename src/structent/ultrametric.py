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
* ``hu_bandwise``   - horizontal bands of the tree, each band contributing
  its width times the entropy of its level partition.

These trees and the code trees of :mod:`structent.coding` keep one flat
array view of their nodes, built by one walk (``_preorder``) that checks the
leaves.  Position 0 is the root and positions follow the walk's preorder;
each position has a parent position (-1 for the root), its child positions
in the children's own order, a ``[lo, hi)`` range into one depth-first order
of the leaves, so every subtree owns a contiguous run of letters, and here a
height.  The tree algorithms read this view: masses run bottom-up over
reversed positions, rebuilds fold children first on an explicit stack,
``tree_to_distance`` fills whole cross-child blocks, and bands are cut at the
exact distinct heights, so no algorithm recurses and none builds the banded
copy.  Only :func:`band`, whose output is validated, applies the height
tolerance, so the four forms agree to rounding even on near-tied heights.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from .alphabet import Alphabet, Distribution, Letter, Partition, PartitionStructure, restrict_distribution
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
        if not (m >= -1e-12).all() or not math.isfinite(float(m.max()) * m.size):  # sums stay finite
            raise ValidationError("distances must be non-negative, and n * n times the largest a finite float")
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

    @property
    def _tol(self) -> float:
        """The tolerance of the ultrametric witness, which
        :func:`tree_from_distance` also groups its levels within."""
        return HEIGHT_TOL * max(1.0, float(self.matrix.max()))

    def _ultrametric_witness(self) -> Optional[tuple]:
        """A triple (a, b, c) violating the ultrametric inequality, or None."""
        m, tol = self.matrix, self._tol
        # violation: D(a,b) > max(D(a,c), D(b,c)) + tol for some c; one a at a
        # time keeps the temporaries n x n
        for a in range(len(m)):
            bad = np.argwhere(np.maximum(m[a], m) < (m[a] - tol)[:, None])  # violating (b, c)
            if len(bad):
                return tuple(self.alphabet.letters[k] for k in (a, *bad[0]))
        return None

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
    p = np.asarray(P.probs, dtype=float)
    bi, ci = (sorted(D.alphabet.index_of(a) for a in S) for S in (Bs, Cs))
    return float(_weights(p[bi])[0] @ D.matrix[np.ix_(bi, ci)] @ _weights(p[ci])[0])


def _weights(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Conditional weights over one side, uniform at zero mass, and the
    side's mass."""
    t = float(v.sum())
    if t > 0.0:
        return v / t, t
    return np.full(len(v), 1.0 / len(v)), t


class _Node:
    """The base of both tree kinds' nodes: a letter, or ``children``."""

    __slots__ = ()

    @property
    def leaves(self) -> frozenset:
        """The letters under this node, collected on each call."""
        out, stack = [], [self]
        while stack:
            nd = stack.pop()
            if nd.children:
                stack += nd.children
            else:
                out.append(nd.letter)
        return frozenset(out)


class TreeNode(_Node):
    """One node of an ultrametric tree.  Leaves carry a letter and height 0;
    internal nodes carry a height and at least two children (pass-through
    nodes produced by banding have exactly one)."""

    __slots__ = ("letter", "height", "children", "passthrough")

    def __init__(self, letter=None, height: float = 0.0, children: tuple = (), passthrough: bool = False):
        self.letter = letter
        self.height = float(height)
        self.children = tuple(children)
        self.passthrough = passthrough

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


def _unfold(seed, split, make):
    """Build the tree of ``seed`` from the top on an explicit stack.
    ``split(x)`` lists the parts of item ``x`` (none at a leaf) and runs in
    preorder, left parts first; ``make(x, [built parts])`` then builds ``x``."""
    built: list = []
    stack = [(seed, None)]
    while stack:
        x, k = stack.pop()
        if k is None:  # split now, build once the parts are built
            parts = split(x)
            stack.append((x, len(parts)))
            stack += [(y, None) for y in reversed(parts)]
        else:
            built[len(built) - k:] = [make(x, built[len(built) - k:])]
    return built[0]


def _preorder(root, alphabet: Alphabet, visit, kind: str = ""):
    """The view of the tree under ``root``: ``nodes`` in walk order and, by
    position, ``parent`` (-1 at the root), ``kids`` in walk order (``()`` at
    a leaf) and the ``[lo, hi)`` range in ``order``, the alphabet indices of
    the leaves.  The walk checks the leaves; ``kind`` names them in errors.

    The walk takes the last child ``visit(node)`` lists first.  Each tree
    kind keeps its order, since ``hu_arcwise`` and ``hu_nodewise`` add in
    position order and the code costs take dot products in leaf order: an
    ultrametric tree lists its children, and a code tree (right, left).
    """
    index = alphabet._index
    nodes, parent, kids, lo, order = [], [], [], [], []
    stack = [(root, -1)]
    pop, push = stack.pop, stack.append
    while stack:
        nd, p = pop()
        i = len(nodes)
        nodes.append(nd)
        parent.append(p)
        lo.append(len(order))
        if p >= 0:
            kids[p].append(i)
        children = visit(nd)
        kids.append([] if children else ())
        if children:
            for c in children:
                push((c, i))
            continue
        if nd.letter not in index:
            raise ValidationError(f"{kind}leaf {nd.letter!r} not in alphabet")
        order.append(index[nd.letter])
    if len(set(order)) < len(order):  # name the first letter walked twice
        seen: set = set()
        dup = next(nd.letter for nd, k in zip(nodes, kids) if not k and (nd.letter in seen or seen.add(nd.letter)))
        raise ValidationError(f"duplicate {kind}leaf {dup!r}")
    if len(order) != len(alphabet):
        raise ValidationError(f"{kind}tree leaves must cover the alphabet exactly")
    hi = [0] * len(nodes)
    for i in reversed(range(len(nodes))):  # a subtree's leaves end with its last child's
        hi[i] = hi[kids[i][-1]] if kids[i] else lo[i] + 1
    return nodes, parent, kids, lo, hi, order


class UltrametricTree:
    """A rooted tree with equidistant leaves, identified with an ultrametric
    distance via height of the lowest common ancestor."""

    __slots__ = ("alphabet", "root", "_nodes", "_parent", "_height", "_kids", "_lo", "_hi", "_order")

    def __init__(self, alphabet: Alphabet, root: TreeNode):
        self.alphabet = alphabet
        self.root = root
        self._nodes, self._parent, self._kids, self._lo, self._hi, self._order = _preorder(
            root, alphabet, attrgetter("children")
        )
        kids, self._height = self._kids, [nd.height for nd in self._nodes]
        height, tol = self._height, self._tol
        for nd, k in zip(self._nodes, kids):
            h = nd.height
            if not k:
                if abs(h) > 1e-12:
                    raise ValidationError("leaves must have height 0")
                continue
            k.reverse()  # the walk took the children last to first
            if len(k) < 2 and not nd.passthrough:
                raise ValidationError("internal nodes need at least two children")
            if h < -1e-12:
                raise ValidationError("heights must be non-negative")
            for c in k:
                if height[c] > h + tol:
                    raise ValidationError("child height exceeds parent height")
                if kids[c] and height[c] >= h - tol and h > tol:
                    raise ValidationError("internal child must sit strictly below its parent")

    def _fold(self, f):
        """Evaluate ``f(i, [results of i's children])`` at every position,
        children first, and return the root's result."""
        return _unfold(0, self._kids.__getitem__, f)

    def _masses(self, P: Distribution) -> list[float]:
        """Probability mass of every subtree, by position; an internal mass
        is the ``math.fsum`` of its children's."""
        if P.alphabet != self.alphabet:
            raise ValidationError("distribution and tree use different alphabets")
        probs, order, lo, kids = P.probs, self._order, self._lo, self._kids
        masses = [0.0] * len(kids)
        for i in reversed(range(len(kids))):
            k = kids[i]
            masses[i] = math.fsum([masses[c] for c in k]) if k else probs[order[lo[i]]]
        return masses

    @property
    def height(self) -> float:
        return self.root.height

    @property
    def _tol(self) -> float:
        """The tolerance of the height checks, which :func:`band` also
        keeps its pass-through nodes apart by."""
        return HEIGHT_TOL * max(1.0, self.root.height)

    @property
    def is_normalized(self) -> bool:
        return abs(self.root.height - 1.0) <= HEIGHT_TOL

    def nodes(self) -> Iterator[tuple[TreeNode, Optional[TreeNode]]]:
        """Preorder (node, parent) pairs, in the order of the array view."""
        nodes = self._nodes
        for nd, p in zip(nodes, self._parent):
            yield nd, (nodes[p] if p >= 0 else None)

    def distance(self, a: Letter, b: Letter) -> float:
        pa, pb = sorted(self._order.index(self.alphabet.index_of(x)) for x in (a, b))
        i = 0
        while pa != pb:  # descend while one child's leaf range holds both letters
            c = next(c for c in self._kids[i] if self._lo[c] <= pa < self._hi[c])
            if pb >= self._hi[c]:
                return self._height[i]
            i = c
        return 0.0

    def rescaled(self, factor: float) -> "UltrametricTree":
        if factor <= 0.0:
            raise ValidationError("scale factor must be positive")

        def copy(i: int, kids: list[TreeNode]) -> TreeNode:
            nd = self._nodes[i]
            return TreeNode(nd.letter, nd.height * factor if kids else 0.0, kids, nd.passthrough)

        return UltrametricTree(self.alphabet, self._fold(copy))

    def normalized(self) -> "UltrametricTree":
        if self.root.height <= 0.0:
            raise ValidationError("cannot normalize a tree of height 0")
        return self.rescaled(1.0 / self.root.height)


def tree_to_distance(T: UltrametricTree) -> DistanceMatrix:
    """The distance of a tree: each internal node's height fills the blocks
    between its children's leaf ranges, in leaf order, then the rows and
    columns are put back in alphabet order."""
    n = len(T.alphabet)
    m = np.zeros((n, n))
    h, lo, hi = T._height, T._lo, T._hi
    for i, kids in enumerate(T._kids):
        for c in kids:
            m[lo[c]:hi[c], lo[i]:lo[c]] = h[i]
            m[lo[c]:hi[c], hi[c]:hi[i]] = h[i]
    order = np.array(T._order, dtype=np.intp)
    out = np.empty_like(m)
    out[np.ix_(order, order)] = m
    return DistanceMatrix(T.alphabet, out)


def _distinct_levels(values, tol: float) -> list[list[float]]:
    """The values grouped into levels, lowest first, each level's members
    sorted.  In sorted order a value ``v`` joins the current level if the
    level's smallest member is at least ``v - tol``, so consecutive levels'
    smallest members pass the check of :class:`UltrametricTree` that a child
    lies below ``parent - tol``."""
    sv = np.sort(values).tolist()
    starts: list[int] = []
    for i in np.flatnonzero(np.diff(sv, prepend=-math.inf)).tolist():  # the first of each distinct value
        if not (starts and sv[starts[-1]] >= sv[i] - tol):
            starts.append(i)
    return [sv[a:b] for a, b in zip(starts, starts[1:] + [len(sv)])]


def _band_levels(T: UltrametricTree) -> tuple[list[float], list[int]]:
    """The distinct band heights of ``T``, lowest first, and the level of
    every position.  A leaf's band height is 0; an internal node takes its
    own height, clamped below at 0 and above at its parent's band height,
    so band heights never rise along a path."""
    bh = [0.0] * len(T._kids)
    for i, (p, k, h) in enumerate(zip(T._parent, T._kids, T._height)):  # parents come first in preorder
        if k:
            bh[i] = max(0.0, h) if p < 0 else min(max(0.0, h), bh[p])
    levels, lev = np.unique(bh, return_inverse=True)
    return levels.tolist(), lev.tolist()


def tree_from_distance(D: DistanceMatrix, P: Optional[Distribution] = None) -> UltrametricTree:
    """Build the unique ultrametric tree of a distance matrix.

    Clusters are merged bottom-up at each distinct distance level, the
    distances grouped within the tolerance of the ultrametric witness; each
    level's node height is its smallest member, so an internal node lies
    more than that tolerance below its parent.  Letters at distance zero
    stay distinct leaves under a shared height-0 node.  At each level the
    first free cluster takes every later free cluster no farther from it
    than the level's largest member, read from one block of the matrix.
    The distribution argument is only validated for alphabet agreement;
    trees do not store probabilities.
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
    levels = _distinct_levels(m[np.triu_indices(n, k=1)], D._tol)
    clusters = np.fromiter((leaf(a) for a in A), dtype=object, count=n)
    reps = np.arange(n)  # matrix row representing each cluster
    for level in levels:
        close = m[np.ix_(reps, reps)] <= level[-1]
        np.fill_diagonal(close, False)
        free, kept = np.ones(len(reps), dtype=bool), np.ones(len(reps), dtype=bool)
        for i in np.flatnonzero(close.any(axis=1)).tolist():  # clusters with a close partner, in order
            if free[i]:
                g = np.flatnonzero(close[i] & free)  # later ones only: every earlier one close to i is taken
                free[i], free[g], kept[g] = False, False, False
                if len(g):
                    clusters[i] = node(level[0], [clusters[i], *clusters[g]])
        reps, clusters = reps[kept], clusters[kept]
        if len(clusters) == 1:
            break
    if len(clusters) != 1:
        raise NotUltrametric("distance levels did not merge to a single root")
    return UltrametricTree(A, clusters[0])


def band(T: UltrametricTree) -> UltrametricTree:
    """Insert pass-through nodes so every band height is realized on every
    root-to-leaf path.  Idempotent; entropy is unchanged.  Only here does
    the tolerance apply to bands: an arc gets a pass-through node at a level
    only if it lies more than ``T._tol`` above the node (or pass-through)
    below and more than ``T._tol`` below the parent, so the result validates."""
    levels, lev = _band_levels(T)
    tol = T._tol

    def wrap(i: int, kids: list[TreeNode]) -> TreeNode:
        nd = T._nodes[i]
        out = TreeNode(nd.letter, nd.height, kids, nd.passthrough)
        if i:
            below, top = levels[lev[i]], levels[lev[T._parent[i]]] - tol
            for k in range(lev[i] + 1, lev[T._parent[i]]):  # ascending
                if below + tol < levels[k] < top:
                    below = levels[k]
                    out = TreeNode(height=below, children=(out,), passthrough=True)
        return out

    return UltrametricTree(T.alphabet, T._fold(wrap))


def hu_recursive(T: UltrametricTree, P: Distribution) -> float:
    """Entropy by grouping recursion: the root split contributes
    height * H(split masses), plus the mass-weighted entropies of the
    subtrees under their conditional distributions."""
    if P.alphabet != T.alphabet:
        raise ValidationError("distribution and tree use different alphabets")

    def rec(i: int, parts: list[tuple[float, float]]) -> tuple[float, float]:
        if not parts:
            return P.probs[T._order[T._lo[i]]], 0.0
        mass = math.fsum(w for w, _ in parts)
        if mass <= 0.0:
            return 0.0, 0.0
        split = entropy(w / mass for w, _ in parts)
        inner = math.fsum((w / mass) * h for w, h in parts)
        return mass, T._height[i] * split + inner

    return T._fold(rec)[1]


def hu_nodewise(T: UltrametricTree, P: Distribution) -> float:
    """Entropy as a sum over internal nodes:
    P(A_i) * height(i) * H(children of i | A_i)."""
    masses = T._masses(P)
    total = 0.0
    for i, kids in enumerate(T._kids):
        w = masses[i]
        if kids and w > 0.0:
            total += w * T._height[i] * entropy(masses[c] / w for c in kids)
    return total


def hu_arcwise(T: UltrametricTree, P: Distribution) -> float:
    """Entropy as a sum over arcs: -L_i * P(A_i) * log2 P(A_i), where L_i is
    the height drop from the parent to node i."""
    masses = T._masses(P)
    h, parent = T._height, T._parent
    total = 0.0
    for i in range(1, len(masses)):
        w = masses[i]
        if 0.0 < w < 1.0:
            total += (h[parent[i]] - h[i]) * (-w * math.log2(w))
    return total


def hu_bandwise(T: UltrametricTree, P: Distribution) -> float:
    """Entropy as a sum over horizontal bands of the tree: each band
    contributes its width times the entropy of the partition of the alphabet
    realized at its floor."""
    masses = T._masses(P)
    return math.fsum(
        width * entropy(masses[i] for i in floor) for width, floor in _bands_from(T)
    )


def _bands_from(T: UltrametricTree) -> list[tuple[float, list[int]]]:
    """Horizontal bands of a tree as (width, floor positions) pairs, lowest
    band first.

    The tree is cut at each exact band height, with no tolerance, so the
    widths telescope along every arc.  The floor nodes of the band above
    level k are the nodes at or below level k whose parent lies above it, in
    preorder; their leaf sets partition the alphabet.  The width is the gap
    from level k to level k + 1.
    """
    levels, lev = _band_levels(T)
    floors: list[list[int]] = [[] for _ in levels[1:]]
    for i, p in enumerate(T._parent[1:], 1):
        for k in range(lev[i], lev[p]):
            floors[k].append(i)
    return [(levels[k + 1] - levels[k], floor) for k, floor in enumerate(floors)]


def to_partition_structure(T: UltrametricTree) -> PartitionStructure:
    """The partition structure induced by a normalized tree: one partition
    per band (leaf sets at the band floor) with the band width as measure.

    The structure entropy of the result equals the tree entropy for every
    distribution.  A band whose floor is one block (under a pass-through
    root) splits no letters and is left out, so the total measure is the
    root height, 1, less the widths of such bands.
    """
    if not T.is_normalized:
        raise NotNormalized("tree root height must be 1")
    if len(T.alphabet) < 2:
        raise TooFewLetters("need at least two letters to form partitions")
    bands = _bands_from(T)
    lo, hi = np.array(T._lo), np.array(T._hi)
    labels = np.empty((len(bands), len(T.alphabet)), dtype=np.intp)
    for row, (_, floor) in zip(labels, bands):  # floor nodes run in leaf order
        row[T._order] = np.repeat(np.arange(len(floor)), hi[floor] - lo[floor])
    return PartitionStructure._from_labels(T.alphabet, labels, [width for width, _ in bands])


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
        rhs += w * hu_arcwise(tree_from_distance(D.submatrix(side)), restrict_distribution(P, side))
    return hu_arcwise(T, P), rhs


def tree_equal(T1: UltrametricTree, T2: UltrametricTree, tol: float = HEIGHT_TOL) -> bool:
    """Structural equality up to child order and a height tolerance.

    Position pairs wait on an explicit stack; the children of a pair are
    matched by their first letter in alphabet order (siblings are disjoint).
    """
    if T1.alphabet != T2.alphabet:
        return False

    def children(T: UltrametricTree, i: int) -> list[int]:
        return sorted(T._kids[i], key=lambda c: min(T._order[T._lo[c]:T._hi[c]]))

    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        a, b = T1._nodes[i], T2._nodes[j]
        if a.is_leaf or b.is_leaf:
            if not (a.is_leaf and b.is_leaf and a.letter == b.letter):
                return False
            continue
        if abs(a.height - b.height) > tol * max(1.0, a.height):
            return False
        if len(a.children) != len(b.children):
            return False
        stack.extend(zip(children(T1, i), children(T2, j)))
    return True
