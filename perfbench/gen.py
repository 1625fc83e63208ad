"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: it builds trees, structures,
distributions, alignments and point sets from a ``numpy.random.Generator``
and renders them in the formats the ``structent`` CLI reads.  Nothing calls
into ``structent``, so the inputs do not change when the program does.
"""

from __future__ import annotations

import json

import numpy as np

# The bundled synthetic amino-acid tree: six chemical groups as height-0.25
# clusters under a height-1 root (see data/README.md of the program).
AA_GROUPS = ("AVLIM", "FWY", "STNQ", "KRH", "DE", "CGP")
GAP = "-"


# ------------------------------------------------------------------ trees


class Tree:
    """An ultrametric tree as flat arrays.

    Node 0 is the root.  ``children[i]`` lists the children of node ``i``
    (empty for leaves), ``height[i]`` is its height, and ``leaf_of[i]`` is
    the leaf's index into ``letters`` (-1 for internal nodes).
    """

    def __init__(self, letters, children, height, leaf_of):
        self.letters = letters
        self.children = children
        self.height = height
        self.leaf_of = leaf_of

    @property
    def n(self) -> int:
        return len(self.letters)

    def postorder(self) -> list[int]:
        out, stack = [], [0]
        while stack:
            i = stack.pop()
            out.append(i)
            stack.extend(self.children[i])
        return out[::-1]

    def leaf_sets(self) -> list[np.ndarray]:
        """Leaf indices under every node."""
        sets: list = [None] * len(self.children)
        for i in self.postorder():
            if self.leaf_of[i] >= 0:
                sets[i] = np.array([self.leaf_of[i]])
            else:
                sets[i] = np.concatenate([sets[c] for c in self.children[i]])
        return sets

    def distance(self) -> np.ndarray:
        """Leaf-by-leaf LCA heights."""
        D = np.zeros((self.n, self.n))
        sets = self.leaf_sets()
        for i, kids in enumerate(self.children):
            for a in range(len(kids)):
                for b in range(a + 1, len(kids)):
                    la, lb = sets[kids[a]], sets[kids[b]]
                    D[np.ix_(la, lb)] = self.height[i]
                    D[np.ix_(lb, la)] = self.height[i]
        return D

    def newick(self) -> str:
        """Newick with physical arc lengths (half the height drop), the
        CLI's default ``--lengths arc`` reading."""
        text: dict[int, str] = {}
        for i in self.postorder():
            if self.leaf_of[i] >= 0:
                body = self.letters[self.leaf_of[i]]
            else:
                parts = []
                for c in self.children[i]:
                    arc = 0.5 * float(self.height[i] - self.height[c])
                    parts.append(f"{text.pop(c)}:{arc!r}")
                body = "(" + ",".join(parts) + ")"
            text[i] = body
        return text[0] + ";"


def random_tree(n: int, rng: np.random.Generator, prefix: str = "a") -> Tree:
    """Random recursive binary splits of ``n`` leaves; each child's height
    is its parent's times U(0.3, 0.95) and the root has height 1.  Every
    tree has n - 1 internal nodes of distinct heights, so its banded
    structure always has n - 1 partitions."""
    letters = tuple(f"{prefix}{k}" for k in range(n))
    children: list[list[int]] = [[]]
    height = [1.0]
    leaf_of = [-1]
    stack = [(0, np.arange(n))]
    while stack:
        i, leaves = stack.pop()
        if len(leaves) == 1:
            leaf_of[i] = int(leaves[0])
            height[i] = 0.0
            continue
        while True:
            left = rng.random(len(leaves)) < 0.5
            if 0 < left.sum() < len(leaves):
                break
        for part in (leaves[left], leaves[~left]):
            c = len(children)
            children.append([])
            height.append(height[i] * float(rng.uniform(0.3, 0.95)))
            leaf_of.append(-1)
            children[i].append(c)
            stack.append((c, part))
    return Tree(letters, children, np.array(height), np.array(leaf_of))


def hu_grouping(tree: Tree, probs: np.ndarray) -> float:
    """Tree entropy by the grouping recursion: each internal node adds its
    height times the entropy of its children's conditional masses, weighted
    by its own mass."""
    mass = np.zeros(len(tree.children))
    total = 0.0
    for i in tree.postorder():
        if tree.leaf_of[i] >= 0:
            mass[i] = probs[tree.leaf_of[i]]
            continue
        kids = mass[tree.children[i]]
        mass[i] = kids.sum()
        if mass[i] > 0.0:
            total += mass[i] * tree.height[i] * entropy(kids / mass[i])
    return total


def banded_partitions(D: np.ndarray) -> list[tuple[list[list[int]], float]]:
    """The banded structure of an ultrametric: one partition per band
    between consecutive distinct heights, with the band width as measure.
    The blocks of the band over level ``h`` are the classes of ``D <= h``."""
    levels = np.unique(np.concatenate([[0.0], D[np.triu_indices(len(D), 1)]]))
    out = []
    for lo, hi in zip(levels[:-1], levels[1:]):
        labels = np.full(len(D), -1)
        blocks = []
        for a in range(len(D)):
            if labels[a] < 0:
                members = np.flatnonzero((D[a] <= lo) & (labels < 0))
                labels[members] = len(blocks)
                blocks.append(members.tolist())
        out.append((blocks, float(hi - lo)))
    return out


# --------------------------------------------------- distributions etc.


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def dirichlet(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def random_partition(n: int, rng: np.random.Generator) -> list[list[int]]:
    """Letters dropped into 2..n urns; empty urns discarded, at least two
    blocks kept."""
    while True:
        labels = rng.integers(0, int(rng.integers(2, n + 1)), size=n)
        blocks = [np.flatnonzero(labels == g).tolist() for g in np.unique(labels)]
        if len(blocks) >= 2:
            return blocks


def random_structure(n: int, k: int, rng: np.random.Generator):
    """``k`` random partitions with measures normalized to total 1."""
    w = rng.uniform(0.2, 1.0, size=k)
    w = w / w.sum()
    return [(random_partition(n, rng), float(m)) for m in w]


def label_rows(structure, n: int) -> np.ndarray:
    """Block label of every letter under every partition (k x n)."""
    out = np.zeros((len(structure), n), dtype=np.int64)
    for r, (blocks, _) in enumerate(structure):
        for b, members in enumerate(blocks):
            out[r, members] = b
    return out


# ---------------------------------------------------------- renderings


def distribution_json(letters, probs) -> str:
    return json.dumps({"alphabet": list(letters), "probs": [float(x) for x in probs]})


def structure_json(letters, structure) -> str:
    return json.dumps(
        {
            "alphabet": list(letters),
            "partitions": [
                {"measure": m, "components": [[letters[a] for a in blk] for blk in blocks]}
                for blocks, m in structure
            ],
        }
    )


def joint_json(rows, cols, matrix) -> str:
    return json.dumps(
        {"row_alphabet": list(rows), "col_alphabet": list(cols), "matrix": matrix.tolist()}
    )


def distance_csv(letters, D: np.ndarray) -> str:
    lines = ["," + ",".join(letters)]
    for a, row in zip(letters, D):
        lines.append(a + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def points_csv(points, probs=None) -> str:
    if probs is None:
        return "value\n" + "".join(f"{float(x)!r}\n" for x in points)
    return "value,probability\n" + "".join(
        f"{float(x)!r},{float(p)!r}\n" for x, p in zip(points, probs)
    )


# ------------------------------------------------------------ alignments


def random_alignment(n_rows: int, n_cols: int, rng: np.random.Generator):
    """An alignment whose columns mix four kinds: fully conserved, drawn
    within one chemical group, drawn across groups, and mostly gaps.  The
    first three columns are engineered to score exactly 0, 0.25 and 1 under
    the bundled tree (``n_rows`` must be even).  Returns the rows as a
    ``(n_rows, n_cols)`` array of single characters."""
    if n_rows % 2:
        raise ValueError("engineered columns need an even number of rows")
    aa = np.array(list("".join(AA_GROUPS)))
    groups = [np.array(list(g)) for g in AA_GROUPS]
    cols = []
    half = n_rows // 2
    cols.append(np.full(n_rows, "L"))  # conserved: 0
    cols.append(np.array(["S"] * half + ["T"] * half))  # within a group: 0.25
    cols.append(np.array(["K"] * half + ["D"] * half))  # across groups: 1
    for _ in range(n_cols - 3):
        kind = rng.integers(0, 4)
        if kind == 0:
            col = np.full(n_rows, rng.choice(aa))
            noise = rng.random(n_rows) < 0.02
            col[noise] = GAP
        elif kind == 1:
            g = groups[rng.integers(0, len(groups))]
            col = rng.choice(g, size=n_rows)
        elif kind == 2:
            col = rng.choice(aa, size=n_rows)
        else:
            col = rng.choice(aa, size=n_rows)
            col[rng.random(n_rows) < 0.8] = GAP
        cols.append(col)
    return np.stack(cols, axis=1)


def fasta(names, grid, width: int = 60) -> str:
    out = []
    for name, row in zip(names, grid):
        seq = "".join(row)
        out.append(f">{name}")
        out.extend(seq[k:k + width] for k in range(0, len(seq), width))
    return "\n".join(out) + "\n"


def stockholm(names, grid, block: int = 200) -> str:
    out = ["# STOCKHOLM 1.0", ""]
    pad = max(len(n) for n in names) + 2
    seqs = ["".join(row) for row in grid]
    for k in range(0, len(seqs[0]), block):
        for name, seq in zip(names, seqs):
            out.append(name.ljust(pad) + seq[k:k + block])
        out.append("")
    out.append("//")
    return "\n".join(out) + "\n"
