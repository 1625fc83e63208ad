"""Independent reference implementations used as test oracles.

Everything here is computed straight from defining formulas — recursions on
raw dicts, double sums, brute-force enumeration — sharing no computational
path with the library, so agreement between the two is informative.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np


def entropy_ref(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def binary_entropy_ref(p: float) -> float:
    return entropy_ref([p, 1.0 - p])


# ----------------------------------------------------- ultrametric entropy


def hu_grouping_recursion(letters, dist, probs) -> float:
    """Grouping recursion evaluated directly on a distance dict.

    ``dist[(a, b)]`` is the ultrametric distance, ``probs[a]`` the
    (conditional) probability.  For equal pairwise distances this is
    d * H(P); otherwise letters are clustered by "distance < max" (an
    equivalence relation for ultrametrics) and the recursion

        H_U = dmax * H(P^Y) + sum_B P(B) * H_U(P|B, D|B)

    is applied.
    """
    letters = list(letters)
    if len(letters) <= 1:
        return 0.0
    dmax = max(dist[a, b] for a, b in itertools.combinations(letters, 2))
    if dmax <= 0.0:
        return 0.0
    clusters: list[list] = []
    for a in letters:
        for cl in clusters:
            if dist[a, cl[0]] < dmax - 1e-12 * max(1.0, dmax):
                cl.append(a)
                break
        else:
            clusters.append([a])
    masses = [sum(probs[a] for a in cl) for cl in clusters]
    total = dmax * entropy_ref(masses)
    for cl, m in zip(clusters, masses):
        if m <= 0.0 or len(cl) == 1:
            continue
        sub = {a: probs[a] / m for a in cl}
        total += m * hu_grouping_recursion(cl, dist, sub)
    return total


def banded_structure_ref(D, tol: float = 1e-9) -> list:
    """The banded structure of an ultrametric ``D`` as (blocks, width)
    pairs, lowest band first.

    The distinct distances, with 0, form the levels; a value within
    ``tol * max(1, v)`` of a level's smallest value joins that level.  The
    band above a level has the classes of "distance <= the level's largest
    value" as blocks, and the gap between the means of the two levels as
    width.
    """
    letters = D.alphabet.letters
    dist = dist_dict(D)
    levels: list[list[float]] = []
    for v in sorted({0.0, *dist.values()}):
        if levels and v - levels[-1][0] <= tol * max(1.0, abs(v)):
            levels[-1].append(v)
        else:
            levels.append([v])
    out = []
    for level, above in zip(levels, levels[1:]):
        blocks: list[list] = []
        for a in letters:
            for b in blocks:
                if dist[a, b[0]] <= level[-1]:
                    b.append(a)
                    break
            else:
                blocks.append([a])
        width = sum(above) / len(above) - sum(level) / len(level)
        out.append((frozenset(map(frozenset, blocks)), width))
    return out


def ultrametric_witness_ref(D):
    """The first triple (a, b, c), in row-major order, with
    D(a, b) > max(D(a, c), D(b, c)) + tol, from one n x n x n broadcast; None
    when there is none.  ``tol`` is the library's height tolerance, scaled
    by the largest distance."""
    import numpy as np

    from structent.ultrametric import HEIGHT_TOL

    m = D.matrix
    best = np.maximum(m[:, None, :], m[None, :, :])  # best[a, b, c]
    tol = HEIGHT_TOL * max(1.0, float(m.max() or 1.0))
    bad = best < (m[:, :, None] - tol)
    if not bad.any():
        return None
    return tuple(D.alphabet.letters[k] for k in np.argwhere(bad)[0])


def dist_dict(D) -> dict:
    letters = D.alphabet.letters
    return {
        (a, b): D.matrix[i, j]
        for i, a in enumerate(letters)
        for j, b in enumerate(letters)
    }


# ------------------------------------------------- partition structures


def _block_of(s) -> dict:
    return {a: k for k, c in enumerate(s.components) for a in c}


def reduced_probs_ref(P, s) -> list[float]:
    """Component masses, added letter by letter in alphabet order."""
    block = _block_of(s)
    sums = [0.0] * len(s.components)
    for a, p in zip(P.alphabet.letters, P.probs):
        sums[block[a]] += p
    return sums


def is_separating_ref(S) -> bool:
    """Every pair of letters is split by some positive-measure partition."""
    blocks = [_block_of(s) for s, m in S.items() if m > 0.0]
    return all(
        any(b[x] != b[y] for b in blocks)
        for x, y in itertools.combinations(S.alphabet.letters, 2)
    )


def _merged_items(pairs) -> list:
    """(block set, measure) pairs with equal block sets merged in order of
    first appearance, measures summed in that order."""
    out: dict = {}
    for blocks, m in pairs:
        out[blocks] = out.get(blocks, 0.0) + m
    return list(out.items())


def restrict_structure_ref(S, subset) -> list:
    """Each partition cut down to ``subset``; single-block results dropped."""
    B = set(subset)
    pairs = []
    for s, m in S.items():
        blocks = frozenset(frozenset(a for a in c if a in B) for c in s.components) - {frozenset()}
        if len(blocks) >= 2:
            pairs.append((blocks, m))
    return _merged_items(pairs)


def merge_inseparable_ref(S) -> tuple:
    """Union-find over letter pairs that no positive-measure partition
    separates.  Returns the groups, alphabet-ordered and ordered by first
    letter, and the rewritten structure as (block set, measure) pairs."""
    A = S.alphabet
    parent = {a: a for a in A.letters}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    blocks = [(_block_of(s), m) for s, m in S.items()]
    for a, b in itertools.combinations(A.letters, 2):
        if all(m <= 0.0 or blk[a] == blk[b] for blk, m in blocks):
            parent[find(a)] = find(b)
    groups: dict = {}
    for a in A.letters:
        groups.setdefault(find(a), []).append(a)
    keys = sorted((tuple(g) for g in groups.values()), key=lambda g: A.index_of(g[0]))
    pairs = []
    for blk, m in blocks:
        by_block: dict = {}
        for g in keys:
            by_block.setdefault(blk[g[0]], set()).add(g)
        if len(by_block) >= 2:
            pairs.append((frozenset(frozenset(v) for v in by_block.values()), m))
    return tuple(keys), _merged_items(pairs)


# --------------------------------------------------------- h_s double sums


def hs_double_sum(P, S) -> float:
    """H_S as the explicit double sum over partitions and their components."""
    total = 0.0
    for s, m in S.items():
        for comp in s.components:
            w = sum(P.p(a) for a in comp)
            if w > 0.0:
                total += m * w * math.log2(1.0 / w)
    return total


def reduced_joint(J, sA, sB) -> list[list[float]]:
    rows = [list(c) for c in sA.components]
    cols = [list(c) for c in sB.components]
    out = [[0.0] * len(cols) for _ in rows]
    for i, rc in enumerate(rows):
        for j, cc in enumerate(cols):
            out[i][j] = sum(J.matrix[J.row_alphabet.index_of(a), J.col_alphabet.index_of(b)]
                            for a in rc for b in cc)
    return out


def hs_joint_double_sum(J, SA, SB) -> float:
    total = 0.0
    for sA, mA in SA.items():
        for sB, mB in SB.items():
            red = reduced_joint(J, sA, sB)
            total += mA * mB * entropy_ref([x for row in red for x in row])
    return total


def hs_conditional_double_sum(J, SA, SB, direction: str = "row|col") -> float:
    """Weighted classical conditional entropies of every reduced joint."""
    total = 0.0
    for sA, mA in SA.items():
        for sB, mB in SB.items():
            red = reduced_joint(J, sA, sB)
            joint_h = entropy_ref([x for row in red for x in row])
            if direction == "row|col":
                cond_marg = [sum(row[j] for row in red) for j in range(len(red[0]))]
            else:
                cond_marg = [sum(row) for row in red]
            total += mA * mB * (joint_h - entropy_ref(cond_marg))
    return total


def is_double_sum(J, SA, SB) -> float:
    total = 0.0
    for sA, mA in SA.items():
        for sB, mB in SB.items():
            red = reduced_joint(J, sA, sB)
            rm = [sum(row) for row in red]
            cm = [sum(row[j] for row in red) for j in range(len(red[0]))]
            total += mA * mB * (
                entropy_ref(rm) + entropy_ref(cm)
                - entropy_ref([x for row in red for x in row])
            )
    return total


def dkl_double_sum(P, Q, S) -> float:
    total = 0.0
    for s, m in S.items():
        for comp in s.components:
            wp = sum(P.p(a) for a in comp)
            wq = sum(Q.p(a) for a in comp)
            if wp > 0.0 and wq <= 0.0:
                return math.inf
            if wp > 0.0:
                total += m * wp * math.log2(wp / wq)
    return total


# ------------------------------------------------------------- code length


def expected_set_distance_ref(B, C, dist, probs) -> float:
    wb = sum(probs[b] for b in B)
    wc = sum(probs[c] for c in C)
    if wb > 0.0 and wc > 0.0:
        return sum(
            (probs[b] / wb) * (probs[c] / wc) * dist[b, c] for b in B for c in C
        )
    def w(side, x):
        t = sum(probs[y] for y in side)
        return probs[x] / t if t > 0.0 else 1.0 / len(side)
    return sum(w(B, b) * w(C, c) * dist[b, c] for b in B for c in C)


def mu_recursive_ref(nd, dist, probs) -> float:
    """Def-style recursion: cost of the split plus mass-weighted conditional
    costs of the two sides (`probs` conditional on nd's leaves)."""
    if nd.is_leaf:
        return 0.0
    L, R = sorted(nd.left.leaves), sorted(nd.right.leaves)
    total = expected_set_distance_ref(L, R, dist, probs)
    for child in (nd.left, nd.right):
        if child.is_leaf:
            continue
        m = sum(probs[a] for a in child.leaves)
        if m <= 0.0:
            continue
        sub = {a: probs[a] / m for a in child.leaves}
        total += m * mu_recursive_ref(child, dist, sub)
    return total


def lambda_recursive_ref(nd, dist, probs) -> float:
    if nd.is_leaf:
        return 0.0
    L, R = sorted(nd.left.leaves), sorted(nd.right.leaves)
    wl = sum(probs[a] for a in L)
    wr = sum(probs[a] for a in R)
    tot = wl + wr
    h = binary_entropy_ref(wl / tot) if tot > 0.0 else 0.0
    total = expected_set_distance_ref(L, R, dist, probs) * h
    for child in (nd.left, nd.right):
        if child.is_leaf:
            continue
        m = sum(probs[a] for a in child.leaves)
        if m <= 0.0:
            continue
        sub = {a: probs[a] / m for a in child.leaves}
        total += m * lambda_recursive_ref(child, dist, sub)
    return total


class RefNode:
    """A plain binary code node for :func:`optimize_ref`."""

    def __init__(self, letter=None, left=None, right=None):
        self.letter, self.left, self.right = letter, left, right
        self.is_leaf = left is None
        self.leaves = {letter} if self.is_leaf else left.leaves | right.leaves


def ref_tree(nd) -> RefNode:
    """Copy any node with ``is_leaf``/``letter``/``left``/``right``."""
    if nd.is_leaf:
        return RefNode(letter=nd.letter)
    return RefNode(left=ref_tree(nd.left), right=ref_tree(nd.right))


def ref_codewords(nd, word: str = "") -> dict:
    if nd.is_leaf:
        return {nd.letter: word}
    return {**ref_codewords(nd.left, word + "0"), **ref_codewords(nd.right, word + "1")}


def optimize_ref(root, dist, probs):
    """The rewrite search of ``optimize`` built by brute force.

    Starting from ``root``, each subtree is optimized, then every full binary
    arrangement of the (up to four) grandchild blocks is built and costed
    with :func:`mu_recursive_ref`; the first cheapest wins when it beats the
    unrearranged node by more than 1e-12 relative, and the search restarts
    from it.  Returns the optimized tree and the number of rewrites."""
    done: dict = {}  # id -> node, for nodes already optimized
    rewrites = 0

    def cost(nd) -> float:
        m = sum(probs[a] for a in nd.leaves)
        if m <= 0.0:
            return 0.0
        return m * mu_recursive_ref(nd, dist, {a: probs[a] / m for a in nd.leaves})

    def arrangements(blocks):
        if len(blocks) == 1:
            yield blocks[0]
            return
        first, rest = blocks[0], blocks[1:]
        for k in range(len(rest)):
            for combo in itertools.combinations(range(len(rest)), k):
                left = [first] + [rest[i] for i in combo]
                right = [rest[i] for i in range(len(rest)) if i not in combo]
                for lt in arrangements(left):
                    for rt in arrangements(right):
                        yield RefNode(left=lt, right=rt)

    def opt(nd):
        nonlocal rewrites
        if nd.is_leaf or id(nd) in done:
            return nd
        while True:
            L, R = opt(nd.left), opt(nd.right)
            simple = RefNode(left=L, right=R)
            blocks = ([L] if L.is_leaf else [L.left, L.right]) + (
                [R] if R.is_leaf else [R.left, R.right]
            )
            if len(blocks) > 2:
                base = cost(simple)
                best = min(arrangements(blocks), key=cost)
                if cost(best) < base - 1e-12 * max(1.0, abs(base)):
                    rewrites += 1
                    nd = best
                    continue
            done[id(simple)] = simple
            return simple

    return opt(root), rewrites


def _random_split_ref(items, rng):
    n = len(items)
    while True:
        mask = rng.integers(0, 2, size=n).astype(bool)
        if 0 < mask.sum() < n:
            break
    return [x for x, m in zip(items, mask) if m], [x for x, m in zip(items, mask) if not m]


def random_code_shape_ref(letters, rng):
    """``sampling.random_code_shape`` by recursion: split, then the left
    side, then the right side."""
    if len(letters) == 1:
        return letters[0]
    left, right = _random_split_ref(letters, rng)
    return (random_code_shape_ref(left, rng), random_code_shape_ref(right, rng))


def random_ultrametric_tree_ref(letters, rng, normalized: bool = True):
    """``sampling.random_ultrametric_tree`` by recursion, as nested
    ``(height, left, right)`` tuples with letters at the leaves: the shape
    of :func:`random_code_shape_ref`, then sorted heights in breadth-first
    order."""
    shape = random_code_shape_ref(list(letters), rng)
    internal, queue = [], [shape]
    while queue:
        x = queue.pop(0)
        if isinstance(x, tuple):
            internal.append(x)
            queue.extend(x)
    draws = sorted(rng.uniform(0.05, 1.0, size=len(internal)), reverse=True)
    scale = 1.0 / float(draws[0]) if normalized else 1.0
    height = {id(x): float(h) * scale for x, h in zip(internal, draws)}

    def build(x):
        return (height[id(x)], build(x[0]), build(x[1])) if isinstance(x, tuple) else x

    return build(shape)


def huffman_expected_length(probs) -> float:
    """Expected codeword length of a Huffman code (classical optimum)."""
    if len(probs) == 1:
        return 0.0
    heap = [(p, i, 0.0) for i, p in enumerate(probs)]  # (mass, tiebreak, cost)
    heapq.heapify(heap)
    counter = len(probs)
    while len(heap) > 1:
        p1, _, c1 = heapq.heappop(heap)
        p2, _, c2 = heapq.heappop(heap)
        heapq.heappush(heap, (p1 + p2, counter, c1 + c2 + p1 + p2))
        counter += 1
    return heap[0][2]


def all_code_shapes(letters):
    """Every full binary tree over `letters` as nested pair tuples."""
    letters = list(letters)
    if len(letters) == 1:
        yield letters[0]
        return
    first, rest = letters[0], letters[1:]
    # enumerate subsets of rest joining `first` on the left side
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(range(len(rest)), k):
            left = [first] + [rest[i] for i in combo]
            right = [rest[i] for i in range(len(rest)) if i not in combo]
            if not right:
                continue
            for lt in all_code_shapes(left):
                for rt in all_code_shapes(right):
                    yield (lt, rt)


def state_distance_ref(a, b, S) -> float:
    if a == b:
        return 0.0
    total = 0.0
    for s, m in S.items():
        comp_a = next(i for i, c in enumerate(s.components) if a in c)
        comp_b = next(i for i, c in enumerate(s.components) if b in c)
        if comp_a != comp_b:
            total += m
    return total


# ----------------------------------------------------------------- linear


def h_r_ref(points, probs) -> float:
    """Threshold-sum formula evaluated directly."""
    total = 0.0
    cum = 0.0
    for i in range(len(points) - 1):
        cum += probs[i]
        total += (points[i + 1] - points[i]) * binary_entropy_ref(cum)
    return total


def real_line_joint_ref(points_a, points_b, matrix, notion: str) -> float:
    """A real-line joint notion by the threshold-pair slice-sum loop.

    Cutting after the i-th point of A and the j-th point of B reduces the
    joint to the 2x2 matrix of its four corner block sums.  ``notion``
    picks that matrix's classical value: ``"joint"`` entropy, ``"mutual"``
    information, or the conditional entropy ``"row|col"`` or ``"col|row"``;
    each is weighted by the product of the two gaps."""
    rows, cols = len(points_a), len(points_b)

    def block(r0, r1, c0, c1):
        return sum(matrix[r][c] for r in range(r0, r1) for c in range(c0, c1))

    total = 0.0
    for i in range(1, rows):
        for j in range(1, cols):
            red = [[block(0, i, 0, j), block(0, i, j, cols)], [block(i, rows, 0, j), block(i, rows, j, cols)]]
            hj = entropy_ref([x for row in red for x in row])
            hrow = entropy_ref([sum(row) for row in red])
            hcol = entropy_ref([red[0][k] + red[1][k] for k in range(2)])
            value = {"joint": hj, "mutual": hrow + hcol - hj, "row|col": hj - hcol, "col|row": hj - hrow}[notion]
            gap_a, gap_b = points_a[i] - points_a[i - 1], points_b[j] - points_b[j - 1]
            total += gap_a * gap_b * value
    return total


def h_r_sample_ref(points) -> float:
    n = len(points)
    total = 0.0
    for i in range(1, n):
        gap = points[i] - points[i - 1]
        f = i / n
        total += gap * (f * math.log2(n / i) + (1 - f) * math.log2(n / (n - i)))
    return total


# -------------------------------------------------------------- sequences


def sequence_surprisals(symbol_probs, N):
    """Yield (sequence, -log2 prob) over the full product space."""
    items = list(symbol_probs.items())
    for combo in itertools.product(items, repeat=N):
        seq = tuple(sym for sym, _ in combo)
        p = 1.0
        for _, q in combo:
            p *= q
        yield seq, (-math.log2(p) if p > 0.0 else math.inf)


def typical_count_ref(symbol_probs, N, epsilon):
    h = entropy_ref(symbol_probs.values())
    count = 0
    mass = 0.0
    for _, sur in sequence_surprisals(symbol_probs, N):
        if abs(sur / N - h) <= epsilon + 1e-12:
            count += 1
            mass += 2.0 ** (-sur)
    return count, mass


def surprisal_table_ref(probs, N) -> np.ndarray:
    """-log2 probability of every length-N sequence, in lexicographic order:
    each is the left-to-right sum of its symbols' -log2 p."""
    with np.errstate(divide="ignore"):
        base = -np.log2(np.asarray(probs, dtype=float))
    total = np.zeros(1)
    for _ in range(N):
        total = (total[:, None] + base[None, :]).ravel()
    return total


def _entropy_fsum(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0) + 0.0


def typical_set_enumerated(probs, N, epsilon) -> tuple[int, float]:
    """(count, mass) of the epsilon-typical set, testing every sequence on
    its own surprisal."""
    H = _entropy_fsum(probs)
    sur = surprisal_table_ref(probs, N)
    mask = np.abs(sur / N - H) <= epsilon + 1e-12
    mass = float(np.exp2(-sur[mask]).sum()) if mask.any() else 0.0
    return int(mask.sum()), mass


def equivalence_classes_enumerated(probs, owner, N, epsilon) -> tuple[int, int, int, int]:
    """(typical count, class count, min class size, max class size) of the
    typical pair sequences grouped by projection, over every sequence.
    ``probs`` are the pair symbols' probabilities, ``owner[i]`` the
    partition of pair symbol ``i``."""
    radix = max(owner) + 1
    sym_part = np.asarray(owner, dtype=np.int64)
    with np.errstate(divide="ignore"):
        base = -np.log2(np.asarray(probs, dtype=float))
    sur = np.zeros(1)
    code = np.zeros(1, dtype=np.int64)
    for _ in range(N):
        sur = (sur[:, None] + base[None, :]).ravel()
        code = (code[:, None] * radix + sym_part[None, :]).ravel()
    mask = np.abs(sur / N - _entropy_fsum(probs)) <= epsilon + 1e-12
    if not mask.any():
        return 0, 0, 0, 0
    _, counts = np.unique(code[mask], return_counts=True)
    return int(mask.sum()), len(counts), int(counts.min()), int(counts.max())



# ----------------------------------------------------------- conservation


def _score_column_ref(col, T, gap_mode, threshold, index, reduce_partition):
    """One column scored from its characters, counted one at a time."""
    from structent import AlphabetMismatch, ColumnScore, Distribution, entropy, hu_arcwise, reduce

    n = len(col)
    non_gap = sum(1 for ch in col if ch != "-")
    coverage = non_gap / n
    observed = [ch for ch in col if ch != "-"] if gap_mode == "skip" else list(col)
    flagged = coverage < threshold
    if not observed:
        return ColumnScore(index, 0.0, 0.0, 0.0, None if reduce_partition is None else 0.0, True)
    counts: dict = {}
    for ch in observed:
        if ch not in T.alphabet:
            raise AlphabetMismatch(f"column {index}: letter {ch!r} is not a leaf of the tree")
        counts[ch] = counts.get(ch, 0) + 1
    total = len(observed)
    P = Distribution.from_mapping(T.alphabet, {a: counts.get(a, 0) / total for a in T.alphabet})
    h_red = None
    if reduce_partition is not None:
        h_red = entropy(reduce(P, reduce_partition).probs)
    return ColumnScore(index, coverage, hu_arcwise(T, P), entropy(P.probs), h_red, flagged)


def conservation_score_ref(aln, T, gap_mode, threshold, reduce_partition=None):
    """The ``ColumnScore`` of every column of ``aln``, each column joined
    into a string and its letters counted one by one.  The per-column
    arithmetic is the library's (``Distribution``, ``hu_arcwise``,
    ``entropy``), so equal counts give equal floats.  The caller checks the
    arguments: in extra-letter mode the tree must hold the gap."""
    return tuple(
        _score_column_ref(aln.column(j), T, gap_mode, threshold, j + 1, reduce_partition)
        for j in range(aln.n_cols)
    )
