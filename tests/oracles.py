"""Independent reference implementations used as test oracles.

Everything here is computed straight from defining formulas — recursions on
raw dicts, double sums, brute-force enumeration — sharing no computational
path with the library, so agreement between the two is informative.
"""

from __future__ import annotations

import decimal
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


def banded_structure_ref(D) -> list:
    """The banded structure of an ultrametric ``D`` as (blocks, width)
    pairs, lowest band first.

    The distinct distances, with 0, form the levels, with no tolerance.
    The band above a level has the classes of "distance <= level" as
    blocks, and the gap to the next level as width.
    """
    letters = D.alphabet.letters
    dist = dist_dict(D)
    levels = sorted({0.0, *dist.values()})
    out = []
    for level, above in zip(levels, levels[1:]):
        blocks: list[list] = []
        for a in letters:
            for b in blocks:
                if dist[a, b[0]] <= level:
                    b.append(a)
                    break
            else:
                blocks.append([a])
        out.append((frozenset(map(frozenset, blocks)), above - level))
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


def tree_from_distance_ref(D):
    """The tree of an ultrametric ``D`` by pairwise cluster comparison.

    The off-diagonal distances are key-sorted and grouped into levels as the
    library groups them, within the witness's tolerance of each level's
    smallest member, which is the level's height.  At each level the first
    unassigned cluster takes every later unassigned cluster no farther from
    it than the level's largest member, comparing one matrix entry per
    cluster pair."""
    from structent.ultrametric import HEIGHT_TOL, UltrametricTree, leaf, node

    A, m = D.alphabet, D.matrix
    n = len(A)
    if n == 1:
        return UltrametricTree(A, leaf(A.letters[0]))
    values = m[np.triu_indices(n, k=1)].tolist()
    tol = HEIGHT_TOL * max(1.0, max(values))
    groups: list[list[float]] = []
    for v in sorted(values):
        if groups and groups[-1][0] >= v - tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    clusters, reps = [leaf(a) for a in A], list(range(n))
    for level in groups:
        merged, assigned = [], [False] * len(clusters)
        for i in range(len(clusters)):
            if assigned[i]:
                continue
            g = [i]
            for j in range(i + 1, len(clusters)):
                if not assigned[j] and m[reps[i], reps[j]] <= level[-1]:
                    g.append(j)
                    assigned[j] = True
            merged.append(g)
        clusters = [clusters[g[0]] if len(g) == 1 else node(level[0], [clusters[i] for i in g]) for g in merged]
        reps = [reps[g[0]] for g in merged]
        if len(clusters) == 1:
            break
    assert len(clusters) == 1
    return UltrametricTree(A, clusters[0])


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


def d_hat_decimal(left, right, S, P, digits: int = 400) -> float:
    """Split merit by its defining formula, sum of m * (H(s) - H(s join t)
    + H(t)) / H(t) over the partitions s, in ``digits``-digit decimal
    arithmetic, after conditioning on the split's union.  At that precision
    the difference of O(1) entropies keeps a tiny side's terms."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        union = set(left) | set(right)
        prob = {a: decimal.Decimal(p) for a, p in zip(P.alphabet.letters, P.probs) if a in union}
        total = sum(prob.values())
        ln2 = decimal.Decimal(2).ln()

        def H(blocks) -> decimal.Decimal:
            masses = [sum(prob[a] for a in b) / total for b in blocks]
            return -sum(q * q.ln() for q in masses if q > 0) / ln2

        t = [set(left), set(right)]
        ht = H(t)
        out = decimal.Decimal(0)
        for s, m in S.items():
            blocks = [set(c) & union for c in s.components]
            blocks = [b for b in blocks if b]
            joint = [b & side for b in blocks for side in t]
            out += decimal.Decimal(m) * (H(blocks) - H([j for j in joint if j]) + ht)
        return float(out / ht)


def concordance_decimal(t, s, P, digits: int = 400) -> float:
    """C(t, s) by its defining formula (H(s) - H(s join t) + H(t)) / H(t)
    for partitions of any number of blocks, in ``digits``-digit decimal
    arithmetic, ``P`` normalized to its exact sum."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        prob = dict(zip(P.alphabet.letters, map(decimal.Decimal, P.probs)))
        total = sum(prob.values())
        ln2 = decimal.Decimal(2).ln()

        def H(blocks) -> decimal.Decimal:
            masses = [sum(prob[a] for a in b) / total for b in blocks]
            return -sum(q * q.ln() for q in masses if q > 0) / ln2

        tb, sb = ([set(c) for c in x.components] for x in (t, s))
        ht = H(tb)
        return float((H(sb) - H([b & c for b in sb for c in tb if b & c]) + ht) / ht)


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


def conservation_decimal(column, T, gap_mode, digits: int = 60):
    """(H_U, H) of one alignment column, given as a string, by their
    defining formulas in ``digits``-digit decimal arithmetic: each node's
    mass is its leaves' count over the column total, and ``H_U`` sums
    -w log2 w times the arc above every node of mass strictly between 0
    and 1.  Returns the two exact values as ``decimal.Decimal``; an all-gap
    column in skip mode scores 0."""
    observed = [ch for ch in column if gap_mode != "skip" or ch != "-"]
    counts: dict = {}
    for ch in observed:
        counts[ch] = counts.get(ch, 0) + 1
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        zero, total, ln2 = decimal.Decimal(0), decimal.Decimal(len(observed)), decimal.Decimal(2).ln()

        def term(n) -> decimal.Decimal:
            q = decimal.Decimal(n) / total
            return -q * q.ln() / ln2

        h_u = zero

        def walk(nd, above) -> int:
            nonlocal h_u
            n = counts.get(nd.letter, 0) if nd.is_leaf else sum(walk(c, nd.height) for c in nd.children)
            if above is not None and 0 < n < len(observed):
                h_u += (decimal.Decimal(above) - decimal.Decimal(nd.height)) * term(n)
            return n

        walk(T.root, None)
        return +h_u, +sum((term(n) for n in counts.values()), zero)


# --------------------------------------------------------- alignment text


def _clean_residues_ref(seq: str) -> str:
    return seq.upper().replace(".", "-")


def parse_fasta_ref(text: str) -> tuple[tuple, tuple]:
    """(names, rows) of a FASTA text, read one line at a time, each data
    line cleaned on its own and appended to the last record.  Raises the
    library's ``ParseError`` with the same line anchors.  The uppercasing
    is Unicode's, so the two readers agree only on ASCII text."""
    from structent import ParseError

    names: list[str] = []
    chunks: list[list[str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            name = line[1:].split()[0] if line[1:].strip() else ""
            if not name:
                raise ParseError(f"line {ln}: empty sequence name")
            names.append(name)
            chunks.append([])
        else:
            if not names:
                raise ParseError(f"line {ln}: sequence data before any '>' header")
            chunks[-1].append(_clean_residues_ref(line.replace(" ", "")))
    if not names:
        raise ParseError("no FASTA records found")
    return tuple(names), tuple("".join(c) for c in chunks)


def parse_stockholm_ref(text: str) -> tuple[tuple, tuple]:
    """(names, rows) of a Stockholm text, read one line at a time, each
    sequence piece cleaned on its own; as :func:`parse_fasta_ref`, ASCII
    text only."""
    from structent import ParseError

    lines = text.splitlines()
    if not lines or not lines[0].startswith("# STOCKHOLM"):
        raise ParseError("line 1: missing '# STOCKHOLM' header")
    seqs: dict[str, list[str]] = {}
    order: list[str] = []
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("//"):
            break
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {ln}: expected 'name sequence', got {line!r}")
        name, seq = parts
        if name not in seqs:
            seqs[name] = []
            order.append(name)
        seqs[name].append(_clean_residues_ref(seq))
    if not order:
        raise ParseError("no sequence lines found")
    return tuple(order), tuple("".join(seqs[n]) for n in order)


# ------------------------------------------------------------------ Newick


class _NewickCursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        from structent import ParseError

        return ParseError(f"newick position {self.pos + 1}: {msg}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.peek() and self.peek() in " \t\r\n":
            self.pos += 1


def _newick_tail_ref(cur: _NewickCursor):
    """The name and branch length that end a node; length None when absent."""
    start = cur.pos
    while cur.peek() and cur.peek() not in "():,; \t\r\n":
        cur.pos += 1
    name = cur.text[start:cur.pos]
    cur.skip_ws()
    if cur.peek() != ":":
        return name, None
    cur.take()
    start = cur.pos
    while cur.peek() and cur.peek() in "0123456789.eE+-":
        cur.pos += 1
    try:
        x = float(cur.text[start:cur.pos])
        if math.isfinite(x):
            return name, x
    except ValueError:
        pass
    raise cur.error("malformed or non-finite branch length")


def parse_newick_ref(text: str, lengths: str = "arc"):
    """A Newick tree read one character at a time through a cursor with
    ``peek``/``take``/``skip_ws``; the same grammar, checks, messages and
    positions as ``structent.io.parse_newick``."""
    from structent import Alphabet, ParseError, UltrametricTree, ValidationError, leaf, node

    if lengths not in ("arc", "L"):
        raise ValidationError("lengths must be 'arc' or 'L'")
    cur = _NewickCursor(text)
    parent: list[int] = []
    kids: list[list[int]] = []
    tail: list = []
    open_nodes: list[int] = []
    while True:
        cur.skip_ws()
        i = len(parent)
        parent.append(open_nodes[-1] if open_nodes else -1)
        kids.append([])
        tail.append(("", None))
        if open_nodes:
            kids[open_nodes[-1]].append(i)
        if cur.peek() == "(":
            cur.take()
            open_nodes.append(i)
            continue
        while True:
            tail[i] = _newick_tail_ref(cur)
            if not open_nodes:
                break
            cur.skip_ws()
            ch = cur.take()
            if ch == ",":
                break
            if ch != ")":
                raise cur.error(f"expected ',' or ')', got {ch!r}")
            i = open_nodes.pop()
        if not open_nodes:
            break
    cur.skip_ws()
    if cur.take() != ";":
        raise cur.error("expected ';' at end of tree")
    factor = 2.0 if lengths == "arc" else 1.0

    depth = [0.0] * len(parent)
    for i in range(1, len(parent)):
        length = tail[i][1]
        if length is None:
            raise ValidationError("newick: branch length missing on an arc")
        depth[i] = depth[parent[i]] + length
    leaves = [i for i, k in enumerate(kids) if not k]
    dmax = max(depth[i] for i in leaves)
    dmin = min(depth[i] for i in leaves)
    if dmax - dmin > 1e-9 * max(1.0, dmax):
        raise ValidationError(f"newick leaves are not equidistant from the root ({dmin} vs {dmax})")
    if not math.isfinite(factor * (dmax - min(depth))):
        raise ValidationError("newick: the tree height overflows")

    built: list = [None] * len(parent)
    for i in reversed(range(len(parent))):
        if kids[i]:
            built[i] = node(factor * (dmax - depth[i]), [built[c] for c in kids[i]])
        elif not tail[i][0]:
            raise ParseError("newick leaf without a name")
        else:
            built[i] = leaf(tail[i][0])
    return UltrametricTree(Alphabet(tuple(tail[i][0] for i in leaves)), built[0])
