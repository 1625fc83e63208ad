"""Entropy for states on the real line.

A strictly increasing point set induces a partition structure of threshold
splits: cutting between consecutive points yields a binary partition whose
measure is the gap width.  Every notion here is the corresponding
structure-weighted notion on that induced structure, so the real-line theory
is a special case of the general one.  The joint notions are computed that
way, as the general notions on the two induced structures; the one-sided
notions sum the threshold binaries directly along cumulative masses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .alphabet import Alphabet, Distribution, PartitionStructure
from .errors import (
    DuplicateValues,
    NonMonotoneCdf,
    TooFewPoints,
    ValidationError,
)
from .notions import (
    JointDistribution,
    StructuredJoint,
    binary_entropy,
    h_s_conditional,
    h_s_joint,
    i_s,
    kl_divergence,
)


@dataclass(frozen=True)
class LinearAlphabet:
    """Strictly increasing real points; letters of the induced alphabet are
    the point values themselves."""

    points: tuple[float, ...]

    def __init__(self, points: Sequence[float]):
        pts = tuple(float(x) for x in points)
        if len(pts) < 2:
            raise TooFewPoints("a linear alphabet needs at least two points")
        if not all(map(math.isfinite, pts)) or not math.isfinite(max(pts) - min(pts)):
            raise ValidationError("points must be finite, with a span that fits in a float")
        for x, y in zip(pts, pts[1:]):
            if y == x:
                raise DuplicateValues(f"duplicate point {x!r}")
            if y < x:
                raise ValidationError("points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def is_normalized(self) -> bool:
        return abs((self.points[-1] - self.points[0]) - 1.0) <= 1e-9

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.points)

    def gaps(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.points, self.points[1:]))


def collapse_duplicate_points(
    points: Sequence[float], probs: Sequence[float] | None = None, tol: float = 0.0
) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    """Merge points closer than ``tol`` (exact duplicates by default),
    summing their probabilities.  Returns (points, probs or None)."""
    order = np.argsort(np.asarray(points, dtype=float), kind="stable")
    pts = [float(points[i]) for i in order]
    ps = [float(probs[i]) for i in order] if probs is not None else None
    out_x: list[float] = []
    out_p: list[float] = []
    for k, x in enumerate(pts):
        if out_x and x - out_x[-1] <= tol:
            if ps is not None:
                out_p[-1] += ps[k]
        else:
            out_x.append(x)
            if ps is not None:
                out_p.append(ps[k])
    return tuple(out_x), (tuple(out_p) if ps is not None else None)


def linear_structure(A: LinearAlphabet) -> PartitionStructure:
    """Threshold partitions: cutting after the i-th point has measure equal
    to the gap it crosses.  Separating; normalized iff the range is 1."""
    n = len(A.points)
    cuts = np.arange(n) >= np.arange(1, n)[:, None]  # row i - 1 cuts after point i
    return PartitionStructure._from_labels(A.alphabet, cuts.astype(np.intp), A.gaps())


def _check_linear_dist(A: LinearAlphabet, P: Distribution) -> None:
    if P.alphabet != A.alphabet:
        raise ValidationError("distribution alphabet must be the linear points")


def h_r(A: LinearAlphabet, P: Distribution) -> float:
    """Real-line entropy: sum of gap * h(mass left of the cut)."""
    _check_linear_dist(A, P)
    total = 0.0
    acc = 0.0
    for i, gap in enumerate(A.gaps()):
        acc += P.probs[i]
        total += gap * binary_entropy(min(max(acc, 0.0), 1.0))
    return total


def _induced_joint(A: LinearAlphabet, B: LinearAlphabet, J: JointDistribution) -> StructuredJoint:
    if J.row_alphabet != A.alphabet or J.col_alphabet != B.alphabet:
        raise ValidationError("joint alphabets must be the two linear point sets")
    return StructuredJoint(J, linear_structure(A), linear_structure(B))


def h_r_joint(A: LinearAlphabet, B: LinearAlphabet, J: JointDistribution) -> float:
    """Joint real-line entropy: product-gap weighted entropy of every 2x2
    threshold reduction of the joint."""
    return h_s_joint(_induced_joint(A, B, J))


def i_r(A: LinearAlphabet, B: LinearAlphabet, J: JointDistribution) -> float:
    """Real-line mutual information over threshold pairs."""
    return i_s(_induced_joint(A, B, J))


def h_r_conditional(
    A: LinearAlphabet, B: LinearAlphabet, J: JointDistribution, direction: str = "row|col"
) -> float:
    """Real-line conditional entropy H(A|B) (or H(B|A)), as the general
    structure-weighted conditional on the two induced structures."""
    return h_s_conditional(_induced_joint(A, B, J), direction)


def dkl_r(A: LinearAlphabet, P1: Distribution, P2: Distribution) -> float:
    """Real-line relative entropy: gap-weighted KL between the threshold
    binaries of the two distributions."""
    _check_linear_dist(A, P1)
    _check_linear_dist(A, P2)
    total = 0.0
    acc1 = acc2 = 0.0
    for i, gap in enumerate(A.gaps()):
        acc1 += P1.probs[i]
        acc2 += P2.probs[i]
        term = kl_divergence((acc1, 1.0 - acc1), (acc2, 1.0 - acc2))
        if math.isinf(term):
            return math.inf
        total += gap * term
    return total


def h_r_sample(points: Sequence[float]) -> float:
    """Entropy of a bare sample: the real-line entropy of the points under
    the empirical uniform distribution (mass 1/n each)."""
    pts = LinearAlphabet(sorted(float(x) for x in points)).points
    n = len(pts)
    return math.fsum(
        (pts[i] - pts[i - 1]) * binary_entropy(i / n) for i in range(1, n)
    )


def h_r_limit(cdf: Callable[[float], float], lo: float, hi: float, step: float) -> float:
    """Quantization limit of the real-line entropy: the integral of the
    binary entropy of the cdf, by trapezoid quadrature with the given step.

    The cdf must be non-decreasing on [lo, hi] with cdf(lo) ~ 0 and
    cdf(hi) ~ 1.
    """
    if step <= 0.0 or hi <= lo:
        raise ValidationError("need hi > lo and a positive step")
    xs = np.arange(lo, hi, step)
    xs = np.append(xs, hi)
    fs = np.array([float(cdf(float(x))) for x in xs])
    drops = np.diff(fs) < -1e-12
    if drops.any():
        k = int(np.argmax(drops))
        raise NonMonotoneCdf(f"cdf decreases between x={xs[k]!r} and x={xs[k + 1]!r}")
    if abs(fs[0]) > 1e-6 or abs(fs[-1] - 1.0) > 1e-6:
        raise ValidationError("cdf must run from 0 at lo to 1 at hi")
    hs = np.array([binary_entropy(min(max(f, 0.0), 1.0)) for f in fs])
    return float(0.5 * ((hs[1:] + hs[:-1]) @ np.diff(xs)))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation with two-pass mean subtraction; NaN (with a
    warning) when either coordinate has no variance."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValidationError("correlation needs two equal-length vectors")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    # relative guard: subtracting the mean of a constant vector leaves a tiny
    # rounding residue, so compare the variance against the vector's scale
    if vx <= 1e-28 * max(1e-300, float(x @ x)) or vy <= 1e-28 * max(
        1e-300, float(y @ y)
    ):
        warnings.warn("correlation undefined: a coordinate has zero variance")
        return math.nan
    return float((dx @ dy) / math.sqrt(vx * vy))


def stddev_correlation_sim(
    n_samples: int,
    points_per_sample: int,
    dist: str | Callable[[np.random.Generator, int], np.ndarray] = "uniform",
    seed: int = 0,
) -> float:
    """Correlation between sample entropy and standard deviation.

    Draws ``n_samples`` point samples, min-max normalizes each to [0, 1],
    and returns the Pearson correlation between the per-sample
    :func:`h_r_sample` and the per-sample standard deviation.  ``dist`` may
    be ``"uniform"``, ``"normal"`` (clipped at six standard deviations to
    keep the support bounded), or a callable ``(rng, size) -> points``.
    """
    if points_per_sample < 3:
        raise TooFewPoints("need at least three points per sample")
    if n_samples < 2:
        raise ValidationError("need at least two samples")
    rng = np.random.default_rng(seed)
    if callable(dist):
        draw = dist
    elif dist == "uniform":
        draw = lambda r, k: r.uniform(0.0, 1.0, size=k)
    elif dist == "normal":
        draw = lambda r, k: np.clip(r.standard_normal(k), -6.0, 6.0)
    else:
        raise ValidationError("dist must be 'uniform', 'normal', or a callable")
    hs: list[float] = []
    sds: list[float] = []
    for _ in range(n_samples):
        while True:
            pts = np.sort(np.asarray(draw(rng, points_per_sample), dtype=float))
            span = pts[-1] - pts[0]
            if span <= 0.0:
                continue
            norm = (pts - pts[0]) / span
            if len(np.unique(norm)) == len(norm):
                break
        hs.append(h_r_sample(norm))
        sds.append(float(norm.std()))
    return pearson(hs, sds)
