"""Exact scalar utilities: rational coercion, serialization, integer scaling.

Combinatorial predicates in this package run on exact rational arithmetic.
Python floats are admitted as inputs but are converted *losslessly* to
Fraction (every float64 is a dyadic rational), so a float input never
degrades a predicate to approximate arithmetic.

Batched orientation signs (general position included) and signs against
explicit planes are integer rows against cofactor tables under the certified
float filter ``geometry.cofactor_signs``; a single tuple's orientation is one
``det_int``.  Determinants, ranks and null vectors share one fraction-free
elimination, ``_echelon``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def to_fraction(x) -> Fraction:
    """Coerce a scalar to Fraction; float conversion is exact (dyadic)."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def point_to_fractions(point) -> tuple:
    return tuple(to_fraction(c) for c in point)


def format_scalar(x) -> str:
    """Serialize an exact scalar as a "p/q" (or plain integer) string."""
    f = to_fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def common_denominator(points) -> int:
    """Least common denominator over all coordinates of an iterable of points."""
    return lcm(*(to_fraction(c).denominator for p in points for c in p))


def scale_points_to_ints(points):
    """Scale rational points to integer coordinate tuples.

    Returns (scaled_points, den) with scaled = coordinate * den. Sign and
    incidence predicates are invariant under this positive scaling, and
    integer determinants are far faster than Fraction ones.
    """
    pts = [point_to_fractions(p) for p in points]
    den = common_denominator(pts)
    scaled = [tuple(c.numerator * (den // c.denominator) for c in p) for p in pts]
    return scaled, den


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns (rows, pivot columns, swap sign).  A column with no pivot is
    skipped; every entry below the pivot rows stays a minor of the input, so
    the divisions stay exact.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    sign = 1
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        r = next((i for i in range(k, len(m)) if m[i][col] != 0), None)
        if r is None:
            continue
        if r != k:
            m[k], m[r] = m[r], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[col]
        for row_i in m[k + 1 :]:
            lead = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[col] = 0
        prev = pivot
        pivots.append(col)
    return m, pivots, sign


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (1 for the empty one)."""
    m, pivots, sign = _echelon(rows)
    return sign * (m[-1][-1] if m else 1) if len(pivots) == len(m) else 0


def matrix_rank_fraction(rows) -> int:
    """Exact rank of a rational matrix; scaling the rows to integers keeps it."""
    return len(_echelon(scale_points_to_ints(rows)[0])[1])


def null_vector(rows) -> tuple:
    """Signed maximal minors of a k x (k+1) integer matrix.

    The result is orthogonal to every row, and it is zero exactly when the
    rows are linearly dependent.
    """
    return tuple(
        (-1) ** c * det_int([r[:c] + r[c + 1 :] for r in rows]) for c in range(len(rows) + 1)
    )


def random_fraction(rng, lo, hi) -> Fraction:
    """Uniform-ish rational in [lo, hi] on a grid of 2^20 steps.

    Power-of-two denominators keep common-denominator integer scaling cheap.
    """
    lo_f, hi_f = to_fraction(lo), to_fraction(hi)
    k = rng.randint(0, 1 << 20)
    return lo_f + (hi_f - lo_f) * Fraction(k, 1 << 20)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def squared_norm(u):
    return sum(a * a for a in u)
