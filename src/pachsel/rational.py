"""Exact scalar utilities: rational coercion, serialization, integer scaling.

Combinatorial predicates in this package run on exact rational arithmetic.
Python floats are admitted as inputs but are converted *losslessly* to
Fraction (every float64 is a dyadic rational), so a float input never
degrades a predicate to approximate arithmetic.

Orientation signs come from one kernel, ``geometry.orientation_signs``, on
points scaled by ``scale_points_to_ints``: int64 when the magnitude proves it
exact, Python ints otherwise.  ``det_int`` gives exact hyperplane cofactors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Scalar = int | Fraction | float


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


def parse_scalar(v) -> Fraction:
    """Parse a JSON value (string "p/q", int, or float) into a Fraction."""
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool):
        raise ValueError(f"not a scalar: {v!r}")
    if isinstance(v, (int, float)):
        return Fraction(v)
    raise ValueError(f"not a scalar: {v!r}")


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
    scaled = [tuple((c * den).numerator for c in p) for p in pts]
    return scaled, den


def det_int(rows) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def matrix_rank_fraction(rows) -> int:
    """Exact rank of a rational matrix."""
    if not rows:
        return 0
    m = [[to_fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            if m[r][col] != 0:
                factor = m[r][col] / pivot
                for c in range(col, ncols):
                    m[r][c] -= factor * m[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def solve_linear_fraction(a_rows, b_col):
    """Solve a nonsingular square rational system exactly; returns a tuple.

    Raises ZeroDivisionError-like ValueError when the matrix is singular.
    """
    n = len(a_rows)
    m = [[to_fraction(x) for x in row] + [to_fraction(b_col[i])] for i, row in enumerate(a_rows)]
    for k in range(n):
        pivot_row = None
        for r in range(k, n):
            if m[r][k] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise ValueError("singular linear system")
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k][k]
        for r in range(n):
            if r != k and m[r][k] != 0:
                factor = m[r][k] / pivot
                for c in range(k, n + 1):
                    m[r][c] -= factor * m[k][c]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def random_fraction(rng, lo, hi) -> Fraction:
    """Uniform-ish rational in [lo, hi] on a grid of 2^20 steps.

    Power-of-two denominators keep common-denominator integer scaling cheap.
    """
    lo_f, hi_f = to_fraction(lo), to_fraction(hi)
    k = rng.randint(0, 1 << 20)
    return lo_f + (hi_f - lo_f) * Fraction(k, 1 << 20)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def squared_norm(u):
    return sum(a * a for a in u)
