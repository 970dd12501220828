"""Exact geometric primitives: orientation, signs against spanned
hyperplanes and explicit planes, general position, the planar condition-(G)
audit, simplex containment, and strict hyperplane separation.

All combinatorial predicates run on exact rational arithmetic (floats are
converted losslessly).  Volume and angle estimation live in cones.py and are
deliberately float-only; the split keeps the pipeline's correctness claims
exact while the audits stay statistical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import comb, factorial, lcm

import numpy as np

from . import lp
from .errors import (
    DimensionMismatchError,
    GeneralPositionError,
    InternalInvariantError,
    PreconditionError,
)
from .rational import (
    det_int,
    is_exact,
    matrix_rank_fraction,
    point_to_fractions,
    scale_points_to_ints,
    to_fraction,
)

# Faces per face_cofactors call while a spanned table is built; bounds the
# expansion's memory independently of the number of faces.
COMBINATION_BLOCK = 1 << 12
# cells per block of the callers that score in blocks, so memory does not grow
BLOCK_CELLS = 1 << 18
# row x table cells per ``cofactor_signs`` block: its float temporaries stay in cache
FILTER_CELLS = 1 << 15


def int_array(values) -> np.ndarray:
    """Nested Python ints as an int64 array, or an object array if one does not fit."""
    arr = np.array(values, dtype=object)
    try:
        return arr.astype(np.int64)
    except OverflowError:
        return arr


def _minors(m):
    """Minors of all rows of ``m`` (shape (..., r, c), 1 <= r <= c) keyed by their
    columns: minors of the bottom rows, expanded along the row above."""
    r, c = m.shape[-2:]
    minors = {(j,): m[..., r - 1, j] for j in range(c)}
    for s in range(2, r + 1):
        row = m[..., r - s, :]
        expanded = {}
        for cols in itertools.combinations(range(c), s):
            det = row[..., cols[0]] * minors[cols[1:]]
            for pos in range(1, s):
                term = row[..., cols[pos]] * minors[cols[:pos] + cols[pos + 1 :]]
                det = det + term if pos % 2 == 0 else det - term
            expanded[cols] = det
        minors = expanded
    return minors


def face_cofactors(faces) -> np.ndarray:
    """Signed cofactors c of nonempty integer faces, (..., k, k) -> (..., k+1):
    orientation(q, face), q first, is the sign of c . (1, q).  No minor of the
    rows (1, f_i) or partial sum exceeds k! max(1, max|coordinate|)^k."""
    k = faces.shape[-1]
    bound = max(1, int(faces.max()), -int(faces.min()))
    rows = np.concatenate([np.ones_like(faces[..., :1]), faces], axis=-1)
    minors = _minors(rows.astype(np.int64 if factorial(k) * bound**k < 1 << 63 else object))
    cols = range(k + 1)
    return np.stack([(-1) ** j * minors[tuple(c for c in cols if c != j)] for j in cols], -1)


def homogeneous_rows(points, den):
    """Integer rows h = (w, w den q), least w > 0, of rational points q against
    a table of faces scaled by ``den``: h . c has the sign of c . (1, den q)."""
    rows = []
    for p in map(point_to_fractions, points):
        scale = lcm(den, *(c.denominator for c in p))
        rows.append((scale // den, *(c.numerator * (scale // c.denominator) for c in p)))
    return rows


def float_rows(rows):
    """float64 array of integer rows; an entry of 1024 bits or more becomes inf."""
    try:
        return np.array(rows, dtype=np.float64)
    except OverflowError:
        return np.array([[float(x) if x.bit_length() < 1024 else np.inf for x in r] for r in rows])


def float_table(table):
    """``float_rows(table)`` and its absolute values, stacked as (2, *shape):
    the float side of a cofactor table, kept beside it so that
    ``cofactor_signs`` does not recompute |c| on every call."""
    floats = float_rows(table)
    return np.stack([floats, np.abs(floats)])


def cofactor_signs(rows, table, floats):
    """Signs of h . c, integer rows h against a cofactor table (``floats`` is
    ``float_table(table)``), shape (len(rows), len(table)); and how many were
    recomputed on Python ints, found by one flat scan in row-major order.  Rows
    go in blocks of about FILTER_CELLS cells, whose float temporaries fit in cache.

    Floats decide only proven signs.  With u = 2^-53 and n the row length,
    converting an integer to float64 rounds it by a factor (1+e), |e| <= u (or
    overflows), each product adds one such factor and an n-term sum in any
    order, fused or not, at most n-1; so |fl(h.c) - h.c| <= g S, with
    g = (n+2)u/(1-(n+2)u) and S = sum |h_j c_j|.  The float sum S' of
    |fl(h_j)| |fl(c_j)| rounds each term down by at most (1-u)^(n+2), and
    fl((n+3)u S') >= (n+3)u(1-u) S' >= g S as (n+3)(1-u)(1-(n+2)u)^2 >= n+2
    for n < 2^20.  Every float is an integer, so nothing underflows.  A finite
    fl(h.c) above that bound in absolute value has the sign of h.c; any other
    entry (a zero, a near tie, an overflow) is recomputed exactly.
    """
    return _cofactor_signs(rows, table, floats, None)


def _cofactor_signs(rows, table, floats, zeros):
    """``cofactor_signs``, where the set cells of the boolean mask ``zeros`` (or
    None) are known exact zeros: they are neither filtered nor recomputed."""
    signs = np.empty((len(rows), len(table)), dtype=np.int8)
    fallbacks = 0
    step = max(1, FILTER_CELLS // max(1, len(table)))
    for s in range(0, len(rows), step):
        block, out = rows[s : s + step], signs[s : s + step]
        h = float_rows(block)
        with np.errstate(over="ignore", invalid="ignore"):
            value = h @ floats[0].T
            bound = (floats.shape[-1] + 3) * 2.0**-53 * (np.abs(h) @ floats[1].T)
            decided = np.isfinite(value) & (np.abs(value) > bound)
        if zeros is not None:
            value[zeros[s : s + step]], decided[zeros[s : s + step]] = 0.0, True
        out[...] = (value > 0).astype(np.int8) - (value < 0)
        undecided = np.flatnonzero(~decided).tolist()
        fallbacks += len(undecided)
        for b, f in (divmod(i, len(table)) for i in undecided):
            exact = sum(x * y for x, y in zip(block[b], table[f].tolist()))
            out[b, f] = (exact > 0) - (exact < 0)
    return signs, fallbacks


def plane_table(planes):
    """Integer rows c = L (-offset, normal) of explicit planes normal.x = offset,
    L > 0 the lcm of the plane's denominators, and the L's: against a
    ``homogeneous_rows(points, 1)`` row h = (w, w q), h . c = w L (normal.q - offset)."""
    scaled = [scale_points_to_ints([(-h.offset, *h.normal)]) for h in planes]
    return int_array([row for (row,), _ in scaled]), [scale for _, scale in scaled]


def plane_signs(points, planes):
    """(N, k) int8 signs of normal.q - offset, each point q against each
    explicit plane: one ``cofactor_signs`` call."""
    table, _ = plane_table(planes)
    return cofactor_signs(homogeneous_rows(points, 1), table, float_table(table))[0]


def plane_values(points, plane):
    """Exact normal.q - offset of each point, Fraction(h . c, w L) from the
    integer rows of ``plane_signs``."""
    (c,), (scale,) = plane_table([plane])
    c, rows = c.tolist(), homogeneous_rows(points, 1)
    return [Fraction(sum(x * y for x, y in zip(h, c)), h[0] * scale) for h in rows]


def combination_rows(n, r):
    """``itertools.combinations(range(n), r)`` in order, as an (C(n, r), r)
    int64 array, r >= 1: the rows starting with i are i followed by the suffix
    of the (r-1)-combinations whose first entry exceeds i."""
    combos = np.arange(n).reshape(-1, 1)
    for _ in range(r - 1):
        starts = np.searchsorted(combos[:, 0], np.arange(n), side="right")
        counts = len(combos) - starts
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        combos = np.column_stack(
            (np.repeat(np.arange(n), counts), combos[np.arange(counts.sum()) + shift])
        )
    return combos


def combination_rank(faces, n):
    """Row of each increasing index tuple of ``faces`` (shape (..., r)) in
    ``combination_rows(n, r)``: c_0 < ... < c_{r-1} is row
    C(n,r) - 1 - sum_j C(n-1-c_j, r-j).  No binomial read exceeds C(n,r), so
    clipping the others keeps int64; the table is built once per (n, r)."""
    r = faces.shape[-1]
    return comb(n, r) - 1 - _binomials(n, r)[n - 1 - faces, np.arange(r, 0, -1)].sum(axis=-1)


@lru_cache(maxsize=32)
def _binomials(n, r):  # C(m, k) for m < n and k <= r, clipped at C(n, r)
    return np.array([[min(comb(m, k), comb(n, r)) for k in range(r + 1)] for m in range(n)])


def orientation(points) -> int:
    """Sign of the orientation determinant of d+1 points in R^d.

    Exact for integer, rational and float inputs alike: the points are scaled
    to integers by their common denominator, which keeps the sign, and the
    determinant of their differences is one Bareiss ``det_int``.
    """
    k = len(points)
    d = k - 1
    for p in points:
        if len(p) != d:
            raise DimensionMismatchError(
                f"orientation of {k} points needs dimension {d}, got point of dimension {len(p)}"
            )
    int_pts, _ = scale_points_to_ints(points)
    det = det_int([[a - b for a, b in zip(p, int_pts[0])] for p in int_pts[1:]])
    return (det > 0) - (det < 0)


@dataclass(frozen=True)
class OrientedHyperplane:
    """Hyperplane normal.x = offset; x is on the positive side iff normal.x > offset."""

    normal: tuple
    offset: object

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise PreconditionError("hyperplane normal must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.normal)

    def flipped(self) -> "OrientedHyperplane":
        return OrientedHyperplane(tuple(-c for c in self.normal), -self.offset)

    def as_fractions(self) -> "OrientedHyperplane":
        return OrientedHyperplane(point_to_fractions(self.normal), to_fraction(self.offset))


@dataclass(frozen=True)
class LabeledPointSet:
    """d+1 colored finite point sets in R^d with stable within-color indices.

    Coordinates are exact (int or Fraction); a float is converted losslessly
    by ``create`` or, for files, by ``io.pointset_from_json_dict``."""

    dim: int
    colors: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise PreconditionError("dimension must be positive")
        if len(self.colors) != self.dim + 1:
            raise PreconditionError(
                f"expected {self.dim + 1} colors for dimension {self.dim}, got {len(self.colors)}"
            )
        for i, pts in enumerate(self.colors):
            if not pts:
                raise PreconditionError(f"color {i} is empty")
            for p in pts:
                if len(p) != self.dim:
                    raise DimensionMismatchError("point dimension mismatch")
                if not all(is_exact(c) for c in p):
                    raise PreconditionError("point set contains non-exact coordinates")

    @classmethod
    def create(cls, dim, colors):
        return cls(dim, tuple(tuple(point_to_fractions(p) for p in pts) for pts in colors))

    def sizes(self):
        return tuple(len(pts) for pts in self.colors)

    def union_points(self):
        return [p for pts in self.colors for p in pts]

    def point(self, color, index):
        return self.colors[color][index]

    @cached_property
    def general_position_violation(self):
        """First dependent tuple of ``union_points()`` indices, or None: one
        scan of the C(N,d) spanned cofactor table per instance, kept for every
        stage handed this set (not a field: equality and hashing ignore it).  A
        point added later is checked in O(N^d) with ``spanned_witness``."""
        return find_general_position_violation(self)

    @cached_property
    def spanned_table(self):
        """``spanned_cofactors`` of ``union_points()``, built once per instance."""
        return spanned_cofactors(self.union_points(), self.dim)

    @cached_property
    def rainbow_enumerator(self):
        """``RainbowEnumerator(self)``, rows of ``spanned_table``, built once as above."""
        from .enumeration import RainbowEnumerator  # enumeration imports geometry
        return RainbowEnumerator(self)

    def require_general_position(self) -> None:
        """Raise GeneralPositionError naming the recorded violation, if any."""
        if self.general_position_violation is not None:
            raise GeneralPositionError(
                "input set is not in general position", self.general_position_violation
            )


def _point_list(obj):
    if isinstance(obj, LabeledPointSet):
        return obj.dim, obj.union_points()
    pts = list(obj)
    if not pts:
        raise PreconditionError("empty point collection")
    if len(pts[0]) < 1:
        raise PreconditionError("dimension must be positive")
    return len(pts[0]), pts


def find_general_position_violation(obj):
    """First affinely dependent (<= d+1)-tuple of the given points, or None.

    Affine dependence is monotone under supersets, so with more than d+1
    points it suffices to find the lexicographically first dependent
    (d+1)-tuple (q, face).  Its faces are the rows of one
    ``spanned_cofactors`` table (a ``LabeledPointSet``'s ``spanned_table``,
    shared with the anchor nudge), and those whose first index exceeds q
    form a suffix of it.  Consecutive points q0..q1-1 are scored in one
    ``_cofactor_signs`` call against the suffix of q0, as many as one filter
    block of FILTER_CELLS cells holds (at least one).  The cells (q, face)
    whose face starts at or before q, a prefix of row q, go in as the
    known-zero mask: they hold every face that contains q, an exact zero the
    filter would recompute on Python ints, and are neither filtered nor
    read.  The first zero of the other cells in row-major order is the
    lexicographically first (q, face).
    """
    d, pts = _point_list(obj)
    spanned = obj.spanned_table if isinstance(obj, LabeledPointSet) else None
    return _first_dependent_tuple(pts, d, spanned)


def _first_dependent_tuple(pts, d, spanned):
    """``find_general_position_violation`` of the points in R^d, scanning their
    ``spanned_cofactors`` table ``spanned`` (None builds it when it is read)."""
    n = len(pts)
    if n <= d + 1:
        int_pts, _ = scale_points_to_ints(pts)
        rows = [[a - b for a, b in zip(p, int_pts[0])] for p in int_pts[1:]]
        if rows and matrix_rank_fraction(rows) < n - 1:
            return tuple(range(n))
        return None
    table, den, faces, floats = spanned or spanned_cofactors(pts, d)
    rows = homogeneous_rows(pts[: n - d], den)
    starts = np.searchsorted(faces[:, 0], np.arange(1, n - d + 1)).tolist()
    q0 = 0
    while q0 < n - d:
        s = starts[q0]
        width = len(table) - s
        q1 = min(n - d, q0 + max(1, FILTER_CELLS // width))
        own = np.zeros((q1 - q0, width), dtype=bool)  # faces starting at or before q
        for i, t in enumerate(starts[q0 + 1 : q1], 1):
            own[i, : t - s] = True
        signs, _ = _cofactor_signs(rows[q0:q1], table[s:], floats[:, s:], own)
        if np.count_nonzero(signs) + np.count_nonzero(own) < signs.size:  # masked cells read 0
            q, f = divmod(int(np.flatnonzero((signs == 0) & ~own)[0]), width)
            return (q0 + q, *faces[s + f].tolist())
        q0 = q1
    return None


def spanned_cofactors(points, d):
    """Cofactor table of the hyperplanes spanned by d of the rational points,
    one row per d-tuple of ``combination_rows(len(points), d)`` in that order,
    expanded in slices of COMBINATION_BLOCK faces: (table, den, tuples,
    ``float_table(table)``), with the points scaled to integers by den."""
    n = len(points)
    if n < d:
        raise PreconditionError(f"{n} points span no hyperplane in dimension {d}")
    int_pts, den = scale_points_to_ints(points)
    arr = int_array(int_pts)
    faces = combination_rows(n, d)
    table = np.concatenate(
        [face_cofactors(arr[faces[s : s + COMBINATION_BLOCK]])
         for s in range(0, len(faces), COMBINATION_BLOCK)]
    )
    return table, den, faces, float_table(table)


def spanned_witness(spanned, rows, q):
    """First face among the ``rows`` (an index) of a ``spanned_cofactors`` table
    of points whose hyperplane contains q, or None.  With the points in
    general position every dependent tuple of points + [q] contains q, so
    ``witness + (len(points),)`` is their ``find_general_position_violation``."""
    table, den, faces, floats = spanned
    (signs,), _ = cofactor_signs(homogeneous_rows([q], den), table[rows], floats[:, rows])
    return None if signs.all() else tuple(faces[rows][np.argmin(signs != 0)].tolist())


def in_general_position(obj) -> bool:
    """True iff every <= d+1 of the points are affinely independent (cached by a point set)."""
    if isinstance(obj, LabeledPointSet):
        return obj.general_position_violation is None
    return find_general_position_violation(obj) is None


@dataclass(frozen=True)
class ConditionGResult:
    """Outcome of a condition (G) check: status 'true' or 'false'.

    witness carries the failing tuple of index tuples when status is 'false'.
    """

    status: str
    witness: tuple | None = None
    checked: int = 0


# Two float keys of one rational t/w differ by at most about 6 * 2^-53 of
# their magnitude: int64 t and w round once each on conversion and the
# quotient once more, and Python's int / int rounds once, correctly.  Keys
# farther apart than this bound name distinct points.
_KEY_RTOL = 2.0**-45


def _condition_g_plane(points) -> ConditionGResult:
    """Exact planar condition (G), one spanned line at a time.

    Assumes general position already verified.  Then the only possible
    violations are three pairwise disjoint point pairs whose spanned lines are
    concurrent, and such a triple exists iff its lowest-indexed line i meets
    two later lines disjoint from it at one point (two distinct lines through
    that point can share no input point).  Every point of line i is named by
    one rational t/w, its x coordinate (y when line i is vertical).  The float
    keys t / w of the later lines are sorted, and only keys within _KEY_RTOL
    of a sorted neighbour are compared, as exact Python-int fractions; a
    quotient past the float range leaves the whole line to that comparison.
    Memory stays O(N^2).  Lines are the pairs of
    ``combinations(range(n), 2)`` in order.

    The integer scaling runs in int64 when the worst intermediate, 8 M^3 for
    M = max|coordinate|, stays below 2^63, and on Python ints otherwise.  The
    witness is line i, the lowest-indexed line in any concurrency, then the
    lexicographically first pair of later lines meeting it at one point.  It
    depends only on which lines are concurrent, so both dtypes and any
    scaling give the same witness.  ``checked`` counts the intersections up
    to line i.
    """
    int_pts, _ = scale_points_to_ints(points)
    n = len(int_pts)
    bound = max(abs(c) for p in int_pts for c in p)
    arr = np.array(int_pts, dtype=np.int64 if 8 * bound**3 < 1 << 63 else object)
    supports = combination_rows(n, 2)
    # Lines (p, q) with p > s1 start at first[s1 + 1]; the later lines before
    # that share the point s1 with line (s1, s2).
    first = np.searchsorted(supports[:, 0], np.arange(n + 1))
    pa, pb = arr[supports[:, 0]], arr[supports[:, 1]]
    la = pa[:, 1] - pb[:, 1]
    lb = pb[:, 0] - pa[:, 0]
    lc = pa[:, 0] * pb[:, 1] - pa[:, 1] * pb[:, 0]
    checked = 0
    for i, (s1, s2) in enumerate(supports.tolist()):
        later = supports[first[s1 + 1] :]
        js = first[s1 + 1] + np.flatnonzero((later[:, 0] != s2) & (later[:, 1] != s2))
        a1, b1, c1 = la[i], lb[i], lc[i]
        w = a1 * lb[js] - la[js] * b1
        keep = w != 0
        js, w = js[keep], w[keep]
        if b1 != 0:
            t = b1 * lc[js] - lb[js] * c1
        else:
            t = c1 * la[js] - lc[js] * a1
        checked += len(js)
        try:
            keys = (t / w).astype(np.float64, copy=False)
        except OverflowError:
            keys = np.zeros(len(js))
        if not _close_neighbours(np.sort(keys)).any():
            continue
        order = np.argsort(keys)
        close = np.flatnonzero(_close_neighbours(keys[order]))
        # Equal points have keys linked by close gaps, so they are all here.
        members = np.unique(order[np.concatenate([close, close + 1])])
        pair = _first_equal_pair(t[members].tolist(), w[members].tolist())
        if pair is not None:
            witness = tuple(tuple(supports[k].tolist()) for k in (i, *js[members[pair]]))
            return ConditionGResult("false", witness, checked)
    return ConditionGResult("true", None, checked)


def _close_neighbours(keys):
    """Whether each pair of adjacent sorted keys may name one rational."""
    lo, hi = keys[:-1], keys[1:]
    return hi - lo <= _KEY_RTOL * np.maximum(hi, -lo)


def _first_equal_pair(ts, ws):
    """Lexicographically first index pair [a, b] with ts[a]/ws[a] == ts[b]/ws[b], or None."""
    value = [Fraction(t, w) for t, w in zip(ts, ws)]
    by_value = sorted(range(len(value)), key=value.__getitem__)  # stable: ascending per class
    classes = (list(c)[:2] for _, c in itertools.groupby(by_value, key=value.__getitem__))
    return min((c for c in classes if len(c) == 2), default=None)


def satisfies_condition_G(obj) -> ConditionGResult:
    """Condition (G) for d <= 2, an audit outside the pipeline: general
    position plus empty common intersection of the affine hulls of any d+1
    pairwise disjoint subsets of size <= d.

    Distinct points suffice at d=1.  At d=2 it sorts, for one spanned line at
    a time, float keys of the points where the later disjoint lines meet it
    and compares exactly only the keys too close to tell apart (see
    ``_condition_g_plane``): in int64 when 8 M^3 < 2^63 for M = max|scaled
    coordinate|, on Python ints otherwise.  A planar 'false' names three
    support pairs, the lowest-indexed line in any concurrency first, and
    ``checked`` counts the intersections examined up to that line; a 'true'
    counts all of them.  Above d=2 it raises PreconditionError.
    """
    d, pts = _point_list(obj)
    if d > 2:
        raise PreconditionError(f"condition (G) is checked for d <= 2 only, got d = {d}")
    violation = find_general_position_violation(pts)
    if violation is not None:
        return ConditionGResult("false", (violation,), 0)
    if d == 1:
        return ConditionGResult("true", None, 0)
    return _condition_g_plane(pts)


def point_in_simplex(point, vertices, mode: str = "closed") -> bool:
    """Membership of a point in the simplex spanned by d+1 vertices.

    closed: membership in the convex hull (degenerate simplices allowed,
    decided by an exact convex-combination LP).  open: interior membership
    via d+1 orientation signs; degenerate simplices have empty interior.
    Every sign is one ``det_int``, so this reference stays independent of the
    cofactor filter.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown mode {mode!r}")
    d = len(point)
    if len(vertices) != d + 1:
        raise DimensionMismatchError("simplex needs d+1 vertices")
    if any(len(v) != d for v in vertices):
        raise DimensionMismatchError("simplex vertices must have the point's dimension")
    verts = list(vertices)
    # The full simplex, then the simplex with vertex i replaced by the point.
    tuples = [verts] + [verts[:i] + [point] + verts[i + 1 :] for i in range(d + 1)]
    s_full, *signs = map(orientation, tuples)
    if s_full == 0:
        if mode == "open":
            return False
        return lp.convex_combination(point, tuple(vertices)) is not None
    if mode == "open":
        return all(s == s_full for s in signs)
    return all(s * s_full >= 0 for s in signs)


def strict_separation(point, points):
    """Hyperplane H with point on its negative and every s on its positive side, or None.

    None (infeasible) occurs exactly when the point lies in the closed convex
    hull of ``points``; this is a normal return, not a failure.
    """
    if not points:
        raise PreconditionError("cannot separate from an empty set")
    result = lp.max_margin_separation(point, points)
    if result is None:
        return None
    normal, offset, _margin = result
    h = OrientedHyperplane(normal, offset)
    if plane_signs([point, *points], [h])[:, 0].tolist() != [-1] + [1] * len(points):
        raise InternalInvariantError("separation LP returned an invalid hyperplane")
    return h
