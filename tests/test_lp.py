"""Differential tests of the fraction-free simplex against a Fraction tableau.

``_reference_*`` below is the dense two-phase Fraction simplex that ``lp.py``
ran before it became integer-preserving: the same rows, the same Dantzig
rule with its Bland fallback and the same ratio-test tie-break, with every
entry a Fraction.  A positive scale per row changes no pivot decision, so
both solvers must return exactly equal results, not only equal verdicts.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pachsel import lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tableau, basis, row, col):
    pivot = tableau[row][col]
    tableau[row] = [x / pivot for x in tableau[row]]
    prow = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * b for a, b in zip(r, prow)]
    basis[row] = col


def _run_simplex(tableau, basis):
    nrows = len(tableau) - 1
    ncols = len(tableau[0]) - 1
    dantzig_limit = 4 * (nrows + ncols) + 64
    iteration = 0
    while True:
        obj = tableau[nrows]
        enter = -1
        if iteration < dantzig_limit:
            best = _ZERO
            for j in range(ncols):
                if obj[j] < best:
                    best = obj[j]
                    enter = j
        else:
            for j in range(ncols):
                if obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return
        leave = -1
        best_ratio = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        assert leave >= 0, "reference simplex reported unbounded"
        _pivot(tableau, basis, leave, enter)
        iteration += 1


def _reference_convex_combination(point, points):
    p = [Fraction(c) for c in point]
    pts = [[Fraction(c) for c in q] for q in points]
    n = len(pts)
    if n == 0:
        return None
    rows = [[pts[i][k] for i in range(n)] for k in range(len(p))] + [[_ONE] * n]
    rhs = p + [_ONE]
    m = len(rows)
    tableau = []
    for i in range(m):
        row, b = rows[i][:], rhs[i]
        if b < 0:
            row, b = [-x for x in row], -b
        art = [_ZERO] * m
        art[i] = _ONE
        tableau.append(row + art + [b])
    obj = [_ZERO] * n + [_ONE] * m + [_ZERO]
    for i in range(m):
        obj = [a - b for a, b in zip(obj, tableau[i])]
    tableau.append(obj)
    basis = [n + i for i in range(m)]
    _run_simplex(tableau, basis)
    if tableau[m][-1] != 0:
        return None
    lam = [_ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            lam[var] = tableau[i][-1]
    return lam


def _reference_max_margin_separation(point, points):
    p = [Fraction(c) for c in point]
    pts = [[Fraction(c) for c in q] for q in points]
    d = len(p)
    nvars = 2 * d + 3
    iu, iv, ib1, ib2, it_ = 0, d, 2 * d, 2 * d + 1, 2 * d + 2
    rows = []
    for s, sign in [(s, -1) for s in pts] + [(p, 1)]:
        row = [_ZERO] * nvars
        for j in range(d):
            row[iu + j] = sign * s[j]
            row[iv + j] = -sign * s[j]
        row[ib1], row[ib2], row[it_] = -sign * _ONE, sign * _ONE, _ONE
        rows.append((row, _ZERO))
    for j in range(d):
        row = [_ZERO] * nvars
        row[iu + j] = row[iv + j] = _ONE
        rows.append((row, _ONE))
    m = len(rows)
    tableau = []
    for i, (row, b) in enumerate(rows):
        slack = [_ZERO] * m
        slack[i] = _ONE
        tableau.append(row + slack + [b])
    obj = [_ZERO] * (nvars + m + 1)
    obj[it_] = -_ONE
    tableau.append(obj)
    basis = [nvars + i for i in range(m)]
    _run_simplex(tableau, basis)
    values = [_ZERO] * nvars
    for i, var in enumerate(basis):
        if var < nvars:
            values[var] = tableau[i][-1]
    if values[it_] <= 0:
        return None
    normal = tuple(values[iu + j] - values[iv + j] for j in range(d))
    return normal, values[ib1] - values[ib2], values[it_]


_KINDS = ("random", "duplicates", "vertex", "facet", "flat", "huge")


@st.composite
def lp_instances(draw):
    """(point, points, kind) in dimension 1..3, from one of six shapes:
    random small rationals; repeated points; the point on a vertex; the point
    on a facet of a simplex; all points (and often the point) collinear or
    coplanar; numerators and denominators past 2^63."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(_KINDS))
    if kind == "huge":
        coord = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**66))
    else:
        coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))

    def point():
        return tuple(draw(coord) for _ in range(d))

    n = d + 1 if kind == "facet" else draw(st.integers(1, d + 4))
    if kind == "flat":  # an affine subspace of dimension below d
        base = point()
        dirs = [point() for _ in range(draw(st.integers(0, d - 1)))]

        def flat_point():
            lam = [draw(coord) for _ in dirs]
            return tuple(b + sum(c * v[k] for c, v in zip(lam, dirs)) for k, b in enumerate(base))

        pts = [flat_point() for _ in range(n)]
        p = flat_point() if draw(st.booleans()) else point()
    else:
        pts = [point() for _ in range(n)]
        p = point()
    if kind == "duplicates":
        pts += [draw(st.sampled_from(pts)) for _ in range(draw(st.integers(1, 3)))]
    elif kind == "vertex":
        p = draw(st.sampled_from(pts))
    elif kind == "facet":  # a positive combination of the first d vertices
        weights = [draw(st.integers(1, 5)) for _ in range(d)]
        p = tuple(sum(w * q[k] for w, q in zip(weights, pts)) / sum(weights) for k in range(d))
    return p, pts, kind


def _fractions(*rows):
    return [tuple(Fraction(c) for c in row) for row in rows]


# Degenerate optima (the point shares a coordinate with an input point) on
# which scaling columns instead of rows, either the slack columns or the
# point coordinates, returns another optimal vertex.
_COLUMN_SCALING_BREAKS = [
    (
        _fractions(("55/64", "37/64"))[0],
        _fractions(
            ("-69/128", "7/32"), ("-123/128", "-61/128"), ("79/128", "37/64"),
            ("-25/32", "-65/128"), ("-51/64", "-61/128"),
        ),
        "random",
    ),
    (
        _fractions(("-93/128", "99/128", "-27/64"))[0],
        _fractions(
            ("-117/128", "91/128", "17/128"), ("-5/16", "-5/8", "-27/32"),
            ("-5/64", "-51/128", "49/64"), ("3/32", "65/128", "-33/128"),
            ("-93/128", "7/16", "-25/64"), ("29/64", "7/16", "55/64"),
        ),
        "random",
    ),
]


@settings(max_examples=300, deadline=None)
@given(lp_instances())
@example(_COLUMN_SCALING_BREAKS[0])
@example(_COLUMN_SCALING_BREAKS[1])
def test_max_margin_separation_matches_fraction_reference(instance):
    p, pts, _ = instance
    assert lp.max_margin_separation(p, pts) == _reference_max_margin_separation(p, pts)


@settings(max_examples=300, deadline=None)
@given(lp_instances())
def test_convex_combination_matches_fraction_reference(instance):
    p, pts, kind = instance
    lam = lp.convex_combination(p, pts)
    assert lam == _reference_convex_combination(p, pts)
    if kind in ("vertex", "facet"):  # on the hull's boundary: a member
        assert lam is not None
    if lam is not None:
        assert all(c >= 0 for c in lam) and sum(lam) == 1
        assert all(sum(c * q[k] for c, q in zip(lam, pts)) == p[k] for k in range(len(p)))


def test_huge_coordinates_keep_the_exact_optimum():
    big = 2**64 + 13
    pts = [(Fraction(big), Fraction(0)), (Fraction(0), Fraction(big, 3)), (Fraction(-big), Fraction(-big))]
    p = (Fraction(big, 1), Fraction(big, 1))
    result = lp.max_margin_separation(p, pts)
    assert result == _reference_max_margin_separation(p, pts)
    normal, offset, margin = result
    assert margin > 0
    assert sum(a * c for a, c in zip(normal, p)) - offset <= -margin
