"""Exact rational linear programming used by the combinatorial predicates.

Two entry points back the geometric operations:

* ``convex_combination`` -- Phase-I feasibility of expressing a point as a
  convex combination of given points (closed-hull membership).
* ``max_margin_separation`` -- maximum-margin strict separation of a point
  from a finite point set; infeasibility is exactly closed-hull membership
  (Farkas duality, exercised by the test suite).

The solver is a dense two-phase tableau simplex that stays in the integers
(Edmonds 1967; Bareiss 1968).  Each initial row, the objective row included,
is scaled to integers (``scale_points_to_ints``); an integer tableau T and one
common denominator D (1 at the start, then the last pivot) stand for the
rational tableau.  A pivot on (r, c) replaces each row i != r by
(T[i]*T[r][c] - T[i][c]*T[r]) / D, exact since every entry stays a minor of
the initial matrix, keeps row r and sets D = T[r][c] > 0.  Row i of T is then
the Fraction tableau's row i times D, or times D and its initial scale while
it has never been a pivot row.  A positive row multiple changes no ratio
within a row and no order among objective entries, so every pivot decision,
the optimal vertex and the returned Fractions are the Fraction simplex's;
scaling columns (the point coordinates) would reorder the objective entries
and could change Dantzig's choice.  Pivoting is largest-coefficient, with a
fallback to Bland's rule after a fixed number of iterations that guarantees
termination; ratio-test ties go to the lowest basic variable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantError
from .rational import scale_points_to_ints, to_fraction


def _pivot(tableau, basis, row, col, den) -> int:
    """Fraction-free pivot on (row, col); returns the new common denominator."""
    prow = tableau[row]
    p = prow[col]
    for i, r in enumerate(tableau):
        if i != row:
            f = r[col]
            if f:
                tableau[i] = [(a * p - f * b) // den for a, b in zip(r, prow)]
            else:
                tableau[i] = [a * p // den for a in r]
    basis[row] = col
    return p


def _run_simplex(tableau, basis) -> int:
    """Minimize the objective in the last row of an integer tableau with D = 1
    and a feasible basis (rhs >= 0, each basic column zero off its row and
    positive in it); returns the final D.  Neither LP here is unbounded."""
    nrows = len(tableau) - 1
    ncols = len(tableau[0]) - 1
    dantzig_limit = 4 * (nrows + ncols) + 64
    den, iteration = 1, 0
    while True:
        obj = tableau[nrows][:ncols]
        if iteration < dantzig_limit:
            best = min(obj)
            enter = obj.index(best) if best < 0 else -1  # first most negative
        else:  # Bland: first improving column
            enter = next((j for j, x in enumerate(obj) if x < 0), -1)
        if enter < 0:
            return den
        leave = -1
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                b = tableau[i][-1]  # b/a against the best lb/la, cross-multiplied
                if leave < 0 or b * la < lb * a or (b * la == lb * a and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
        if leave < 0:
            raise InternalInvariantError("simplex reported unbounded")
        den = _pivot(tableau, basis, leave, enter, den)
        iteration += 1


def convex_combination(point, points):
    """Exact coefficients expressing ``point`` as a convex combination.

    Returns a list of Fractions (one per input point, nonnegative, summing
    to one) when ``point`` lies in the closed convex hull, else None.
    """
    p = [to_fraction(c) for c in point]
    pts = [[to_fraction(c) for c in q] for q in points]
    n = len(pts)
    if n == 0:
        return None
    # Equality system: sum_i lam_i * s_i = p ; sum_i lam_i = 1 ; lam >= 0,
    # each row flipped to a nonnegative rhs.
    rows = [[q[k] for q in pts] + [p[k]] for k in range(len(p))]
    rows.append([Fraction(1)] * (n + 1))
    rows = [[-x for x in r] if r[-1] < 0 else r for r in rows]
    m = len(rows)
    # Phase-I objective: minimize the sum of one artificial per row, which
    # is minus the sum of the rows (zero on the artificial columns).
    obj = [-sum(col) for col in zip(*rows)]
    tableau = []
    for i, r in enumerate(rows + [obj]):  # each row, then its artificial's column
        (ints,), scale = scale_points_to_ints([r])
        tableau.append([*ints[:-1], *(scale * (j == i) for j in range(m)), ints[-1]])
    basis = [n + i for i in range(m)]
    den = _run_simplex(tableau, basis)
    if tableau[m][-1] != 0:  # the phase-I optimum is positive
        return None
    lam = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            lam[var] = Fraction(tableau[i][-1], den)
    return lam


def max_margin_separation(point, points):
    """Maximum-margin hyperplane strictly separating ``point`` from ``points``.

    Solves  max t  s.t.  a.s - b >= t for all s,  b - a.p >= t,
    -1 <= a_j <= 1, via the split a = u - v, b = b1 - b2.  The optimum t* is
    positive exactly when ``point`` is outside the closed hull of ``points``;
    in that case returns (normal a, offset b, margin t*), else None.
    """
    p = [to_fraction(c) for c in point]
    pts = [[to_fraction(c) for c in q] for q in points]
    d = len(p)
    if not pts:
        raise ValueError("need at least one point to separate from")
    nvars = 2 * d + 3  # u_1..u_d, v_1..v_d, b1, b2, t
    iu, iv, ib1, ib2, it_ = 0, d, 2 * d, 2 * d + 1, 2 * d + 2
    rows = []  # (coefficients, rhs, row scale), each row then its slack's column
    # -(a.s) + b + t <= 0 for each s, then a.p - b + t <= 0
    for s, sign in [(s, -1) for s in pts] + [(p, 1)]:
        (ints,), scale = scale_points_to_ints([s])
        row = [sign * x for x in ints] + [-sign * x for x in ints]
        rows.append((row + [-sign * scale, sign * scale, scale], 0, scale))
    for j in range(d):  # u_j + v_j <= 1 caps the max-norm of the normal
        row = [0] * nvars
        row[iu + j] = row[iv + j] = 1
        rows.append((row, 1, 1))
    m = len(rows)
    tableau = [r + [scale * (j == i) for j in range(m)] + [b] for i, (r, b, scale) in enumerate(rows)]
    tableau.append([0] * it_ + [-1] + [0] * (m + 1))  # minimize -t
    basis = [nvars + i for i in range(m)]
    den = _run_simplex(tableau, basis)
    values = [0] * nvars
    for i, var in enumerate(basis):
        if var < nvars:
            values[var] = tableau[i][-1]
    if values[it_] <= 0:
        return None
    normal = tuple(Fraction(values[iu + j] - values[iv + j], den) for j in range(d))
    offset = Fraction(values[ib1] - values[ib2], den)
    return normal, offset, Fraction(values[it_], den)
