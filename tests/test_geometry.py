import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pachsel import geometry, lp
from pachsel.errors import DimensionMismatchError, GeneralPositionError, PreconditionError
from pachsel.geometry import (
    COMBINATION_BLOCK,
    LabeledPointSet,
    OrientedHyperplane,
    cofactor_signs,
    combination_rows,
    face_cofactors,
    find_general_position_violation,
    float_table,
    homogeneous_rows,
    int_array,
    in_general_position,
    orientation,
    plane_signs,
    plane_values,
    point_in_simplex,
    satisfies_condition_G,
    spanned_cofactors,
    spanned_witness,
    strict_separation,
)
from pachsel.rational import (
    det_int,
    matrix_rank_fraction,
    null_vector,
    scale_points_to_ints,
    vec_sub,
)

from conftest import general_position_points, random_points, side, value


small_fraction = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=64
)


def test_orientation_examples():
    assert orientation([(0,), (1,)]) == 1
    assert orientation([(0, 0), (1, 0), (0, 1)]) == 1
    assert orientation([(0, 0), (1, 1), (2, 2)]) == 0


def test_orientation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        orientation([(0, 0), (1, 0)])


@settings(max_examples=60)
@given(st.lists(st.tuples(small_fraction, small_fraction), min_size=3, max_size=3))
def test_orientation_antisymmetry(points):
    base = orientation(points)
    swapped = [points[1], points[0], points[2]]
    assert orientation(swapped) == -base


@settings(max_examples=60)
@given(
    st.lists(st.tuples(small_fraction, small_fraction), min_size=3, max_size=3),
    st.tuples(small_fraction, small_fraction),
)
def test_orientation_translation_invariance(points, shift):
    translated = [tuple(c + s for c, s in zip(p, shift)) for p in points]
    assert orientation(translated) == orientation(points)


def test_orientation_float_sign_agrees_on_generic_input():
    pts = [(0.0, 0.0), (1.0, 0.25), (0.5, 2.0)]
    exact = [tuple(Fraction(c) for c in p) for p in pts]
    assert orientation(pts) == orientation(exact)


def test_float_inputs_decided_exactly():
    # 0.5000000000000001 is 1/2 + 2^-53: the three points are not collinear,
    # although a float64 determinant rounds their orientation to zero.
    tri = [(0.5, 0.5000000000000001), (12.0, 12.0), (24.0, 24.0)]
    assert orientation(tri) == 1
    assert in_general_position(tri + [(0.0, 5.0)])


def _det_sign(tup):
    det = det_int([[a - b for a, b in zip(p, tup[0])] for p in tup[1:]])
    return (det > 0) - (det < 0)


@st.composite
def orientation_batches(draw):
    """Tuples of k+1 integer points in Z^k, some planted degenerate."""
    k = draw(st.integers(1, 4))
    hi = 1 << draw(st.sampled_from([4, 20, 31, 62, 80, 1100]))
    coord = st.one_of(st.sampled_from([-hi, 0, hi]), st.integers(-hi, hi))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        tup = [draw(st.tuples(*[coord] * k)) for _ in range(k + 1)]
        kind = draw(st.sampled_from(["generic", "repeat", "affine"]))
        j = draw(st.integers(0, k))
        others = [i for i in range(k + 1) if i != j]
        if kind == "repeat":
            tup[j] = tup[draw(st.sampled_from(others))]
        elif kind == "affine":  # integer weights summing to one
            w = [draw(st.integers(-2, 2)) for _ in others[1:]]
            w = [1 - sum(w)] + w
            tup[j] = tuple(sum(c * tup[i][x] for c, i in zip(w, others)) for x in range(k))
        batch.append(tup)
    return batch


@settings(max_examples=200, deadline=None)
@given(orientation_batches())
def test_orientation_and_scan_match_det_int(batch):
    for tup in batch:
        sign = _det_sign(tup)
        assert orientation(tup) == sign
        # Repeating t_0 makes the set dependent; the scan's first dependent
        # tuple is the whole of t exactly when t is dependent.
        first = find_general_position_violation(tup + [tup[0]])
        assert (first == tuple(range(len(tup)))) == (sign == 0)


@settings(max_examples=200, deadline=None)
@given(orientation_batches())
def test_face_cofactors_give_orientation_against_the_face(batch):
    # orientation(p_0, p_1..p_k) = c(p_1..p_k) . (1, p_0), exactly
    cofactors = face_cofactors(int_array([t[1:] for t in batch])).tolist()
    for tup, c in zip(batch, cofactors):
        value = c[0] + sum(x * y for x, y in zip(c[1:], tup[0]))
        assert (value > 0) - (value < 0) == _det_sign(tup)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("bits", [20, 31, 62, 80, 1100])
def test_orientation_and_scan_at_extreme_coordinates(k, bits):
    # Corner simplices reach |det| = (2 * 2^bits)^k, which wraps in int64 for
    # all but the smallest cases and passes the float range at 2^1100, where
    # every filtered sign of the scan falls back to Python ints.
    hi = 1 << bits
    corner = [(-hi,) * k] + [
        tuple(hi if x == i else -hi for x in range(k)) for i in range(k)
    ]
    swapped = [corner[1], corner[0]] + corner[2:]
    flat = corner[:-1] + [corner[-2]]
    batch = [corner, swapped, flat]
    assert [orientation(t) for t in batch] == [1, -1, 0]
    assert [_det_sign(t) for t in batch] == [1, -1, 0]
    # corner is independent, so the first dependent tuple of corner + [corner[-2]]
    # is the first that holds both copies of corner[-2]
    assert find_general_position_violation(corner + [corner[-2]]) == (*range(k), k + 1)


# ---------------------------------------------------------------------------
# exact elimination


def _fraction_det_rank(rows):
    """Reference: Gaussian elimination over Fractions; (determinant, rank).

    The determinant is only meaningful for a square matrix."""
    m = [[Fraction(x) for x in r] for r in rows]
    det, rank = Fraction(1), 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][col]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return (det if rank == len(m) else 0), rank


@st.composite
def wide_int_matrices(draw):
    """k x (k+1) integer matrices, some rows integer combinations of others."""
    k = draw(st.integers(1, 5))
    rows = [draw(st.lists(st.integers(-9, 9), min_size=k + 1, max_size=k + 1)) for _ in range(k)]
    for j in draw(st.lists(st.integers(0, k - 1), max_size=k, unique=True)):
        w = [draw(st.integers(-3, 3)) for _ in range(k)]
        rows[j] = [sum(c * r[x] for c, r, i in zip(w, rows, range(k)) if i != j) for x in range(k + 1)]
    return rows


@settings(max_examples=300, deadline=None)
@given(wide_int_matrices())
def test_elimination_matches_fraction_reference(rows):
    k = len(rows)
    _, rank = _fraction_det_rank(rows)
    assert matrix_rank_fraction(rows) == rank
    transposed = [list(col) for col in zip(*rows)]
    assert matrix_rank_fraction(transposed) == rank
    minors = [[r[:c] + r[c + 1 :] for r in rows] for c in range(k + 1)]
    for minor in minors:
        assert det_int(minor) == _fraction_det_rank(minor)[0]
    v = null_vector(rows)
    assert v == tuple((-1) ** c * _fraction_det_rank(minors[c])[0] for c in range(k + 1))
    assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
    assert (not any(v)) == (rank < k)


# ---------------------------------------------------------------------------
# general position


def _naive_general_position(points, d):
    """Independent oracle: exact rank check over all subsets of size <= d+1."""
    for k in range(2, min(len(points), d + 1) + 1):
        for combo in itertools.combinations(points, k):
            rows = [vec_sub(p, combo[0]) for p in combo[1:]]
            if matrix_rank_fraction(rows) < k - 1:
                return False
    return True


def test_general_position_examples():
    assert not in_general_position([(0, 0), (1, 1), (2, 2), (5, 0)])
    square_plus_center = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
    assert not in_general_position(square_plus_center)


def test_general_position_perturbed_grid_matches_naive_oracle():
    rng = random.Random(7)
    grid = []
    for i in range(3):
        for j in range(3):
            grid.append(
                (
                    i + Fraction(rng.randint(1, 999), 10007),
                    j + Fraction(rng.randint(1, 999), 10007),
                )
            )
    assert _naive_general_position(grid, 2)
    assert in_general_position(grid)


def test_general_position_agrees_with_naive_on_random_instances():
    rng = random.Random(3)
    for d in (1, 2, 3):
        for _ in range(10):
            pts = random_points(rng, d + 4, d, den=8, box=1)  # coarse: collisions likely
            assert in_general_position(pts) == _naive_general_position(pts, d)


def test_general_position_scan_crosses_block_boundary(monkeypatch):
    # The spanned table is expanded in blocks of COMBINATION_BLOCK faces; the
    # witness's face (95, 99) lies past the first block, and its row 30 past
    # the first block of points the scan scores.
    blocks = []
    scored = geometry._cofactor_signs

    def recorded(rows, *args):
        blocks.append(len(rows))
        return scored(rows, *args)

    monkeypatch.setattr(geometry, "_cofactor_signs", recorded)
    rng = random.Random(11)
    pts = general_position_points(rng, 100, 2)
    pts[99] = tuple((a + b) / 2 for a, b in zip(pts[30], pts[95]))  # (30, 95, 99) collinear
    assert list(itertools.combinations(range(100), 2)).index((95, 99)) >= COMBINATION_BLOCK
    ints, _ = scale_points_to_ints(pts)

    def cross(i, j, k):
        (ax, ay), (bx, by), (cx, cy) = ints[i], ints[j], ints[k]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    naive = next(c for c in itertools.combinations(range(100), 3) if cross(*c) == 0)
    assert naive == (30, 95, 99)
    assert find_general_position_violation(pts) == naive
    assert len(blocks) > 1 and 1 < blocks[0] <= 30 and sum(blocks) > 30


@st.composite
def scan_instances(draw):
    """More than d+1 points in d = 1..3, some replaced by an integer affine
    combination of d points (a repeat when the weights pick one), divided by
    1 or 3 and scaled by 1, 2^62 or 2^1100."""
    d = draw(st.integers(1, 3))
    coord = st.integers(-1 << 10, 1 << 10)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 2, max_size=d + 7))
    index = st.integers(0, len(pts) - 1)
    for _ in range(draw(st.integers(0, 2))):
        span = draw(st.lists(index, min_size=d, max_size=d, unique=True))
        w = [draw(st.integers(-2, 2)) for _ in span[1:]]
        w = [1 - sum(w)] + w
        pts[draw(index)] = tuple(sum(c * pts[i][x] for c, i in zip(w, span)) for x in range(d))
    scale = Fraction(draw(st.sampled_from([1, 1 << 62, 1 << 1100])), draw(st.sampled_from([1, 3])))
    return [tuple(scale * c for c in p) for p in pts]


@settings(max_examples=300, deadline=None)
@given(scan_instances())
def test_general_position_scan_matches_det_int_scan(points):
    # reference: every (d+1)-tuple in lexicographic order, one det_int each
    ints, _ = scale_points_to_ints(points)
    tuples = itertools.combinations(range(len(ints)), len(ints[0]) + 1)
    first = next((t for t in tuples if _det_sign([ints[i] for i in t]) == 0), None)
    assert find_general_position_violation(points) == first
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "FILTER_CELLS", 1)  # the scan's block budget: one point a block
        assert find_general_position_violation(points) == first


def test_general_position_scan_recomputes_no_own_face(monkeypatch):
    """A block of points meets, in the faces of its first point's suffix, the
    faces that contain its later points: exact zeros, which the scan masks.
    On small integer coordinates floats decide every other cell, so a scan
    of a set in general position recomputes nothing on Python ints."""
    fallbacks, blocks = [], []
    scored = geometry._cofactor_signs

    def counted(rows, *args):
        signs, count = scored(rows, *args)
        fallbacks.append(count)
        blocks.append(len(rows))
        return signs, count

    monkeypatch.setattr(geometry, "_cofactor_signs", counted)
    rng = random.Random(5)
    for d, n, box in [(1, 30, 10_000), (2, 30, 1000), (3, 14, 100)]:
        pts = general_position_points(rng, n, d, den=1, box=box)
        assert find_general_position_violation(pts) is None
    assert max(blocks) > 2 and sum(fallbacks) == 0


def test_combination_rows_match_itertools():
    for n, r in itertools.product(range(13), range(1, 5)):
        assert combination_rows(n, r).tolist() == [list(c) for c in itertools.combinations(range(n), r)]


def test_combination_rows_past_one_expansion_block():
    rows = combination_rows(40, 3)
    assert len(rows) > COMBINATION_BLOCK
    assert rows.tolist() == [list(c) for c in itertools.combinations(range(40), 3)]


def test_spanned_cofactors_need_d_points():
    with pytest.raises(PreconditionError, match="span no hyperplane"):
        spanned_cofactors([(0, 0, 0), (1, 2, 3)], 3)
    assert len(spanned_cofactors([(0, 0, 0), (1, 2, 3), (4, 0, 1)], 3)[0]) == 1


def test_general_position_small_sets():
    assert in_general_position([(0, 0, 0), (1, 0, 0)])
    assert not in_general_position([(0, 0, 0), (0, 0, 0)])
    assert in_general_position([(0, 0), (1, 0), (0, 1)])


@st.composite
def new_point_instances(draw):
    """A union in general position in d = 1..3 and a query point that is
    random, planted on a spanned hyperplane or equal to an input point, on the
    int64 path, scaled by 2^62 onto the object path or by 2^1100 past the
    float range, where every filtered sign falls back to Python ints."""
    d = draw(st.integers(1, 3))
    coord = st.integers(-1 << 10, 1 << 10)
    union = draw(st.lists(st.tuples(*[coord] * d), min_size=d, max_size=d + 5, unique=True))
    assume(find_general_position_violation(union) is None)
    kind = draw(st.sampled_from(["random", "planted", "input"]))
    if kind == "random":
        q = draw(st.tuples(*[coord] * d))
    elif kind == "input":
        q = draw(st.sampled_from(union))
    else:  # an integer affine combination of d input points
        span = draw(st.lists(st.sampled_from(union), min_size=d, max_size=d, unique=True))
        w = [draw(st.integers(-2, 2)) for _ in span[1:]]
        w = [1 - sum(w)] + w
        q = tuple(sum(c * p[x] for c, p in zip(w, span)) for x in range(d))
    scale = draw(st.sampled_from([1, 1 << 62, 1 << 1100]))
    return [tuple(scale * c for c in p) for p in union], tuple(scale * c for c in q)


@settings(max_examples=150, deadline=None)
@given(new_point_instances())
def test_spanned_violation_matches_full_scan(instance):
    union, q = instance
    spanned = spanned_cofactors(union, len(q))
    witness = spanned_witness(spanned, slice(None), q)
    full = find_general_position_violation(union + [q])
    assert (None if witness is None else witness + (len(union),)) == full
    table, den, _, floats = spanned
    (signs,), _ = cofactor_signs(homogeneous_rows([q], den), table, floats)
    spans = itertools.combinations(union, len(q))
    # moving q from first to last multiplies each sign by (-1)^d
    assert (signs * (-1) ** len(q)).tolist() == [_det_sign([*span, q]) for span in spans]
    assert bool(signs.all()) == (full is None)


def test_labeled_point_set_records_general_position_once(monkeypatch):
    from pachsel import geometry

    ps = LabeledPointSet.create(2, [[(0, 0), (4, 1)], [(1, 1), (2, 9)], [(3, 3), (8, 1)]])
    twin = LabeledPointSet.create(2, ps.colors)
    calls = []
    scan = geometry.find_general_position_violation

    def counted(obj):
        calls.append(obj)
        return scan(obj)

    monkeypatch.setattr(geometry, "find_general_position_violation", counted)
    assert ps.general_position_violation == (0, 2, 4)  # (0,0), (1,1), (3,3)
    assert ps.general_position_violation == (0, 2, 4)
    with pytest.raises(GeneralPositionError, match=r"\(0, 2, 4\)"):
        ps.require_general_position()
    assert len(calls) == 1
    assert ps == twin and hash(ps) == hash(twin)


# ---------------------------------------------------------------------------
# condition (G)


def _naive_condition_g(points, d):
    """Brute force over all tuples of d+1 disjoint subsets of sizes 1..d."""
    if not in_general_position(points):
        return False
    n = len(points)
    subsets = []
    for k in range(1, d + 1):
        subsets.extend(itertools.combinations(range(n), k))
    for tup in itertools.combinations(subsets, d + 1):
        flat = [i for part in tup for i in part]
        if len(set(flat)) != len(flat):
            continue
        if _two_rank_affine_hulls_intersect([[points[i] for i in part] for part in tup]):
            return False
    return True


def _two_rank_affine_hulls_intersect(point_groups):
    """Reference: the affine-combination system is consistent iff its
    coefficient matrix and augmented matrix have one rank.  The points are
    first scaled to integers by one common denominator, which scales every
    hull by the same positive factor."""
    den = math.lcm(*(Fraction(c).denominator for g in point_groups for p in g for c in p))
    d = len(point_groups[0][0])
    ncols = d + sum(len(g) for g in point_groups)
    rows, rhs, offset = [], [], d
    for g in point_groups:
        for k in range(d):
            row = [0] * ncols
            row[k] = -1
            for j, s in enumerate(g):
                row[offset + j] = int(Fraction(s[k]) * den)
            rows.append(row)
            rhs.append(0)
        row = [0] * ncols
        row[offset : offset + len(g)] = [1] * len(g)
        rows.append(row)
        rhs.append(1)
        offset += len(g)
    augmented = [r + [b] for r, b in zip(rows, rhs)]
    return _integer_rank(rows) == _integer_rank(augmented)


def _integer_rank(rows):
    """Reference rank over Q: division-free elimination on Python ints."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                m[i] = [a * top[col] - m[i][col] * b for a, b in zip(m[i], top)]
        rank += 1
    return rank


def test_condition_g_concurrent_lines_is_false():
    pts = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1)]
    res = satisfies_condition_G(pts)
    assert res.status == "false"
    assert res.witness is not None
    assert not _naive_condition_g(pts, 2)


def test_condition_g_d1_distinct_points():
    assert satisfies_condition_G([(0,), (1,), (Fraction(7, 2),)]).status == "true"


def test_condition_g_perturbed_grid_matches_naive():
    rng = random.Random(11)
    grid = []
    for i in range(3):
        for j in range(3):
            grid.append(
                (
                    i + Fraction(rng.randint(1, 999), 9973),
                    j + Fraction(rng.randint(1, 999), 9973),
                )
            )
    res = satisfies_condition_G(grid)
    assert res.status == "true"
    assert _naive_condition_g(grid, 2)


def test_condition_g_agrees_with_naive_on_coarse_random_instances():
    rng = random.Random(5)
    for _ in range(8):
        pts = random_points(rng, 6, 2, den=4, box=1)
        if not in_general_position(pts):
            continue
        assert (satisfies_condition_G(pts).status == "true") == _naive_condition_g(pts, 2)


def test_condition_g_above_the_plane_is_refused():
    pts = general_position_points(random.Random(9), 8, 3)
    with pytest.raises(PreconditionError, match="d <= 2"):
        satisfies_condition_G(pts)


def test_condition_g_implies_general_position(rng):
    for d in (1, 2):
        for _ in range(10):
            pts = random_points(rng, d + 5, d)
            if satisfies_condition_G(pts).status == "true":
                assert in_general_position(pts)


def _groups(points, parts):
    return [[points[i] for i in part] for part in parts]


def _planted_concurrency(center, directions, steps):
    """Three disjoint pairs, pair k on the line through center along directions[k]."""
    return [
        tuple(c + s * v for c, v in zip(center, d))
        for d, pair in zip(directions, steps)
        for s in pair
    ]


def _assert_planar_witness(pts, res):
    """A planar 'false' under general position names three concurrent disjoint pairs."""
    assert len(res.witness) == 3
    assert all(len(pair) == 2 for pair in res.witness)
    assert len({i for pair in res.witness for i in pair}) == 6
    assert _two_rank_affine_hulls_intersect(_groups(pts, res.witness))


small_coord = st.integers(-30, 30)
small_point = st.tuples(small_coord, small_coord)


@st.composite
def planar_sets(draw):
    """3 to 7 integer points, or one of them plus a planted concurrency (three
    disjoint pairs on lines through a rational point) in a drawn order."""
    pts = draw(st.lists(small_point, min_size=3, max_size=7))
    if draw(st.booleans()):
        center = (Fraction(draw(small_coord), draw(st.integers(1, 5))), Fraction(draw(small_coord)))
        direction = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: v != (0, 0))
        step_pair = st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=2, unique=True)
        planted = _planted_concurrency(
            center,
            draw(st.lists(direction, min_size=3, max_size=3)),
            draw(st.lists(step_pair, min_size=3, max_size=3)),
        )
        pts = draw(st.permutations(pts[:1] + planted))
    return pts


@settings(max_examples=60, deadline=None)
@given(planar_sets())
def test_planar_condition_g_matches_naive(pts):
    assume(in_general_position(pts))
    res = satisfies_condition_G(pts)
    assert (res.status == "true") == _naive_condition_g(pts, 2)
    if res.status == "false":
        _assert_planar_witness(pts, res)


def _condition_g_true_prefix(n, seed):
    pts = general_position_points(random.Random(seed), n, 2)
    assert satisfies_condition_G(pts).status == "true"
    return pts


def test_planar_condition_g_late_violation():
    prefix = _condition_g_true_prefix(40, 23)
    directions = [(1, 0), (1, 3), (-2, 5)]
    planted = _planted_concurrency((Fraction(1, 7), Fraction(-2, 7)), directions, [(-1, 1)] * 3)
    pts = prefix + planted
    assert in_general_position(pts)
    res = satisfies_condition_G(pts)
    assert res.status == "false"
    assert res.witness == ((40, 41), (42, 43), (44, 45))
    _assert_planar_witness(pts, res)
    # Every line before (40, 41) was intersected with all later disjoint lines.
    assert res.checked > satisfies_condition_G(prefix).checked


def test_planar_condition_g_large_coordinates_keep_verdict_and_witness():
    """Scaling by 2^30 pushes 8 M^3 past 2^63, onto Python ints; by 10^120
    the products t and w of a key t / w pass the float range, and by 10^320
    the quotients do too, so every line is left to the exact comparison."""
    violation = _condition_g_true_prefix(12, 29) + _planted_concurrency(
        (Fraction(3, 5), Fraction(1, 3)), [(2, 1), (0, 1), (-1, 4)], [(-1, 2), (1, 2), (-2, 1)]
    )
    for scale, pts in itertools.product(
        (1 << 30, 10**120, 10**320), (_condition_g_true_prefix(20, 31), violation)
    ):
        scaled = [tuple(c * scale for c in p) for p in pts]
        int_scaled, _ = scale_points_to_ints(scaled)
        assert 8 * max(abs(c) for p in int_scaled for c in p) ** 3 >= 1 << 63
        small, large = satisfies_condition_G(pts), satisfies_condition_G(scaled)
        assert (large.status, large.witness, large.checked) == (
            small.status,
            small.witness,
            small.checked,
        )
    assert small.status == "false"
    _assert_planar_witness(scaled, large)
    with pytest.raises(OverflowError):
        int_scaled[0][0] / 1


def test_planar_condition_g_near_concurrency_within_float_bound_is_true():
    """Lines (2, 3) and (4, 5) cross line (0, 1), the x axis, at
    1024 + 1/524287 and 1024 + 1/524288: distinct points whose float keys
    differ by about 2^-48 of their size, inside the filter's 2^-45, on the
    int64 path."""
    pts = [(0, 0), (1, 0), (1024, -1), (1025, 524286), (1023, -1), (525312, 524287)]
    assert 8 * 525312**3 < 1 << 63
    x1, x2 = 1024 + Fraction(1, 524287), 1024 + Fraction(1, 524288)
    assert float(x1) != float(x2)
    assert abs(float(x1) - float(x2)) <= 2.0**-45 * float(x1)
    assert in_general_position(pts)
    assert satisfies_condition_G(pts).status == "true"
    assert _naive_condition_g(pts, 2)


@pytest.mark.parametrize(
    "pts",
    [
        # Line (2, 3) meets the x axis, line (0, 1), at t/w = 1/3, line (4, 5) at -2/-6.
        [(0, 0), (1, 0), (0, -1), (1, 2), (-3, 4), (2, -2)],
        # Both meet line (0, 1) at x = 125945, as t/w = 13479406657587875/107026135675
        # and 5138001983688125/40795601125: int64 keys whose float quotients differ.
        [(223231, -170597), (-19984, 155123), (218871, 11261),
         (-13444, -117664), (206687, -47800), (72117, -35315)],
    ],
)
def test_planar_condition_g_equal_points_from_different_keys(pts):
    """One rational reached through two unreduced (t, w) pairs on the int64 path."""
    assert 8 * max(abs(c) for p in pts for c in p) ** 3 < 1 << 63
    res = satisfies_condition_G(pts)
    assert res.witness == ((0, 1), (2, 3), (4, 5))
    _assert_planar_witness(pts, res)


def test_planar_condition_g_vertical_line_and_zero_key():
    """Line (0, 1) is the y axis, so its points are keyed by y; lines (2, 3)
    and (4, 5) meet it at the origin, key 0, or at y = 2/7 once moved."""
    pts = [(0, -2), (0, 3), (-1, -1), (1, 1), (-3, 2), (3, -2)]
    res = satisfies_condition_G(pts)
    assert res.witness == ((0, 1), (2, 3), (4, 5))
    _assert_planar_witness(pts, res)
    moved = pts[:5] + [(4, -2)]
    assert in_general_position(moved)
    assert satisfies_condition_G(moved).status == "true"
    assert _naive_condition_g(moved, 2)


@pytest.mark.parametrize(
    "pts, status", [([(0, 0)], "true"), ([(0, 0), (1, 0)], "true"),
                    ([(0, 0), (1, 0), (0, 1)], "true"), ([(0, 0), (1, 1), (2, 2)], "false")]
)
def test_planar_condition_g_fewer_than_four_points(pts, status):
    """No two disjoint lines exist, so only general position can fail."""
    res = satisfies_condition_G(pts)
    assert (res.status, res.checked) == (status, 0)
    assert (res.status == "true") == _naive_condition_g(pts, 2)


def test_planar_condition_g_memory_is_quadratic():
    pts = general_position_points(random.Random(37), 45, 2, den=1 << 17, box=1)
    tracemalloc.start()
    try:
        satisfies_condition_G(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy reports its buffers to tracemalloc; stacking all O(N^4)
    # intersection keys peaks near 48 MiB here.
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# simplex containment


def test_point_in_simplex_examples():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert point_in_simplex((Fraction(1, 3), Fraction(1, 3)), tri, "open")
    assert not point_in_simplex((0, 0), tri, "open")
    assert point_in_simplex((0, 0), tri, "closed")
    assert not point_in_simplex((10, 10), tri, "closed")


def test_degenerate_simplex_has_empty_interior_but_closed_hull():
    seg = [(0, 0), (2, 2), (1, 1)]  # collinear
    assert not point_in_simplex((1, 1), seg, "open")
    assert point_in_simplex((1, 1), seg, "closed")
    assert not point_in_simplex((1, 0), seg, "closed")


def test_point_in_simplex_agrees_with_convex_combination_lp(rng):
    for d in (1, 2, 3):
        for _ in range(1000):
            verts = random_points(rng, d + 1, d, den=32, box=1)
            p = random_points(rng, 1, d, den=32, box=1)[0]
            via_lp = lp.convex_combination(p, verts) is not None
            assert point_in_simplex(p, verts, "closed") == via_lp


def test_convex_combination_coefficients_are_valid():
    verts = [(0, 0), (2, 0), (0, 2)]
    lam = lp.convex_combination((Fraction(1, 2), Fraction(1, 2)), verts)
    assert lam is not None
    assert sum(lam) == 1
    assert all(x >= 0 for x in lam)
    rebuilt = tuple(
        sum(l * Fraction(v[k]) for l, v in zip(lam, verts)) for k in range(2)
    )
    assert rebuilt == (Fraction(1, 2), Fraction(1, 2))


# ---------------------------------------------------------------------------
# strict separation


def test_strict_separation_line_example():
    h = strict_separation((0,), [(1,), (2,)])
    assert h is not None
    assert side(h, (0,)) < 0
    assert side(h, (1,)) > 0 and side(h, (2,)) > 0


def test_strict_separation_infeasible_cases():
    pts = [(0, 0), (2, 0), (0, 2)]
    centroid = (Fraction(2, 3), Fraction(2, 3))
    assert strict_separation(centroid, pts) is None
    assert strict_separation((0, 0), pts) is None  # on the hull boundary
    assert strict_separation((Fraction(1, 2), Fraction(1, 2)), pts) is None


def _caratheodory_hull_membership(point, points, d):
    """LP-free oracle: some (d+1)-subset's closed simplex contains the point.

    Valid whenever the points are in general position (no degenerate
    subsets), which the caller ensures.
    """
    for combo in itertools.combinations(points, d + 1):
        if point_in_simplex(point, list(combo), "closed"):
            return True
    return False


def test_separation_farkas_duality_small(rng):
    for d in (1, 2, 3):
        for _ in range(40):
            pts = general_position_points(rng, d + 4, d, den=64, box=1)
            p = random_points(rng, 1, d, den=64, box=1)[0]
            separated = strict_separation(p, pts) is not None
            inside = _caratheodory_hull_membership(p, pts, d)
            assert separated == (not inside)


def _cofactor_plane(int_points):
    """Integer (normal, offset) of the face-cofactor plane -c[1:] . x = c[0]."""
    c = face_cofactors(np.array(int_points)).tolist()
    return tuple(-x for x in c[1:]), c[0]


def test_hyperplane_through_points():
    h = OrientedHyperplane(*_cofactor_plane([(1, 0), (0, 1)]))
    assert side(h, (1, 0)) == 0 and side(h, (0, 1)) == 0
    assert side(h, (0, 0)) != 0
    # a repeated point spans no hyperplane: the normal is zero
    assert _cofactor_plane([(0, 0), (0, 0)])[0] == (0, 0)


def _det_laplace(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _det_laplace([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hyperplane_through_rational_points_is_the_fraction_cofactor_plane(rng, d):
    # Reference: signed minors of the rational difference matrix, offset n.p_0.
    # The cofactors of the points scaled by den to integers carry den^(d-1)
    # in the normal and den^d in the offset.
    for _ in range(5):
        pts = general_position_points(rng, d, d, den=97 * 64)
        diffs = [vec_sub(p, pts[0]) for p in pts[1:]]
        normal = tuple(
            (-1) ** k * _det_laplace([r[:k] + r[k + 1 :] for r in diffs]) for k in range(d)
        )
        int_pts, den = scale_points_to_ints(pts)
        int_normal, int_offset = _cofactor_plane(int_pts)
        assert int_normal == tuple(n * den ** (d - 1) for n in normal)
        assert int_offset == sum(n * x for n, x in zip(normal, pts[0])) * den**d


def test_oriented_hyperplane_flip_consistency():
    h = OrientedHyperplane((Fraction(1), Fraction(-2)), Fraction(3, 7))
    p = (5, 1)
    assert side(h, p) == -side(h.flipped(), p)
    with pytest.raises(PreconditionError):
        OrientedHyperplane((0, 0), 1)


@st.composite
def plane_batches(draw):
    """Explicit planes and points with numerators and denominators of up to
    4, 40, 70 or 1100 bits (int64 rows, rows past 2^63, rows past the float
    range), and points planted on the planes."""
    d = draw(st.integers(1, 3))
    bits = draw(st.sampled_from([4, 40, 70, 1100]))
    scalar = st.builds(Fraction, st.integers(-(1 << bits), 1 << bits), st.integers(1, 1 << bits))
    vector = st.lists(scalar, min_size=d, max_size=d)
    planes = [
        OrientedHyperplane(tuple(normal), draw(scalar))
        for normal in draw(st.lists(vector.filter(any), min_size=1, max_size=4))
    ]
    points = draw(st.lists(vector, min_size=1, max_size=6))
    for q in draw(st.lists(vector, max_size=3)):
        h = draw(st.sampled_from(planes))
        k = next(i for i, c in enumerate(h.normal) if c)
        q[k] = 0
        q[k] = (h.offset - sum(c * x for c, x in zip(h.normal, q))) / h.normal[k]
        points.append(q)
    return planes, [tuple(q) for q in draw(st.permutations(points))]


@settings(max_examples=200, deadline=None)
@given(plane_batches())
# on the plane x + y = 1, but fl(h) . fl(c) = -1: the float filter must defer
@example(([OrientedHyperplane((1, 1), 1)], [(2**60 + 1, -(2**60))]))
def test_plane_signs_and_values_match_fraction_reference(batch):
    planes, points = batch
    signs = plane_signs(points, planes)
    assert signs.dtype == np.int8
    assert signs.tolist() == [[side(h, q) for h in planes] for q in points]
    for h in planes:
        assert plane_values(points, h) == [value(h, q) for q in points]


def test_labeled_point_set_validation():
    with pytest.raises(PreconditionError):
        LabeledPointSet.create(2, [[(0, 0)], [(1, 1)]])  # needs 3 colors
    with pytest.raises(PreconditionError):
        LabeledPointSet(1, (((0.5,),), ((1,),)))  # coordinates are int or Fraction
    assert LabeledPointSet.create(1, [[(0.1,)], [(1,)]]).point(0, 0) == (Fraction(0.1),)
    ps = LabeledPointSet.create(1, [[(0,), (1,)], [(2,)]])
    assert ps.sizes() == (2, 1)
    assert find_general_position_violation(ps) is None


# ---------------------------------------------------------------------------
# homogeneous rows and the certified sign filter


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(
            st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 70)),
            min_size=1, max_size=4,
        ),
        min_size=1, max_size=5,
    ),
    st.integers(1, 1 << 70),
    st.integers(1, 1 << 70),
)
@example([[Fraction(1, 3 << 64), Fraction(5, 7)]], 1 << 64, 3)
def test_homogeneous_rows_match_the_fraction_definition(points, base, extra):
    """h = (w, w den q) with the least w > 0 that makes w den q integral,
    here for denominators past 2^63 and a den with factors no point needs."""
    den = base * extra
    expected = []
    for q in points:
        w = math.lcm(*((den * c).denominator for c in q))
        expected.append((w, *(int(w * den * c) for c in q)))
    assert homogeneous_rows(points, den) == expected


def _planted_sign_batch(bits, seed):
    """Rows and a cofactor table of small integers with exact zeros planted in
    several rows, and near ties h . c in {-1, 0, 1} of ~2^(2 bits) terms that
    floats cannot decide; every other cell is decided by the filter.  Returns
    (rows, table, the number of cells the filter must recompute)."""
    rng = random.Random(seed)
    small = lambda: tuple(rng.randint(-50, 50) for _ in range(4))  # noqa: E731
    rows, table = [small() for _ in range(40)], [small() for _ in range(30)]
    for r, f in [(0, 2), (9, 11), (33, 29)]:  # exact zeros
        h = rows[r]
        table[f] = (h[1], -h[0], 0, 0)
    xs = rng.sample(range(1 << bits, 1 << (bits + 1)), 3)
    for (r, f), x, tie in zip([(4, 7), (21, 0), (39, 28)], xs, (-1, 0, 1)):
        y = rng.randrange(1 << bits, 1 << (bits + 1))
        rows[r], table[f] = (1, x, 0, 0), (tie - x * y, y, 0, 0)
    exact = [[sum(a * b for a, b in zip(h, c)) for c in table] for h in rows]
    # near ties and zeros fall back; small cells are exact in floats
    undecided = sum(v == 0 for e in exact for v in e) + 2
    return rows, table, exact, undecided


@pytest.mark.parametrize("bits", [30, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cofactor_signs_planted_zeros_and_near_ties(monkeypatch, bits, seed):
    """Signs and fallback count against a Python-int reference, with the row
    blocks at one row, at seven rows (planted cells in later blocks), at the
    default size and at the whole batch."""
    rows, table, exact, undecided = _planted_sign_batch(bits, seed)
    arr = int_array(table)
    for block_rows in (1, 7, None, len(rows)):
        cells = geometry.FILTER_CELLS if block_rows is None else block_rows * len(table)
        monkeypatch.setattr(geometry, "FILTER_CELLS", cells)
        signs, fallbacks = cofactor_signs(rows, arr, float_table(arr))
        assert signs.dtype == np.int8
        assert signs.tolist() == [[(v > 0) - (v < 0) for v in e] for e in exact]
        assert fallbacks == undecided


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cofactor_signs_skips_known_zeros(monkeypatch, seed):
    """Cells marked as known exact zeros come out 0 and are not recomputed,
    in whichever row block they fall; only the near ties are."""
    rows, table, exact, undecided = _planted_sign_batch(30, seed)
    arr = int_array(table)
    zeros = np.array([[v == 0 for v in e] for e in exact])
    for block_rows in (1, 7, len(rows)):
        monkeypatch.setattr(geometry, "FILTER_CELLS", block_rows * len(table))
        signs, fallbacks = geometry._cofactor_signs(rows, arr, float_table(arr), zeros)
        assert signs.tolist() == [[(v > 0) - (v < 0) for v in e] for e in exact]
        assert fallbacks == undecided - int(zeros.sum()) == 2
