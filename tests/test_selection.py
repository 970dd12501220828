import itertools
import random
from dataclasses import replace
from math import comb, prod
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pachsel.arrangements import HyperplaneArrangement, build_arrangement
from pachsel.constructions import uniform_ball_set
from pachsel import enumeration
from pachsel.enumeration import RainbowEnumerator, tuple_grid
from pachsel.errors import (
    BudgetExceededError,
    GeneralPositionError,
    InputValidationError,
    PreconditionError,
)
from pachsel.geometry import (
    LabeledPointSet,
    OrientedHyperplane,
    face_cofactors,
    float_table,
    homogeneous_rows,
    in_general_position,
    int_array,
    orientation,
    plane_signs,
    point_in_simplex,
    satisfies_condition_G,
    spanned_cofactors,
)
from pachsel import selection
from pachsel.io import canonical_json_bytes, sha256_hex
from pachsel.rational import det_int, null_vector, scale_points_to_ints
from pachsel.selection import (
    GenericPachConfiguration,
    PachCertificate,
    PipelineParams,
    RainbowHypergraph,
    RegularityParams,
    deep_rainbow_point,
    default_epsilon,
    few_separations,
    ham_sandwich_bisect,
    perturb_anchor,
    rainbow_hypergraph,
    run_pipeline,
    separating_arrangement,
    shrink_to_generic,
    verify_certificate,
    weak_regularity,
)

from conftest import (
    certified_configuration,
    general_position_points,
    naive_closed_containment_fraction,
    random_labeled_set,
    side,
    value,
)


# ---------------------------------------------------------------------------
# enumeration engine


def _enumerator(colors):
    """The ``RainbowEnumerator`` of the point set with these colors."""
    return RainbowEnumerator(LabeledPointSet.create(len(colors) - 1, colors))


def _depths(enum, points):
    """``enum.depths`` of the points, given as their homogeneous rows."""
    return enum.depths(homogeneous_rows(points, enum.den))


def _naive_masks(colors, p):
    """Closed and open masks by ``point_in_simplex`` on every rainbow simplex."""
    shape = tuple(len(c) for c in colors)
    closed, open_ = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    for idx in itertools.product(*(range(n) for n in shape)):
        verts = [colors[ci][i] for ci, i in enumerate(idx)]
        closed[idx] = point_in_simplex(p, verts, "closed")
        open_[idx] = point_in_simplex(p, verts, "open")
    return closed, open_


def _assert_batch_matches_oracles(colors, batch):
    """Batched masks equal single-point batches and the naive loop."""
    enum = _enumerator(colors)
    closed, open_ = enum.containment_masks(batch)
    assert closed.shape == open_.shape == (len(batch), *enum.sizes)
    for b, p in enumerate(batch):
        one_closed, one_open = enum.containment_masks([p])
        assert np.array_equal(one_closed[0], closed[b]) and np.array_equal(one_open[0], open_[b])
        naive_closed, naive_open = _naive_masks(colors, p)
        assert np.array_equal(closed[b], naive_closed) and np.array_equal(open_[b], naive_open)
    return closed, open_


def test_containment_counts_match_naive_loop(monkeypatch):
    rng = random.Random(2)
    for d in (1, 2, 3):
        n = 5 if d < 3 else 4
        ps = random_labeled_set(d, n, seed=10 + d)
        colors = [list(c) for c in ps.colors]
        p = tuple(Fraction(rng.randint(-64, 64), 64) for _ in range(d))
        enum = _enumerator(colors)
        (closed,), (open_,) = _depths(enum, [p])
        total = enum.total
        naive_closed = naive_open = 0
        for verts in itertools.product(*colors):
            if point_in_simplex(p, list(verts), "closed"):
                naive_closed += 1
            if point_in_simplex(p, list(verts), "open"):
                naive_open += 1
        assert (closed, open_) == (naive_closed, naive_open)
        assert total == n ** (d + 1)
        # a batch with a repeated point and a vertex, scored in blocks of two
        batch = [p, tuple(Fraction(rng.randint(-64, 64), 3) for _ in range(d)), p, colors[1][0]]
        masks = _assert_batch_matches_oracles(colors, batch)
        monkeypatch.setattr(enumeration, "BLOCK_CELLS", 2 * total)
        depths = _depths(_enumerator(colors), batch)
        for counts, mask in zip(depths, masks):
            assert counts.tolist() == mask.reshape(len(batch), -1).sum(axis=1).tolist()
        monkeypatch.undo()


def test_containment_handles_degenerate_simplices():
    colors = [[(0, 0), (2, 2)], [(1, 1)], [(3, 3), (0, 1)]]  # collinear combos exist
    enum = _enumerator(colors)
    (closed,), (open_,) = _depths(enum, [(1, 1)])
    total = enum.total
    assert total == 4
    assert open_ == 0  # p is a vertex or on degenerate simplices only
    assert closed >= 1  # p equals the color-1 point, in every closed hull
    half = Fraction(1, 2)
    batch = [(1, 1), (half, half), (0, half), (half, half), (3, 3), (-1, -1)]
    closed, _ = _assert_batch_matches_oracles(colors, batch)
    assert closed[1, 0, 0, 0] and not closed[5, 0, 0, 0]  # on and off the degenerate segment


@st.composite
def planar_sets_with_planted_candidates(draw):
    """A d=2 set in general position, possibly with unequal color sizes, and
    candidates planted at its points, on rainbow edges and on the lines
    through them beyond the edge, beside random points."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
    ps = random_labeled_set(2, max(sizes), seed=draw(st.integers(0, 10**6)), den=64)
    colors = [list(c[:n]) for c, n in zip(ps.colors, sizes)]
    cands = [draw(st.sampled_from(colors[i])) for i in range(3)]
    for _ in range(4):
        i, j = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True))
        a, b = draw(st.sampled_from(colors[i])), draw(st.sampled_from(colors[j]))
        lam = draw(st.fractions(-2, 3, max_denominator=8))
        cands.append(tuple(x + lam * (y - x) for x, y in zip(a, b)))
    box = st.fractions(-3, 3, max_denominator=64)
    cands += [(draw(box), draw(box)) for _ in range(2)]
    return colors, cands


@settings(max_examples=60, deadline=None)
@given(planar_sets_with_planted_candidates(), st.sampled_from([enumeration.BLOCK_CELLS, 1]))
def test_planar_sign_depths_match_mask_sums(instance, block_cells):
    """At d=2 ``depths`` counts from the face-sign tables; its closed and open
    counts equal the sums of ``containment_masks``, also one candidate per
    block, with candidates on face lines re-scored from their masks."""
    colors, cands = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "BLOCK_CELLS", block_cells)
        enum = _enumerator(colors)
        assert not enum._degenerate  # so the face-sign count scores them
        depths = _depths(enum, cands)
    masks = enum.containment_masks(cands)
    for counts, mask in zip(depths, masks):
        assert counts.dtype == np.int64
        assert counts.tolist() == mask.reshape(len(cands), -1).sum(axis=1).tolist()
    closed, open_ = depths
    assert (closed[:3] > open_[:3]).all()  # an input point is a vertex: closed, not open


@st.composite
def spatial_sets_with_planted_candidates(draw):
    """A d=3 or d=1 set in general position with unequal color sizes, the
    color-d axis from one bit to past one 64-bit word, and candidates planted
    at its points and on the hyperplanes of rainbow faces (at d=1 a face is a
    point), beside random points."""
    d = draw(st.sampled_from([3, 1]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    sizes.append(draw(st.sampled_from([1, 5, 8, 9, 17, 33, 64, 65, 70])))
    rng = random.Random(draw(st.integers(0, 10**6)))
    pts = general_position_points(rng, sum(sizes), d, den=1 << 10)
    starts = np.cumsum([0] + sizes).tolist()
    colors = [pts[a:b] for a, b in zip(starts, starts[1:])]
    cands = [draw(st.sampled_from(colors[i])) for i in range(d + 1)]
    weight = st.fractions(-1, 2, max_denominator=8)
    for _ in range(4):
        face = draw(st.lists(st.integers(0, d), min_size=d, max_size=d, unique=True))
        a, *others = (draw(st.sampled_from(colors[i])) for i in face)
        cand = list(a)
        for b in others:
            u = draw(weight)
            cand = [x + u * (y - z) for x, y, z in zip(cand, b, a)]
        cands.append(tuple(cand))
    box = st.fractions(-2, 2, max_denominator=64)
    cands += [tuple(draw(box) for _ in range(d)) for _ in range(2)]
    return colors, cands


@settings(max_examples=60, deadline=None)
@given(spatial_sets_with_planted_candidates(), st.sampled_from([enumeration.BLOCK_CELLS, 1]))
def test_spatial_sign_depths_match_mask_sums(instance, block_cells):
    """At d=3 (and d=1) ``depths`` counts popcounts of bit words packed along
    color d; its closed and open counts equal the sums of ``containment_masks``,
    also one candidate per block, and the candidates on the hyperplanes of
    rainbow faces, with a zero face sign, are re-scored from their masks."""
    colors, cands = instance
    d = len(colors) - 1
    rescored = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "BLOCK_CELLS", block_cells)
        enum = _enumerator(colors)
        assert not enum._degenerate  # so the face-sign count scores them
        mask_depths = enum._mask_depths

        def recorded(rows, signed):
            rescored.extend(rows)
            return mask_depths(rows, signed)

        mp.setattr(enum, "_mask_depths", recorded)
        depths = _depths(enum, cands)
    masks = enum.containment_masks(cands)
    for counts, mask in zip(depths, masks):
        assert counts.dtype == np.int64
        assert counts.tolist() == mask.reshape(len(cands), -1).sum(axis=1).tolist()
    closed, open_ = depths
    assert (closed[: d + 1] > open_[: d + 1]).all()  # an input point is a vertex: closed, not open
    rows = homogeneous_rows(cands, enum.den)
    assert set(rows[: d + 5]) <= set(rescored)  # on a face hyperplane: a zero sign


@st.composite
def planted_colors(draw):
    """Colors whose first rainbow simplex has orientation determinant e in
    {-1, 0, 1} next to coordinates of about 2^bits (2^1100 is past float64)."""
    d = draw(st.integers(1, 3))
    bits = draw(st.sampled_from([20, 40, 60, 80, 1100]))
    e = draw(st.sampled_from([-1, 0, 1]))
    half = st.integers(-(1 << bits // 2), 1 << bits // 2)
    # M = L diag(e, 1, ..., 1) U with unit triangular L, U has determinant e
    lower = [[int(i == j) or (draw(half) if j < i else 0) for j in range(d)] for i in range(d)]
    upper = [[int(i == j) or (draw(half) if j > i else 0) for j in range(d)] for i in range(d)]
    upper[0] = [e * x for x in upper[0]]
    m = [[sum(lower[i][t] * upper[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
    big = st.tuples(st.sampled_from([-1, 1]), st.integers(1 << bits, 1 << bits + 1)).map(
        lambda t: t[0] * t[1]
    )
    q = tuple(draw(big) for _ in range(d))
    colors = [[q]] + [[tuple(a + b for a, b in zip(q, row))] for row in m]
    for color in colors:
        if draw(st.booleans()):
            color.append(tuple(draw(big) for _ in range(d)))
    return e, bits, colors


@settings(max_examples=40, deadline=None)
@given(planted_colors())
def test_filtered_signs_match_det_int_next_to_large_coordinates(planted):
    e, bits, colors = planted
    enum = _enumerator(colors)  # no OverflowError past the float range
    for idx in itertools.product(*(range(len(c)) for c in colors)):
        verts = [colors[ci][i] for ci, i in enumerate(idx)]
        det = det_int([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]])
        assert enum.full_signs[idx] == (det > 0) - (det < 0)
    assert enum.full_signs[(0,) * len(colors)] == e
    if e == 0 or bits >= 60:  # the float error bound exceeds |det| = 1
        assert enum.fallbacks > 0
    # face signs against points that need w > 1, a vertex and a repeat
    q = colors[0][0]
    third = tuple(x + Fraction(1, 3) for x in q)
    _assert_batch_matches_oracles(colors, [third, q, third])


@st.composite
def colors_with_unequal_denominators(draw):
    """d = 1..3 colors of unequal sizes, each color's coordinates over its own
    denominator, not all the same; repeats and dependent tuples may occur."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, (6, 4, 3)[d - 1]), min_size=d + 1, max_size=d + 1))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 5, 7, 64]), min_size=d + 1, max_size=d + 1))
    assume(len(set(sizes)) > 1 and len(set(dens)) > 1)
    coord = st.integers(-50, 50)
    return [
        [tuple(Fraction(draw(coord), den) for _ in range(d)) for _ in range(n)]
        for n, den in zip(sizes, dens)
    ]


@settings(max_examples=60, deadline=None)
@given(colors_with_unequal_denominators())
def test_enumerator_tables_are_the_color_omitted_face_cofactors(colors):
    """Each of the d+1 tables gathered from ``spanned_table`` is, row for row,
    the ``face_cofactors`` of the color-omitted ``tuple_grid`` of the set
    scaled by its own den, with that table's float side."""
    d = len(colors) - 1
    ps = LabeledPointSet.create(d, colors)
    enum = RainbowEnumerator(ps)
    scaled, den = scale_points_to_ints(ps.union_points())
    assert enum.den == den
    starts = np.cumsum([0] + [len(c) for c in colors]).tolist()
    ints = [int_array(scaled[a:b]) for a, b in zip(starts, starts[1:])]
    for i, (table, floats) in enumerate(enum._tables):
        expected = face_cofactors(tuple_grid(ints[:i] + ints[i + 1 :])).reshape(-1, d + 1)
        assert table.tolist() == expected.tolist()
        assert np.array_equal(floats, float_table(expected))


# ---------------------------------------------------------------------------
# deep point


def test_deep_point_hand_example_interval():
    ps = LabeledPointSet.create(1, [[(0,), (3,)], [(1,), (2,)]])
    res = deep_rainbow_point(ps, random_candidates=0)
    assert res.total == 4
    assert res.depth == 2  # the two spanning segments
    assert res.ratio == Fraction(1, 2)  # matches n^2 / 2 at n = 2


def test_deep_point_single_point_per_color():
    ps = LabeledPointSet.create(1, [[(0,)], [(1,)]])
    res = deep_rainbow_point(ps, random_candidates=4, seed=1)
    assert res.total == 1
    assert res.depth in (0, 1)


def test_deep_point_symmetric_instance_beats_constant():
    rng = random.Random(5)
    d, n = 2, 10
    while True:
        half = [
            (Fraction(rng.randint(-1000, 1000), 1024), Fraction(rng.randint(-1000, 1000), 1024))
            for _ in range(3 * n // 2)
        ]
        colors = []
        for ci in range(3):
            mine = half[ci * (n // 2) : (ci + 1) * (n // 2)]
            colors.append(mine + [(-x, -y) for x, y in mine])
        union = [p for c in colors for p in c]
        if in_general_position(union):
            break
    ps = LabeledPointSet.create(d, colors)
    res = deep_rainbow_point(ps, seed=3)
    assert res.ratio >= Fraction(15, 100)


def _fraction_candidates(ps, random_candidates, seed):
    """The deep point's candidates as Fraction points in order, each once with
    its first label: the centroid, the coordinate-wise median and the seeded
    rainbow-simplex centroids."""
    union, d, sizes = ps.union_points(), ps.dim, ps.sizes()
    m = len(union)
    coords = [sorted(p[j] for p in union) for j in range(d)]
    labels = {tuple(sum(p[j] for p in union) / m for j in range(d)): "centroid"}
    labels.setdefault(tuple((c[(m - 1) // 2] + c[m // 2]) / 2 for c in coords), "coordinate-median")
    rng = random.Random(seed)
    starts = [sum(sizes[:ci]) for ci in range(d + 1)]
    for t in range(random_candidates):
        verts = [union[starts[ci] + rng.randrange(sizes[ci])] for ci in range(d + 1)]
        centroid = tuple(sum(v[j] for v in verts) / (d + 1) for j in range(d))
        labels.setdefault(centroid, f"simplex-centroid-{t}")
    return labels


@pytest.mark.parametrize(
    "ps, seed",
    [(LabeledPointSet.create(1, [[(0,), (3,)], [(1,), (2,)]]), 0)]
    + [(random_labeled_set(d, n, seed=s, den=den), s)
       for d, n, den in [(1, 3, 7), (2, 4, 1 << 16), (2, 6, 12), (3, 3, 1 << 16)] for s in (1, 2)],
)
def test_deep_point_candidate_rows_are_the_fraction_candidates(monkeypatch, ps, seed):
    """The integer rows scored are ``homogeneous_rows`` of the Fraction
    candidates, in order and without repeats, and the winner is the
    Fraction point of its row."""
    scored = []
    depths = RainbowEnumerator.depths

    def recorded(self, rows):
        scored.append(rows)
        return depths(self, rows)

    monkeypatch.setattr(RainbowEnumerator, "depths", recorded)
    res = deep_rainbow_point(ps, random_candidates=30, seed=seed)
    labels = _fraction_candidates(ps, 30, seed)
    assert scored == [homogeneous_rows(list(labels), ps.rainbow_enumerator.den)]
    assert res.candidates_evaluated == len(labels)
    assert res.candidate_label == labels[res.point]
    assert all(type(c) is Fraction for c in res.point)


def test_deep_point_requires_general_position():
    ps = LabeledPointSet.create(1, [[(0,), (0,)], [(1,), (2,)]])
    with pytest.raises(GeneralPositionError):
        deep_rainbow_point(ps)


def test_deep_point_budget(monkeypatch):
    ps = random_labeled_set(1, 4, seed=3)
    monkeypatch.setattr(selection, "_DEEP_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        deep_rainbow_point(ps)


def test_deep_point_recount_by_shuffled_enumeration():
    ps = random_labeled_set(2, 6, seed=17)
    res = deep_rainbow_point(ps, random_candidates=20, seed=4)
    rng = random.Random(99)
    perm_colors = list(range(3))
    rng.shuffle(perm_colors)
    shuffled = []
    for ci in perm_colors:
        pts = list(ps.colors[ci])
        rng.shuffle(pts)
        shuffled.append(pts)
    depth = 0
    for verts in itertools.product(*shuffled):
        if point_in_simplex(res.point, list(verts), "closed"):
            depth += 1
    assert depth == res.depth


# ---------------------------------------------------------------------------
# anchor perturbation


def test_perturb_anchor_noop_when_generic():
    ps = random_labeled_set(2, 4, seed=21)
    res = deep_rainbow_point(ps, random_candidates=40, seed=5)
    moved = perturb_anchor(res.point, ps, seed=6)
    if in_general_position(ps.union_points() + [res.point]):
        assert moved == res.point


def test_perturb_anchor_moves_off_spanned_hyperplane():
    # The origin lies on the line spanned by (-4,0) and (4,0) but is interior
    # to other rainbow triangles; the perturbation must keep those interiors.
    ps = LabeledPointSet.create(
        2,
        [
            [(-4, 0), (-3, 7)],
            [(4, 0), (6, 5)],
            [(0, -5), (1, 4)],
        ],
    )
    p = (Fraction(0), Fraction(0))
    assert in_general_position(ps.union_points())
    assert not in_general_position(ps.union_points() + [p])
    enum = RainbowEnumerator(ps)
    before_open = enum.containment_masks([p])[1][0]
    assert int(before_open.sum()) >= 1
    moved = perturb_anchor(p, ps, seed=7)
    assert moved != p
    assert in_general_position(ps.union_points() + [moved])
    after_open = enum.containment_masks([moved])[1][0]
    assert np.array_equal(before_open, before_open & after_open)


def _spanned_orientations(points, q):
    """Bareiss orientation signs of q against every d-tuple of the points."""
    return np.array([orientation([*span, q]) for span in itertools.combinations(points, len(q))])


def _reference_nudge(anchor, points, seed):
    """Orientation signs of each retry in turn: the candidate that passes
    first and how many failed before it."""
    base = _spanned_orientations(points, anchor)
    rng = random.Random(seed)
    magnitude = (max(abs(Fraction(c)) for p in points for c in p) + 1) / (1 << 20)
    for attempt in range(selection._PERTURB_RETRIES):
        direction = selection._random_rational_vector(rng, len(anchor))
        cand = tuple(a + magnitude * u for a, u in zip(anchor, direction))
        signs = _spanned_orientations(points, cand)
        if np.where(base == 0, signs != 0, signs == base).all():
            return cand, attempt
        magnitude /= 2
    return None, attempt


def test_nudge_scores_every_retry_against_one_table(monkeypatch):
    # The origin lies on the line y = 0 spanned by (-4, 0) and (4, 0), between
    # the lines y = +-2^-30, so steps past 2^-30 cross one of those.
    e = Fraction(1, 1 << 30)
    points = [(-4, 0), (4, 0), (-3, e), (3, e), (-2, -e), (2, -e)]
    assert in_general_position(points)
    anchor = (Fraction(0), Fraction(0))
    expected, failed = _reference_nudge(anchor, points, seed=3)
    assert failed > 0
    calls = []
    cofactor_signs = selection.cofactor_signs

    def counted(rows, *args):
        calls.append(len(rows))
        return cofactor_signs(rows, *args)

    spanned = spanned_cofactors(points, 2)
    monkeypatch.setattr(selection, "cofactor_signs", counted)
    assert selection._nudge_off_hyperplanes(anchor, points, spanned, seed=3) == expected
    assert calls == [1, selection._PERTURB_RETRIES]  # the anchor, then every retry at once


def test_perturb_anchor_requires_open_margin():
    ps = LabeledPointSet.create(1, [[(0,), (2,)], [(4,), (6,)]])
    # 6 is a segment endpoint: closed containment only, no interior margin
    with pytest.raises(PreconditionError):
        perturb_anchor((6,), ps, seed=8)


# ---------------------------------------------------------------------------
# weak regularity


def _complete_hypergraph(d, n, seed):
    ps = random_labeled_set(d, n, seed=seed)
    res = deep_rainbow_point(ps, seed=seed)
    anchor = perturb_anchor(res.point, ps, seed=seed + 1)
    h = rainbow_hypergraph(ps, anchor)
    return ps, h


def test_weak_regularity_complete_hypergraph_single_pass():
    ps = LabeledPointSet.create(1, [[(0,), (1,)], [(10,), (11,)]])
    h = rainbow_hypergraph(ps, (Fraction(5),))
    assert h.density == 1
    res = weak_regularity(h, RegularityParams(Fraction(1, 4), Fraction(1, 2)))
    assert res.status == "exhaustive-clean"
    assert res.parts == ((0, 1), (0, 1))
    assert res.size == 2
    assert not res.steps


def _hand_built_hypergraph(edge_fn, sizes):
    """Abstract bipartite incidence on top of a dummy point set."""
    ps = LabeledPointSet.create(
        1, [[(10 * ci + i,) for i in range(n)] for ci, n in enumerate(sizes)]
    )
    edges = np.zeros(sizes, dtype=bool)
    for idx in itertools.product(*[range(n) for n in sizes]):
        edges[idx] = edge_fn(*idx)
    return RainbowHypergraph(edges)


def test_weak_regularity_dense_quadrant_example():
    # hand-built 4x4 incidence: edges exactly on the first-half x second-half
    # block, density 1/4; the restriction lands on that dense quadrant
    h = _hand_built_hypergraph(lambda i, j: i < 2 and j >= 2, (4, 4))
    assert h.density == Fraction(1, 4)
    res = weak_regularity(h, RegularityParams(Fraction(1, 3), Fraction(1, 8)))
    assert res.density == 1
    assert res.parts == ((0, 1), (2, 3))
    for step in res.steps:
        assert step.density_after >= step.density_before
        assert step.size_after >= step.size_before * Fraction(1, 3) - 1


def test_weak_regularity_rejects_low_density():
    ps = LabeledPointSet.create(1, [[(0,), (1,)], [(10,), (11,)]])
    h = rainbow_hypergraph(ps, (Fraction(50),))  # no containment at all
    with pytest.raises(PreconditionError):
        weak_regularity(h, RegularityParams(Fraction(1, 4), Fraction(1, 2)))


def test_weak_regularity_step_invariants_random():
    for seed in (3, 4, 5):
        ps, h = _complete_hypergraph(2, 7, seed=30 + seed)
        rng = random.Random(seed)
        unequal = tuple(
            tuple(sorted(rng.sample(range(7), rng.randint(3, 7)))) for _ in range(3)
        )
        for start in (None, unequal):
            parts = start or tuple(tuple(range(n)) for n in h.sizes)
            density = selection._block_density(h, parts)
            res = weak_regularity(
                h, RegularityParams(Fraction(1, 4), density, seed=seed), initial_parts=start
            )
            dens = [density] + [s.density_after for s in res.steps]
            assert all(b >= a for a, b in zip(dens, dens[1:]))
            assert res.density == dens[-1]
            assert res.status in ("exhaustive-clean", "sampled-clean")
            assert all(s.size_after <= s.size_before for s in res.steps)
            assert all(set(r) <= set(p) for r, p in zip(res.parts, parts))
            assert res.size == min(len(p) for p in res.parts)
            if len({len(p) for p in parts}) == 1:
                assert len({len(p) for p in res.parts}) == 1


def test_weak_regularity_forced_witness():
    ps = LabeledPointSet.create(
        1,
        [
            [(0,), (1,), (20,), (21,)],
            [(10,), (11,), (30,), (31,)],
        ],
    )
    h = rainbow_hypergraph(ps, (Fraction(5),))
    forced = ((2, 3), (0, 1))  # point indices {20,21} x {10,11}: zero edges
    res = weak_regularity(
        h, RegularityParams(Fraction(1, 3), Fraction(1, 8)), forced_witness=forced
    )
    assert res.steps[0].witness_source == "forced"
    with pytest.raises(PreconditionError):
        weak_regularity(
            h,
            RegularityParams(Fraction(1, 3), Fraction(1, 8)),
            forced_witness=((0, 1), (0, 1)),  # spans edges
        )


def _sampled_candidates(rng, parts, ts, budget):
    """The candidates of a sampled witness search in trial order: blocks of
    the batched search's doubling sizes, each drawn from ``rng`` as keys of
    shape (B, |P_i|) per part, with a part's t_i smallest keys found by a full
    sort instead of a partition."""
    cap = max(1, min(selection._WITNESS_MAX_ROWS, selection._WITNESS_BLOCK_CELLS // prod(ts)))
    rows, trial = selection._WITNESS_FIRST_ROWS, 0
    while trial < budget:
        size = min(rows, cap, budget - trial)
        keys = [rng.random((size, len(part))) for part in parts]
        for b in range(size):
            yield tuple(
                tuple(part[j] for j in sorted(np.argsort(k[b])[:t].tolist()))
                for part, k, t in zip(parts, keys, ts)
            )
        trial, rows = trial + size, rows * 2


def _per_tuple_witness(h, parts, ts, budget, rng):
    """The zero-edge witness search one candidate tuple at a time."""
    n_tuples = prod(comb(len(part), t) for part, t in zip(parts, ts))
    if n_tuples <= selection._EXHAUSTIVE_WITNESS_CAP:
        combos = itertools.product(*[itertools.combinations(part, t) for part, t in zip(parts, ts)])
        for combo in combos:
            if h.sub_edge_count(combo) == 0:
                return tuple(combo), "exhaustive", n_tuples
        return None, "exhaustive", n_tuples
    for trial, combo in enumerate(_sampled_candidates(rng, parts, ts, budget), 1):
        if h.sub_edge_count(combo) == 0:
            return combo, "sampled", trial
    return None, "sampled", budget


def _assert_witness_searches_agree(h, parts, ts, budget, seed):
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = selection._find_zero_edge_witness(h, parts, ts, budget, fast_rng)
    assert fast == _per_tuple_witness(h, parts, ts, budget, slow_rng)
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    return fast


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
def test_batched_witness_search_matches_per_tuple_loop(monkeypatch, sampled):
    """Each part has its own size s_i and witness size t_i."""
    if sampled:
        monkeypatch.setattr(selection, "_EXHAUSTIVE_WITNESS_CAP", 0)
    rng = random.Random(41)
    found = 0
    for trial in range(60):
        k = rng.choice((3, 4))
        ns = [rng.randint(4, 6 if k == 3 else 5) for _ in range(k)]
        h = RainbowHypergraph(np.random.default_rng(trial).random(ns) < rng.choice((0.6, 0.9, 0.97)))
        parts = tuple(tuple(sorted(rng.sample(range(n), rng.randint(2, n)))) for n in ns)
        ts = tuple(rng.randint(1, len(part) - 1) for part in parts)
        witness, source, _ = _assert_witness_searches_agree(h, parts, ts, rng.randint(1, 400), trial)
        assert source == ("sampled" if sampled else "exhaustive")
        if witness is not None:
            assert tuple(len(w) for w in witness) == ts
        found += witness is not None
    assert 10 < found < 50  # both outcomes are exercised


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("k", [3, 4])
def test_batched_witness_search_finds_a_zero_tuple_at_a_block_edge(monkeypatch, sampled, k):
    """A single zero tuple planted as the last row of the first block and as
    the first row of the second: the witness, its trial count and the
    generator's state match the one-at-a-time search."""
    if sampled:
        monkeypatch.setattr(selection, "_EXHAUSTIVE_WITNESS_CAP", 0)
    n, t = (10, 3) if sampled else (6, 2)
    parts = tuple(tuple(range(n)) for _ in range(k))
    first_block = selection._WITNESS_FIRST_ROWS
    for position in (first_block - 1, first_block):
        # a budget just past the witness ends the second block early
        budget = position + 3
        if sampled:  # the candidate the generator draws at that trial
            combos = _sampled_candidates(np.random.default_rng(7), parts, (t,) * k, budget)
        else:
            combos = itertools.product(*[itertools.combinations(part, t) for part in parts])
        combo = next(itertools.islice(combos, position, None))
        edges = np.ones((n,) * k, dtype=bool)
        edges[np.ix_(*combo)] = False
        witness, _, trials = _assert_witness_searches_agree(
            RainbowHypergraph(edges), parts, (t,) * k, budget, 7
        )
        assert witness == combo
        if sampled:
            assert trials == position + 1


def test_sampled_witness_stream_is_pinned(monkeypatch):
    """The sampled search's draws at a fixed seed.  Every pinned certificate's
    sampled search comes back clean, so no certificate pin sees them: a
    change to the block sizes, the key draws or the subset pick shows here.
    Zero edges fill the box of indices below 4 in every part; the witness is
    the 231st candidate, in the third block."""
    monkeypatch.setattr(selection, "_EXHAUSTIVE_WITNESS_CAP", 0)
    edges = np.ones((8, 8, 8), dtype=bool)
    edges[:4, :4, :4] = False
    parts = tuple(tuple(range(8)) for _ in range(3))
    result = selection._find_zero_edge_witness(
        RainbowHypergraph(edges), parts, (2, 2, 2), 2000, np.random.default_rng(2024)
    )
    assert result == (((0, 3), (0, 1), (1, 2)), "sampled", 231)


def test_regularity_params_validation():
    with pytest.raises(PreconditionError):
        RegularityParams(Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(PreconditionError):
        RegularityParams(Fraction(1, 4), Fraction(0))
    for budget in (0, -5):
        with pytest.raises(PreconditionError):
            RegularityParams(Fraction(1, 4), Fraction(1, 4), witness_budget=budget)
    assert default_epsilon(1) == Fraction(1, 4)
    assert default_epsilon(2) == Fraction(1, 4)
    assert default_epsilon(3) == Fraction(1, 8)


# ---------------------------------------------------------------------------
# ham sandwich


def test_ham_sandwich_median_point():
    cut = ham_sandwich_bisect([[(1,), (2,), (3,)]])
    assert value(cut, (2,)) == 0
    assert side(cut, (1,)) != side(cut, (3,))


def test_ham_sandwich_alternating_quadrilaterals():
    # two sets of 4 points in convex position, alternating on a circle
    a = [(4, 0), (0, 4), (-4, 0), (0, -4)]
    b = [(3, 3), (-3, 3), (-3, -3), (3, -3)]
    a = [(x + Fraction(1, 97), y + Fraction(1, 89)) for x, y in a]
    cut = ham_sandwich_bisect([a, b])
    for s in (a, b):
        on = sum(1 for q in s if side(cut, q) == 0)
        pos = sum(1 for q in s if side(cut, q) > 0)
        neg = sum(1 for q in s if side(cut, q) < 0)
        assert pos >= (len(s) - on) // 2
        assert neg >= (len(s) - on) // 2


def test_ham_sandwich_concentric_pentagons():
    import math

    def pentagon(radius, phase, den=10_000):
        pts = []
        for k in range(5):
            ang = 2 * math.pi * k / 5 + phase
            pts.append(
                (
                    Fraction(round(radius * math.cos(ang) * den), den),
                    Fraction(round(radius * math.sin(ang) * den), den),
                )
            )
        return pts

    a = pentagon(1.0, 0.1)
    b = pentagon(2.0, 0.7)
    cut = ham_sandwich_bisect([a, b])
    for s in (a, b):
        on = sum(1 for q in s if side(cut, q) == 0)
        assert sum(1 for q in s if side(cut, q) > 0) >= (5 - on) // 2
        assert sum(1 for q in s if side(cut, q) < 0) >= (5 - on) // 2


def test_ham_sandwich_three_sets_in_space():
    rng = random.Random(31)
    den = 1 << 12
    while True:
        sets = [
            [
                tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(3))
                for _ in range(5)
            ]
            for _ in range(3)
        ]
        if in_general_position([p for s in sets for p in s]):
            break
    cut = ham_sandwich_bisect(sets)
    for s in sets:
        on = sum(1 for q in s if side(cut, q) == 0)
        pos = sum(1 for q in s if side(cut, q) > 0)
        neg = sum(1 for q in s if side(cut, q) < 0)
        assert pos >= (5 - on) // 2 and neg >= (5 - on) // 2
    assert sum(1 for s in sets for q in s if side(cut, q) == 0) == 3  # one per set


def test_few_separations_space_branch_oracle():
    rng = random.Random(33)
    den = 1 << 12
    while True:
        colors = [
            [
                tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(3))
                for _ in range(6)
            ]
            for _ in range(4)
        ]
        p = tuple(Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(3))
        if in_general_position([q for c in colors for q in c] + [p]):
            break
    ps = LabeledPointSet.create(3, colors)
    res = few_separations(ps, tuple(tuple(range(6)) for _ in range(4)), p, seed=2)
    assert all(len(y) >= 1 for y in res.index_sets)  # 6 / 2^3, rounded up
    fraction = naive_closed_containment_fraction(ps, res.index_sets, p)
    assert fraction == (1 if res.branch == "all-contain" else 0)


def _mixed_denominator_set(d, n, seed, den):
    """Color 0 with coordinates over ``den``, the other colors integer, in
    general position."""
    rng = random.Random(seed)
    while True:
        colors = [[tuple(Fraction(rng.randint(-60 * den, 60 * den), den) for _ in range(d))
                   for _ in range(n)]]
        colors += [[tuple(rng.randint(-60, 60) for _ in range(d)) for _ in range(n)] for _ in range(d)]
        if in_general_position([p for c in colors for p in c]):
            return LabeledPointSet.create(d, colors)


@pytest.mark.parametrize(
    "d, n, den, digest",
    [
        (2, 8, 3, "6a8f5067514b186f320c85e3f88cafdc931850351dbb6346545528c37d7a41b0"),
        (2, 8, 7, "13e7441f181a11e54f00c3365898784e4825fe2f14a3d641b9b69b751f377ba4"),
        (3, 5, 3, "3d069d912dde94fb2489d49913a9f2c10d6f45ef90b66f0b05f0c3bbec4c3b4e"),
        (3, 5, 7, "1d2b117c4f14be9a3c3101b1a7625f7e8c46f9457872b349230b8f070ab7be91"),
    ],
    ids=["d2-over-3", "d2-over-7", "d3-over-3", "d3-over-7"],
)
def test_few_separations_cuts_are_read_in_the_subsets_frame(monkeypatch, d, n, den, digest):
    """With color 0 over ``den``, the cut that omits it scores integer sets
    against a spanned table scaled by ``den``: its rows are den^(d-1) times
    the sets' own, which the cut divides out.  Each few-separations cut
    equals ``ham_sandwich_bisect`` of the same d subsets, and the
    certificate keeps its bytes."""
    cut, calls = selection._spanned_bisecting_cut, []

    def recorded(spanned, points, sets):
        calls.append(([[points[u] for u in s] for s in sets], cut(spanned, points, sets)))
        return calls[-1][1]

    monkeypatch.setattr(selection, "_spanned_bisecting_cut", recorded)
    cert = run_pipeline(_mixed_denominator_set(d, n, 1, den), PipelineParams(seed=1, grow=False))
    monkeypatch.undo()
    assert sha256_hex(canonical_json_bytes(cert.to_json_dict())) == digest
    assert any(all(c.denominator == 1 for s in sets for p in s for c in p) for sets, _ in calls)
    for sets, plane in calls:
        assert ham_sandwich_bisect(sets) == plane


def _reference_bisecting_cut(sets):
    """Spans in product order, each plane from ``null_vector`` and its side
    counts from ``OrientedHyperplane.side``; the first bisecting one."""
    d = len(sets)
    int_points, den = scale_points_to_ints([p for s in sets for p in s])
    starts = np.cumsum([0] + [len(s) for s in sets]).tolist()
    int_sets = [int_points[lo:hi] for lo, hi in zip(starts, starts[1:])]
    sign = (-1) ** (d - 1)
    for span in itertools.product(*int_sets):
        *normal, last = null_vector([tuple(p) + (1,) for p in span])
        h = OrientedHyperplane(
            tuple(Fraction(sign * c) for c in normal), Fraction(-sign * last, den)
        )
        sides = [[side(h, q) for q in s] for s in sets]
        if all(min(x.count(1), x.count(-1)) >= (len(x) - x.count(0)) // 2 for x in sides):
            return h
    return None


@st.composite
def bisection_instances(draw):
    """d = 1..3 sets of 1-4 points in general position, scaled by 1, by 2^62
    (object path) or by 2^1100 (past the float range), over denominator 1 or 3."""
    d = draw(st.integers(1, 3))
    coord = st.integers(-1 << 10, 1 << 10)
    sets = [
        draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=4, unique=True))
        for _ in range(d)
    ]
    assume(in_general_position([p for s in sets for p in s]))
    scale = draw(st.sampled_from([1, 1 << 62, 1 << 1100]))
    den = draw(st.sampled_from([1, 3]))
    return [[tuple(Fraction(scale * c, den) for c in p) for p in s] for s in sets]


@settings(max_examples=120, deadline=None)
@given(bisection_instances())
def test_spanned_bisecting_cut_matches_per_span_reference(sets):
    """``ham_sandwich_bisect`` scores its spans as rows of the union's
    spanned table, the core that few separations feeds from a whole set's."""
    assert ham_sandwich_bisect(sets) == _reference_bisecting_cut(sets)


def test_spanned_bisecting_cut_recomputes_no_own_point(monkeypatch):
    """A span's own d points lie on it, exact zeros known from the span's
    indices, so the cut hands none of them to the exact recomputation; on
    small integer coordinates floats decide every other cell, so it
    recomputes nothing.  Only the cut's filter calls are counted: the
    general-position scan of ``ham_sandwich_bisect`` calls geometry's."""
    fallbacks = []
    scored = selection._cofactor_signs

    def counted(*args):
        signs, count = scored(*args)
        fallbacks.append(count)
        return signs, count

    monkeypatch.setattr(selection, "_cofactor_signs", counted)
    rng = random.Random(7)
    for d, n in [(1, 5), (2, 6), (3, 4)]:
        pts = general_position_points(rng, d * n, d, den=1, box=60)
        sets = [pts[k * n : (k + 1) * n] for k in range(d)]
        assert ham_sandwich_bisect(sets) == _reference_bisecting_cut(sets)
    assert fallbacks and sum(fallbacks) == 0


def test_ham_sandwich_rejects_degenerate_input():
    with pytest.raises(GeneralPositionError):
        ham_sandwich_bisect([[(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 0), (5, 5)]])
    with pytest.raises(PreconditionError):
        ham_sandwich_bisect([[], [(0, 1)]])


# ---------------------------------------------------------------------------
# few separations


@st.composite
def containment_oracle_instances(draw):
    """A colored set in d = 1..3 on a coarse grid (repeats and degenerate
    rainbow simplices are common), nonempty index sets, and p random, at a
    vertex of a selected rainbow simplex, or on one of its faces: a convex
    combination, all weights positive, of at most d of its vertices."""
    d = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2]))
    colors = [draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=3)) for _ in range(d + 1)]
    index_sets = [
        tuple(sorted(draw(st.sets(st.integers(0, len(c) - 1), min_size=1)))) for c in colors
    ]
    simplex = [colors[i][draw(st.sampled_from(idx))] for i, idx in enumerate(index_sets)]
    kind = draw(st.sampled_from(["random", "vertex", "face"]))
    if kind == "random":
        p = draw(st.tuples(*[coord] * d))
    elif kind == "vertex":
        p = draw(st.sampled_from(simplex))
    else:
        face = draw(st.lists(st.sampled_from(simplex), min_size=1, max_size=d, unique=True))
        w = [draw(st.integers(1, 4)) for _ in face]
        p = tuple(sum(a * v[x] for a, v in zip(w, face)) / sum(w) for x in range(d))
    return LabeledPointSet.create(d, colors), index_sets, p


@settings(max_examples=200, deadline=None)
@given(containment_oracle_instances())
def test_containment_oracle_matches_point_in_simplex(instance):
    ps, index_sets, p = instance
    colors = [[ps.point(i, j) for j in idx] for i, idx in enumerate(index_sets)]
    hits = sum(point_in_simplex(p, list(verts), "closed") for verts in itertools.product(*colors))
    expected = Fraction(hits, prod(map(len, colors)))
    assert naive_closed_containment_fraction(ps, index_sets, p) == expected


def _random_subsets_instance(d, size, seed, box=2):
    rng = random.Random(seed)
    den = 1 << 14
    while True:
        colors = [
            [
                tuple(Fraction(rng.randint(-box * den, box * den), den) for _ in range(d))
                for _ in range(size)
            ]
            for _ in range(d + 1)
        ]
        p = tuple(Fraction(rng.randint(-3 * box * den, 3 * box * den), den) for _ in range(d))
        union = [q for c in colors for q in c]
        if in_general_position(union + [p]):
            return LabeledPointSet.create(d, colors), p


def test_few_separations_interval_instance():
    ps, p = _random_subsets_instance(1, 8, seed=3)
    idx = tuple(tuple(range(8)) for _ in range(2))
    res = few_separations(ps, idx, p, seed=4)
    assert all(len(y) >= 4 for y in res.index_sets)
    fraction = naive_closed_containment_fraction(ps, res.index_sets, p)
    if res.branch == "all-contain":
        assert fraction == 1
    else:
        assert fraction == 0


def _clustered_instance(d, size, seed, radius=3, spread=1):
    import math

    rng = random.Random(seed)
    den = 1 << 14
    while True:
        colors = []
        for ci in range(d + 1):
            ang = 2 * math.pi * ci / (d + 1) + 0.3
            center = (round(radius * math.cos(ang) * den), round(radius * math.sin(ang) * den))
            colors.append(
                [
                    tuple(
                        Fraction(center[k] + rng.randint(-spread * den, spread * den), den)
                        for k in range(d)
                    )
                    for _ in range(size)
                ]
            )
        p = tuple(Fraction(rng.randint(-den // 2, den // 2), den) for _ in range(d))
        union = [q for c in colors for q in c]
        if in_general_position(union + [p]):
            return LabeledPointSet.create(d, colors), p


def test_few_separations_size_law_and_branch_oracle_d2():
    hits = {"all-contain": 0, "none-contain": 0}
    for seed in range(6):
        if seed < 3:
            ps, p = _clustered_instance(2, 12, seed=100 + seed)
        else:
            ps, p = _random_subsets_instance(2, 12, seed=100 + seed)
        idx = tuple(tuple(range(12)) for _ in range(3))
        res = few_separations(ps, idx, p, seed=seed)
        assert all(len(y) >= 3 for y in res.index_sets)  # 12 / 2^2
        for ci, y in enumerate(res.index_sets):
            assert set(y) <= set(idx[ci])
        fraction = naive_closed_containment_fraction(ps, res.index_sets, p)
        assert fraction == (1 if res.branch == "all-contain" else 0)
        hits[res.branch] += 1
    assert hits["all-contain"] > 0 and hits["none-contain"] > 0


def test_few_separations_requires_general_position():
    ps = LabeledPointSet.create(1, [[(0,), (2,)], [(1,), (3,)]])
    with pytest.raises(GeneralPositionError):
        few_separations(ps, ((0, 1), (0, 1)), (2,), seed=0)  # p equals a point


# ---------------------------------------------------------------------------
# general position is decided once per point set


@pytest.fixture
def scan_sizes(monkeypatch):
    """Point counts of every find_general_position_violation call."""
    from pachsel import geometry, selection

    sizes = []
    scan = geometry.find_general_position_violation

    def counted(obj):
        sizes.append(len(obj.union_points() if isinstance(obj, LabeledPointSet) else obj))
        return scan(obj)

    for module in (geometry, selection):
        monkeypatch.setattr(module, "find_general_position_violation", counted)
    return sizes


@pytest.mark.parametrize("d, n, seed", [(2, 8, 3), (3, 5, 4)])
def test_pipeline_scans_the_whole_union_once(scan_sizes, d, n, seed):
    ps = random_labeled_set(d, n, seed=seed)
    scan_sizes.clear()
    run_pipeline(ps, PipelineParams(seed=seed, grow=False))
    union = (d + 1) * n
    assert sum(size >= union for size in scan_sizes) == 1, scan_sizes


def test_grow_adds_no_general_position_scan(scan_sizes):
    counts, index_sets = [], []
    for grow in (False, True):
        ps = random_labeled_set(2, 8, seed=3)  # a fresh set records no verdict yet
        scan_sizes.clear()
        cert = run_pipeline(ps, PipelineParams(seed=3, grow=grow))
        counts.append(len(scan_sizes))
        index_sets.append(cert.index_sets)
    assert index_sets[0] != index_sets[1]  # growth changed the sets
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("d, seed", [(2, 103), (3, 33)])
def test_few_separations_reuses_the_recorded_verdict(scan_sizes, d, seed):
    ps, p = _random_subsets_instance(d, 6, seed=seed)
    ps.require_general_position()
    scan_sizes.clear()
    few_separations(ps, tuple(tuple(range(6)) for _ in range(d + 1)), p, seed=1)
    assert scan_sizes == []


def test_pipeline_enumerates_the_whole_set_once(monkeypatch):
    built = []
    init = RainbowEnumerator.__init__

    def recorded(self, colors):
        init(self, colors)
        built.append(self.sizes)

    monkeypatch.setattr(RainbowEnumerator, "__init__", recorded)
    ps = random_labeled_set(2, 8, seed=3)
    run_pipeline(ps, PipelineParams(seed=3))
    assert built.count(ps.sizes()) == 1, built


def test_select_scores_the_moved_anchor_once(monkeypatch):
    # perturb_anchor and rainbow_hypergraph both ask for the moved anchor's
    # masks on the whole-set enumerator; only the first request scores it.
    requests, active, scored = [], [], []
    masks, face_signs = RainbowEnumerator.containment_masks, RainbowEnumerator._face_signs

    def recorded_masks(self, points):
        requests.append((self, tuple(tuple(p) for p in points)))
        active.append(requests[-1])
        try:
            return masks(self, points)
        finally:
            active.pop()

    def recorded_face_signs(self, i, rows):
        if i == 0 and active:  # not the full signs of __init__
            scored.append(active[-1])
        return face_signs(self, i, rows)

    monkeypatch.setattr(RainbowEnumerator, "containment_masks", recorded_masks)
    monkeypatch.setattr(RainbowEnumerator, "_face_signs", recorded_face_signs)
    ps = random_labeled_set(2, 8, seed=3)
    cert = run_pipeline(ps, PipelineParams(seed=3))
    moved = (ps.rainbow_enumerator, (tuple(cert.point),))
    assert requests.count(moved) >= 2  # 3 here: the anchor did not move
    assert scored.count(moved) == 1


def test_perturb_anchor_reuses_the_deep_point_verdict(scan_sizes):
    ps = random_labeled_set(2, 6, seed=8)
    scan_sizes.clear()
    res = deep_rainbow_point(ps, seed=2)
    assert scan_sizes == [18]
    scan_sizes.clear()
    perturb_anchor(res.point, ps, seed=3)
    assert scan_sizes == []


@pytest.fixture
def spanned_sizes(monkeypatch):
    """Point counts of every spanned cofactor table built."""
    from pachsel import geometry

    sizes = []
    spanned_cofactors = geometry.spanned_cofactors

    def recorded(points, dim):
        sizes.append(len(points))
        return spanned_cofactors(points, dim)

    monkeypatch.setattr(geometry, "spanned_cofactors", recorded)
    return sizes


@pytest.mark.parametrize("d, n", [(2, 25), (3, 8)])
def test_pipeline_builds_the_whole_spanned_table_once(spanned_sizes, d, n):
    """The general-position scans of ``uniform_ball_set`` and the pipeline,
    the anchor nudge, few-separations and the rainbow enumerator share the
    set's one spanned table: generating a set and running the pipeline on it
    build it once, and exhaustive verification one over the selected Y;
    ``perturb_anchor`` builds none."""
    ps = uniform_ball_set(d, n, seed=3)
    spanned_sizes.clear()
    cert = run_pipeline(uniform_ball_set(d, n, seed=2), PipelineParams(seed=2))
    assert spanned_sizes == [(d + 1) * n, sum(map(len, cert.index_sets))]
    res = deep_rainbow_point(ps, seed=3)
    spanned_sizes.clear()
    perturb_anchor(res.point, ps, seed=4)
    assert spanned_sizes == []


# ---------------------------------------------------------------------------
# pipeline


def test_run_pipeline_interval_end_to_end():
    ps = random_labeled_set(1, 10, seed=42)
    cert = run_pipeline(ps, PipelineParams(seed=7))
    assert cert.verified == "exhaustive"
    assert all(len(y) >= 1 for y in cert.index_sets)
    assert naive_closed_containment_fraction(ps, cert.index_sets, cert.point) == 1
    stages = [s["stage"] for s in cert.stages]
    assert stages[0] == "deep-point" and "few-separations" in stages


def test_run_pipeline_plane_end_to_end_with_oracle():
    ps = random_labeled_set(2, 8, seed=43)
    cert = run_pipeline(ps, PipelineParams(seed=9))
    assert naive_closed_containment_fraction(ps, cert.index_sets, cert.point) == 1
    arr_report = verify_certificate(ps, cert, mode="arrangement")
    exh_report = verify_certificate(ps, cert, mode="exhaustive")
    assert arr_report.ok and exh_report.ok  # joint soundness
    assert exh_report.fraction == 1


@pytest.mark.parametrize(
    "d, n, seed, digest",
    [
        (2, 25, 1, "5efd6ae8aeba421a24103ca3206ebd045ef81a8fbd38ef4bd3324ffddf16ee39"),
        (2, 25, 2, "04ef1a5cc4d1caa38fff1625459446ee32a7735ac2086948f82fe77a5e8e1d35"),
        (2, 25, 3, "772f10e0640fd1ab5af4f54003b9202cd034dbb4c9f288135cb4cc2bd83567a7"),
        (3, 8, 1, "fb25bbe3600d9a1d7f3f42eaca091b2f8c2c4bfcbddd02e01b9c6de7846be519"),
        (3, 8, 2, "e0808a2e79d26c0c2543fec4348fd4f33da03deea2b9793fd3ecb955d43619d1"),
        (3, 8, 3, "c782fccd778182a1a0cd2528b500ddb308b3c0976869279c51f72a2e4fc5f314"),
    ],
    ids=["uniform-d2-n25-s1", "uniform-d2-n25-s2", "uniform-d2-n25-s3",
         "uniform-d3-n8-s1", "uniform-d3-n8-s2", "uniform-d3-n8-s3"],
)
def test_certificates_are_pinned(d, n, seed, digest):
    """Certificates keep their bytes: a change to a stage's decisions, its
    candidates or its seeds shows here first."""
    cert = run_pipeline(uniform_ball_set(d, n, seed=seed), PipelineParams(seed=seed))
    assert sha256_hex(canonical_json_bytes(cert.to_json_dict())) == digest


@pytest.mark.parametrize("d, n, seed", [(1, 10, 4), (2, 10, 1), (2, 25, 3), (3, 6, 2), (3, 8, 1)])
@pytest.mark.parametrize(
    "scale, shift",
    [(2**62, 0), (Fraction(2**62, 3), 0), (1, Fraction(-7, 3)), (Fraction(1, 3), Fraction(1, 2**70))],
    ids=["times-2^62", "times-2^62/3", "minus-7/3", "thirds-plus-2^-70"],
)
def test_pipeline_commutes_with_affine_maps(d, n, seed, scale, shift):
    """Mapping every coordinate by x -> scale x + shift, scale > 0, keeps
    every orientation sign the pipeline reads: the same index sets, the point
    mapped exactly, and a mapped certificate that both verify modes accept.
    The 2^62 scales run the pipeline on the object-dtype paths."""
    ps = uniform_ball_set(d, n, seed=seed)
    mapped = LabeledPointSet.create(
        d, [[tuple(scale * c + shift for c in p) for p in color] for color in ps.colors]
    )
    base = run_pipeline(ps, PipelineParams(seed=seed))
    cert = run_pipeline(mapped, PipelineParams(seed=seed))
    assert cert.index_sets == base.index_sets
    assert cert.point == tuple(scale * c + shift for c in base.point)
    for mode in ("exhaustive", "arrangement"):
        assert verify_certificate(mapped, cert, mode).ok


@st.composite
def unequal_sets(draw):
    """A random set in general position whose colors have unequal sizes."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, (9, 7, 5)[d - 1]), min_size=d + 1, max_size=d + 1))
    assume(len(set(sizes)) > 1)
    ps = random_labeled_set(d, max(sizes), seed=draw(st.integers(0, 10**6)))
    return LabeledPointSet.create(d, [c[:n] for c, n in zip(ps.colors, sizes)])


@settings(max_examples=40, deadline=None)
@given(unequal_sets(), st.integers(0, 100))
# the coordinate median is the one-point color's point: full closed depth, no open margin
@example(LabeledPointSet.create(1, [[(0,)], [(-3,), (-1,), (1,), (2,)]]), 0)
def test_run_pipeline_unequal_sizes(ps, seed):
    """Unequal colors run through the same pipeline, with no replication."""
    cert = run_pipeline(ps, PipelineParams(seed=seed))
    assert all(cert.index_sets)
    assert cert.fractions == tuple(Fraction(len(y), n) for y, n in zip(cert.index_sets, ps.sizes()))
    for mode in ("exhaustive", "arrangement"):
        assert verify_certificate(ps, cert, mode=mode).ok


def test_run_pipeline_rejects_eps_above_halving_fraction():
    ps = random_labeled_set(2, 8, seed=43)
    for eps in (Fraction(49, 100), Fraction(1, 3)):
        with pytest.raises(PreconditionError, match="at most 1/2"):
            run_pipeline(ps, PipelineParams(seed=9, epsilon=eps))


def test_run_pipeline_deterministic():
    ps = random_labeled_set(1, 8, seed=44)
    a = run_pipeline(ps, PipelineParams(seed=5))
    b = run_pipeline(ps, PipelineParams(seed=5))
    assert a == b
    c = run_pipeline(ps, PipelineParams(seed=6))
    assert c.verified == "exhaustive"  # different seed still sound


# ---------------------------------------------------------------------------
# shrink to generic / separating arrangement


def test_shrink_noop_for_interior_anchor():
    ps = random_labeled_set(2, 5, seed=50)
    cert = run_pipeline(ps, PipelineParams(seed=3))
    cfg = shrink_to_generic(ps, cert.index_sets, cert.point, seed=4)
    assert cfg.index_sets == cert.index_sets  # nothing removed
    cfg.validate()


def test_shrink_interval_boundary_case():
    ps = LabeledPointSet.create(1, [[(0,), (2,)], [(4,), (6,)]])
    # anchor 4 lies in every closed segment but on the boundary of [2, 4] etc.
    cfg = shrink_to_generic(ps, ((0, 1), (0, 1)), (4,), seed=5)
    sizes = [len(y) for y in cfg.index_sets]
    assert all(2 - s <= 1 for s in sizes)  # drops at most one per color (k <= d)
    cfg.validate()


def test_shrink_builds_the_selected_and_the_kept_tables(spanned_sizes):
    """The selected union's table serves its verdict and enumerator, the kept
    union's the nudge and the check of the moved point."""
    ps = LabeledPointSet.create(1, [[(0,), (2,)], [(4,), (6,)]])
    cfg = shrink_to_generic(ps, ((0, 1), (0, 1)), (4,), seed=5)
    assert spanned_sizes == [4, sum(map(len, cfg.index_sets))]


def test_shrink_size_underflow():
    ps = LabeledPointSet.create(1, [[(0,)], [(2,)]])
    with pytest.raises(PreconditionError):
        shrink_to_generic(ps, ((0,), (0,)), (2,), seed=1)  # boundary + singleton colors


def test_shrink_builds_one_enumerator_for_the_selected_colors(monkeypatch):
    # The kept colors' masks are a sub-box of the selected colors' masks; the
    # only other enumerator is the configuration's own check of the moved point.
    built = []
    init = RainbowEnumerator.__init__

    def recorded(self, colors):
        init(self, colors)
        built.append(self.sizes)

    monkeypatch.setattr(RainbowEnumerator, "__init__", recorded)
    ps = LabeledPointSet.create(1, [[(0,), (2,)], [(4,), (6,)]])
    cfg = shrink_to_generic(ps, ((0, 1), (0, 1)), (4,), seed=5)
    assert built == [(2, 2), tuple(len(y) for y in cfg.index_sets)]


@st.composite
def sector_sets(draw):
    """Three colors of three integer points around the origin: color 0 at
    angles in [-45, 0] degrees, color 1 in [180, 225] and color 2 in
    [45, 135].  Every rainbow triangle then holds the origin, on its boundary
    exactly when two of its vertices are opposite ends of sector edges
    (0 and 180, -45 and 135, or 225 and 45 degrees).  Such pairs are planted
    at will, each on its own two points."""
    coord = st.integers(1, 60)

    def point(color):
        t = draw(coord)
        if color == 2:
            return (draw(st.integers(-t, t)), t)
        u = draw(st.integers(0, t))
        return (t, -u) if color == 0 else (-t, -u)

    colors = [[point(c) for _ in range(3)] for c in range(3)]
    for (c1, k1, v1), (c2, k2, v2) in [
        ((0, 0, (1, 0)), (1, 0, (-1, 0))),
        ((0, 1, (1, -1)), (2, 0, (-1, 1))),
        ((1, 1, (-1, -1)), (2, 1, (1, 1))),
    ]:
        if draw(st.booleans()):
            m1, m2 = draw(coord), draw(coord)
            colors[c1][k1] = (m1 * v1[0], m1 * v1[1])
            colors[c2][k2] = (m2 * v2[0], m2 * v2[1])
    return colors


@settings(max_examples=60, deadline=None)
@given(sector_sets(), st.integers(0, 3))
def test_shrink_lemma_under_condition_g(colors, seed):
    """Condition (G) on the union keeps the boundary family within d, so the
    shrink drops the same number, at most d, of points from every color."""
    assume(satisfies_condition_G([p for c in colors for p in c]).status == "true")
    ps = LabeledPointSet.create(2, colors)
    cfg = shrink_to_generic(ps, ((0, 1, 2),) * 3, (0, 0), seed=seed)
    removed = {3 - len(idxs) for idxs in cfg.index_sets}
    assert len(removed) == 1 and removed <= {0, 1, 2}


def test_shrink_ignores_condition_g_violation_away_from_anchor():
    """Lines (0, 2), (1, 3) and (4, 5) of the union meet at (-2, -5/3), a
    violation of (G) that puts no rainbow triangle's boundary on the origin."""
    colors = [[(4, -3), (3, 0)], [(-5, -1), (-3, -2)], [(0, 1), (3, 5)]]
    union = [p for c in colors for p in c]
    assert satisfies_condition_G(union).witness == ((0, 2), (1, 3), (4, 5))
    ps = LabeledPointSet.create(2, colors)
    cfg = shrink_to_generic(ps, ((0, 1),) * 3, (0, 0), seed=1)
    assert cfg.index_sets == ((0, 1),) * 3
    cfg.validate()


def test_shrink_degenerate_union_names_its_witness():
    ps = LabeledPointSet.create(2, [[(3, -1), (5, -1)], [(-3, -1), (-4, -2)], [(0, 5), (1, 4)]])
    with pytest.raises(GeneralPositionError) as info:
        shrink_to_generic(ps, ((0, 1),) * 3, (0, 0), seed=1)
    assert info.value.witness == (0, 1, 2)  # (3, -1), (5, -1) and (-3, -1)


def test_validate_names_the_first_dependent_tuple_with_the_point():
    """The union's own violation is (1, 3, 4), on the line y = x - 4; the point
    (2, 0) lies on the line of union points 0 and 1, and the witness is the
    lexicographically first dependent tuple of the union plus the point, the
    point's index 6 included."""
    ps = LabeledPointSet.create(2, [[(0, 0), (4, 0)], [(0, 4), (5, 1)], [(6, 2), (7, 3)]])
    assert ps.general_position_violation == (1, 3, 4)
    cfg = GenericPachConfiguration(ps, ((0, 1),) * 3, (Fraction(2), Fraction(0)))
    with pytest.raises(GeneralPositionError) as info:
        cfg.validate()
    assert info.value.witness == (0, 1, 6)


def test_separating_arrangement_interval():
    ps = LabeledPointSet.create(1, [[(0,), (1,)], [(4,), (5,)]])
    cfg = GenericPachConfiguration(ps, ((0, 1), (0, 1)), (Fraction(2),))
    cfg.validate()
    arr = separating_arrangement(cfg, seed=2)
    assert arr.central_simplex_contains((Fraction(2),))
    for i, idxs in enumerate(cfg.index_sets):
        corner = arr.corner(i)
        for j in idxs:
            assert corner.contains(ps.point(i, j), strict=True)


def test_separating_arrangement_invalid_configuration():
    ps = LabeledPointSet.create(1, [[(0,), (10,)], [(4,), (5,)]])
    cfg = GenericPachConfiguration(ps, ((0, 1), (0, 1)), (Fraction(9, 2),))
    with pytest.raises(InputValidationError):
        # 9/2 is inside conv{4, 5} = hull of the other color: not generic
        separating_arrangement(cfg, seed=3)


def test_certificate_configuration_roundtrip():
    ps = random_labeled_set(2, 6, seed=51)
    cert = run_pipeline(ps, PipelineParams(seed=8))
    cfg = certified_configuration(ps, cert)
    arr = separating_arrangement(cfg, seed=9)
    assert arr.central_simplex_contains(cfg.point)


# ---------------------------------------------------------------------------
# certificate verification


def test_verify_certificate_mutation_detected():
    ps = random_labeled_set(1, 8, seed=52)
    cert = run_pipeline(ps, PipelineParams(seed=4))
    jd = cert.to_json_dict()
    # corrupt: swap the anchor far outside
    jd["p"] = ["1000"]
    bad = PachCertificate.from_json_dict(jd)
    report = verify_certificate(ps, bad, mode="exhaustive")
    assert not report.ok
    assert report.fraction < 1
    assert report.witness is not None


def test_verify_certificate_empty_subset_is_vacuous():
    ps = random_labeled_set(1, 4, seed=53)
    cert = run_pipeline(ps, PipelineParams(seed=4))
    jd = cert.to_json_dict()
    jd["Y"][0] = []
    jd["fractions"][0] = "0"
    vac = PachCertificate.from_json_dict(jd)
    report = verify_certificate(ps, vac, mode="exhaustive")
    assert report.ok and report.fraction == 1
    assert report.warnings


def test_verify_certificate_bad_indices():
    ps = random_labeled_set(1, 4, seed=54)
    cert = run_pipeline(ps, PipelineParams(seed=4))
    jd = cert.to_json_dict()
    jd["Y"][0] = [99]
    broken = PachCertificate.from_json_dict(jd)
    with pytest.raises(InputValidationError):
        verify_certificate(ps, broken)


def test_verify_arrangement_rejects_a_moved_plane_or_point():
    # the dichotomy's precondition fails: plane 0 moved far, or the point moved onto plane 0
    ps = random_labeled_set(2, 6, seed=55)
    cert = run_pipeline(ps, PipelineParams(seed=4))
    assert verify_certificate(ps, cert, "arrangement").ok
    jd = cert.to_json_dict()
    plane = jd["arrangement"]["hyperplanes"][0]
    plane["offset"] = str(Fraction(plane["offset"]) + 100)
    report = verify_certificate(ps, PachCertificate.from_json_dict(jd), "arrangement")
    assert (report.ok, report.fraction) == (False, 0)
    assert "does not strictly separate" in report.detail
    h = cert.arrangement.hyperplanes[0]
    on_plane = tuple(c * h.offset / sum(x * x for x in h.normal) for c in h.normal)
    report = verify_certificate(ps, replace(cert, point=on_plane), "arrangement")
    assert (report.ok, report.fraction, report.detail) == (False, 0, "point lies on hyperplane 0")


def test_verify_arrangement_rejects_a_point_outside_the_central_simplex():
    # x = 3/2 and x = 1/2 separate 0 from the other color, but the central simplex is [1/2, 3/2]
    ps = LabeledPointSet.create(1, [[(1,)], [(2,)]])
    arr = build_arrangement([OrientedHyperplane((1,), Fraction(3, 2)), OrientedHyperplane((1,), Fraction(1, 2))])
    cert = PachCertificate("", (Fraction(0),), ((0,), (0,)), arr, (1, 1), "arrangement", 0, ())
    report = verify_certificate(ps, cert, "arrangement")
    assert (report.ok, report.fraction) == (False, 0)
    assert report.detail == "point is outside the central simplex"


def _assert_jittered_arrangement(planes, point, colors):
    """The fallback of ``_arrangement_in_general_position``: the planes are refused
    as they are, and the jittered arrangement keeps each plane's strict sides of
    the point and of every color but its own, the same for the same seed."""
    with pytest.raises(PreconditionError):
        build_arrangement(planes)
    arr = selection._arrangement_in_general_position(planes, point, colors, seed=5)
    assert isinstance(arr, HyperplaneArrangement)
    for i, (h, hj) in enumerate(zip(planes, arr.hyperplanes)):
        pts = [point] + [q for j, c in enumerate(colors) if j != i for q in c]
        before, after = plane_signs(pts, [h, hj]).T
        assert before.all() and (before[1:] == -before[0]).all()
        assert np.array_equal(after, before) or np.array_equal(after, -before)
    assert selection._arrangement_in_general_position(planes, point, colors, seed=5) == arr


def test_arrangement_jitter_separates_two_equal_planes():
    x_is_1 = OrientedHyperplane((1,), 1)
    _assert_jittered_arrangement([x_is_1, x_is_1], (Fraction(0),), [[(2,)], [(3,)]])


def test_arrangement_jitter_separates_two_parallel_planes():
    # planes 0 and 1 are x = 1 and x = 2: the normals other than plane 2's are dependent
    planes = [OrientedHyperplane(n, c) for n, c in [((1, 0), 1), ((1, 0), 2), ((0, 1), 1)]]
    _assert_jittered_arrangement(planes, (Fraction(0), Fraction(0)), [[(3, 3)], [(4, 2)], [(5, -1)]])


def test_grow_selection_reaches_a_maximal_complete_box():
    from pachsel.selection import grow_selection

    ps = random_labeled_set(2, 10, seed=60)
    cert = run_pipeline(ps, PipelineParams(seed=3, grow=False))
    h = rainbow_hypergraph(ps, cert.point)
    grown = grow_selection(h, cert.index_sets)
    for ci in range(3):
        assert set(cert.index_sets[ci]) <= set(grown[ci])
    # every simplex of the grown box contains the anchor ...
    assert naive_closed_containment_fraction(ps, grown, cert.point) == 1
    # ... and no single vertex can be added to any color
    for ci in range(3):
        for v in range(10):
            if v in grown[ci]:
                continue
            probe = list(grown)
            probe[ci] = [v]
            assert not bool(h.edges[np.ix_(*probe)].all())


def _grow_by_vertex(h, index_sets):
    """Reference growth: each vertex of color i probed alone against the
    current other colors, colors in index order until none grows."""
    current = [sorted(idxs) for idxs in index_sets]
    changed = True
    while changed:
        changed = False
        for ci in range(len(current)):
            members = set(current[ci])
            probe = list(current)
            for v in range(h.sizes[ci]):
                if v in members:
                    continue
                probe[ci] = [v]
                if bool(h.edges[np.ix_(*probe)].all()):
                    members.add(v)
                    changed = True
            current[ci] = sorted(members)
    return tuple(tuple(c) for c in current)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=4),
    st.sampled_from([0.5, 0.8, 0.95]),
    st.integers(0, 10**6),
)
def test_grow_selection_matches_the_per_vertex_probe(sizes, density, seed):
    """Random boolean tensors made complete on a random starting box: one
    slice per color grows the same box as probing each vertex alone."""
    from pachsel.selection import grow_selection

    rng = np.random.default_rng(seed)
    edges = rng.random(sizes) < density
    start = [np.flatnonzero(rng.random(n) < 0.5).tolist() or [int(rng.integers(n))] for n in sizes]
    edges[np.ix_(*start)] = True
    h = RainbowHypergraph(edges)
    assert grow_selection(h, start) == _grow_by_vertex(h, start)


def test_pipeline_growth_improves_fractions_and_stays_sound():
    ps = random_labeled_set(2, 10, seed=61)
    plain = run_pipeline(ps, PipelineParams(seed=4, grow=False))
    grown = run_pipeline(ps, PipelineParams(seed=4, grow=True))
    assert sum(map(len, grown.index_sets)) >= sum(map(len, plain.index_sets))
    assert verify_certificate(ps, grown, "arrangement").ok
    assert verify_certificate(ps, grown, "exhaustive").fraction == 1
    if grown.index_sets != plain.index_sets:
        assert any(s.get("stage") == "grow" for s in grown.stages)


def test_certificate_json_roundtrip():
    ps = random_labeled_set(2, 5, seed=55)
    cert = run_pipeline(ps, PipelineParams(seed=2))
    jd = cert.to_json_dict()
    back = PachCertificate.from_json_dict(jd)
    assert back == cert
