import itertools
import random
from math import comb, prod
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pachsel.constructions import uniform_ball_set
from pachsel import enumeration
from pachsel.enumeration import RainbowEnumerator
from pachsel.errors import (
    BudgetExceededError,
    GeneralPositionError,
    InputValidationError,
    PreconditionError,
)
from pachsel.geometry import (
    LabeledPointSet,
    OrientedHyperplane,
    in_general_position,
    point_in_simplex,
    satisfies_condition_G,
    spanned_signs,
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
    certificate_configuration,
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

from conftest import naive_closed_containment_fraction, random_labeled_set


# ---------------------------------------------------------------------------
# enumeration engine


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
    enum = RainbowEnumerator(colors)
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
        closed, open_, total = RainbowEnumerator(colors).containment_counts(p)
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
        depths = RainbowEnumerator(colors).depths(batch)
        for counts, mask in zip(depths, masks):
            assert counts.tolist() == mask.reshape(len(batch), -1).sum(axis=1).tolist()
        monkeypatch.undo()


def test_containment_handles_degenerate_simplices():
    colors = [[(0, 0), (2, 2)], [(1, 1)], [(3, 3), (0, 1)]]  # collinear combos exist
    closed, open_, total = RainbowEnumerator(colors).containment_counts((1, 1))
    assert total == 4
    assert open_ == 0  # p is a vertex or on degenerate simplices only
    assert closed >= 1  # p equals the color-1 point, in every closed hull
    half = Fraction(1, 2)
    batch = [(1, 1), (half, half), (0, half), (half, half), (3, 3), (-1, -1)]
    closed, _ = _assert_batch_matches_oracles(colors, batch)
    assert closed[1, 0, 0, 0] and not closed[5, 0, 0, 0]  # on and off the degenerate segment


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
    enum = RainbowEnumerator(colors)  # no OverflowError past the float range
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


def test_deep_point_requires_general_position():
    ps = LabeledPointSet.create(1, [[(0,), (0,)], [(1,), (2,)]])
    with pytest.raises(GeneralPositionError):
        deep_rainbow_point(ps)


def test_deep_point_budget():
    ps = random_labeled_set(1, 4, seed=3)
    with pytest.raises(BudgetExceededError):
        deep_rainbow_point(ps, budget=3)


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
    enum = RainbowEnumerator([list(c) for c in ps.colors])
    before_open = enum.containment_masks([p])[1][0]
    assert int(before_open.sum()) >= 1
    moved = perturb_anchor(p, ps, seed=7)
    assert moved != p
    assert in_general_position(ps.union_points() + [moved])
    after_open = enum.containment_masks([moved])[1][0]
    assert np.array_equal(before_open, before_open & after_open)


def _reference_nudge(anchor, points, seed):
    """One spanned_signs call per retry: the candidate that passes first and
    how many failed before it."""
    (base,), _ = spanned_signs(points, [anchor])
    rng = random.Random(seed)
    magnitude = (max(abs(Fraction(c)) for p in points for c in p) + 1) / (1 << 20)
    for attempt in range(selection._PERTURB_RETRIES):
        direction = selection._random_rational_vector(rng, len(anchor))
        cand = tuple(a + magnitude * u for a, u in zip(anchor, direction))
        (signs,), _ = spanned_signs(points, [cand])
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
    tables = []
    spanned_cofactors = selection.spanned_cofactors

    def counted(*args):
        tables.append(args)
        return spanned_cofactors(*args)

    monkeypatch.setattr(selection, "spanned_cofactors", counted)
    assert selection._nudge_off_hyperplanes(anchor, points, seed=3) == expected
    assert len(tables) == 1


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


def _per_tuple_witness(h, parts, ts, budget, rng):
    """The zero-edge witness search one candidate tuple at a time."""
    n_tuples = prod(comb(len(part), t) for part, t in zip(parts, ts))
    if n_tuples <= selection._EXHAUSTIVE_WITNESS_CAP:
        combos = itertools.product(*[itertools.combinations(part, t) for part, t in zip(parts, ts)])
        for combo in combos:
            if h.sub_edge_count(combo) == 0:
                return tuple(combo), "exhaustive", n_tuples
        return None, "exhaustive", n_tuples
    for trial in range(budget):
        combo = tuple(tuple(sorted(rng.sample(part, t))) for part, t in zip(parts, ts))
        if h.sub_edge_count(combo) == 0:
            return combo, "sampled", trial + 1
    return None, "sampled", budget


def _assert_witness_searches_agree(h, parts, ts, budget, seed):
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    fast = selection._find_zero_edge_witness(h, parts, ts, budget, fast_rng)
    assert fast == _per_tuple_witness(h, parts, ts, budget, slow_rng)
    assert fast_rng.getstate() == slow_rng.getstate()
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
        if sampled:  # the candidate the generator draws at that trial
            rng = random.Random(7)
            for _ in range(position + 1):
                combo = tuple(tuple(sorted(rng.sample(part, t))) for part in parts)
        else:
            combos = itertools.product(*[itertools.combinations(part, t) for part in parts])
            combo = next(itertools.islice(combos, position, None))
        edges = np.ones((n,) * k, dtype=bool)
        edges[np.ix_(*combo)] = False
        # a budget just past the witness ends the second block early
        witness, _, trials = _assert_witness_searches_agree(
            RainbowHypergraph(edges), parts, (t,) * k, position + 3, 7
        )
        assert witness == combo
        if sampled:
            assert trials == position + 1


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
    assert cut.value((2,)) == 0
    assert cut.side((1,)) != cut.side((3,))


def test_ham_sandwich_alternating_quadrilaterals():
    # two sets of 4 points in convex position, alternating on a circle
    a = [(4, 0), (0, 4), (-4, 0), (0, -4)]
    b = [(3, 3), (-3, 3), (-3, -3), (3, -3)]
    a = [(x + Fraction(1, 97), y + Fraction(1, 89)) for x, y in a]
    cut = ham_sandwich_bisect([a, b])
    for s in (a, b):
        on = sum(1 for q in s if cut.side(q) == 0)
        pos = sum(1 for q in s if cut.side(q) > 0)
        neg = sum(1 for q in s if cut.side(q) < 0)
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
        on = sum(1 for q in s if cut.side(q) == 0)
        assert sum(1 for q in s if cut.side(q) > 0) >= (5 - on) // 2
        assert sum(1 for q in s if cut.side(q) < 0) >= (5 - on) // 2


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
        on = sum(1 for q in s if cut.side(q) == 0)
        pos = sum(1 for q in s if cut.side(q) > 0)
        neg = sum(1 for q in s if cut.side(q) < 0)
        assert pos >= (5 - on) // 2 and neg >= (5 - on) // 2
    assert sum(1 for s in sets for q in s if cut.side(q) == 0) == 3  # one per set


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
    assert fraction == (1 if res.all_contain else 0)


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
        sides = [[h.side(q) for q in s] for s in sets]
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
    assert selection._spanned_bisecting_cut(sets) == _reference_bisecting_cut(sets)


def test_ham_sandwich_rejects_degenerate_input():
    with pytest.raises(GeneralPositionError):
        ham_sandwich_bisect([[(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 0), (5, 5)]])
    with pytest.raises(PreconditionError):
        ham_sandwich_bisect([[], [(0, 1)]])


# ---------------------------------------------------------------------------
# few separations


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
    if res.all_contain:
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
        assert fraction == (1 if res.all_contain else 0)
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
    assume(satisfies_condition_G([p for c in colors for p in c]).is_true)
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
    cfg = certificate_configuration(ps, cert)
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
