import math
import threading
import tracemalloc
from dataclasses import asdict
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pachsel import cones
from pachsel.cones import (
    BoundTable,
    Simplex,
    SimplicialCone,
    acute_cone_admissible_deviation,
    bound_table,
    msa_mc,
    msa_upper_bound,
    msa_upper_bound_is_clamped,
    normal_fan_cover_check,
    polar_cone,
    regular_simplex,
    restricted_volume_mc,
    rho_d_asymptotic,
    round_cone_cut_distance,
    round_cone_polar_volume_bound,
    round_cone_restricted_volume_mc,
    solid_angle_mc,
    spherical_cap_fraction,
    unit_ball_volume,
)
from pachsel.errors import PreconditionError

from conftest import _FLAT_PEAK_MIB, argmax_fan_counts, per_cone_vertex_hits


def spherical_triangle_solid_angle(apex, others):
    """Van Oosterom--Strackee spherical-triangle oracle, normalized by 4 pi."""
    r = [np.asarray(o, dtype=float) - np.asarray(apex, dtype=float) for o in others]
    n = [np.linalg.norm(v) for v in r]
    numer = abs(np.linalg.det(np.stack(r)))
    denom = (
        n[0] * n[1] * n[2]
        + np.dot(r[0], r[1]) * n[2]
        + np.dot(r[0], r[2]) * n[1]
        + np.dot(r[1], r[2]) * n[0]
    )
    omega = 2.0 * math.atan2(numer, denom)
    return omega / (4.0 * math.pi)


EQUILATERAL = Simplex.create([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
RIGHT = Simplex.create([(0, 0), (1, 0), (0, 1)])
TETRA = Simplex.create([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def test_solid_angle_right_corner_quarter():
    est = solid_angle_mc(RIGHT, 0, 200_000, seed=1)
    assert est.mean == pytest.approx(0.25, abs=0.004)
    assert est.std_error < 0.0012


def test_solid_angle_equilateral_sixth():
    est = solid_angle_mc(EQUILATERAL, 1, 200_000, seed=2)
    assert est.mean == pytest.approx(1 / 6, abs=0.004)


def test_solid_angle_regular_tetrahedron_matches_oracle():
    oracle = spherical_triangle_solid_angle(TETRA.vertices[0], TETRA.vertices[1:])
    closed_form = (3 * math.acos(1 / 3) - math.pi) / (4 * math.pi)
    assert oracle == pytest.approx(closed_form, abs=1e-12)
    est = solid_angle_mc(TETRA, 0, 300_000, seed=3)
    assert est.mean == pytest.approx(oracle, abs=0.002)


def test_solid_angle_rejects_degenerate():
    bad = Simplex.create([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(PreconditionError):
        solid_angle_mc(bad, 0, 10, seed=0)


def test_triangle_angles_sum_to_half():
    rng = np.random.default_rng(8)
    for _ in range(5):
        tri = Simplex.create(rng.standard_normal((3, 2)))
        if tri.is_degenerate():
            continue
        ests = [solid_angle_mc(tri, i, 50_000, seed=10 + i) for i in range(3)]
        total = sum(e.mean for e in ests)
        sigma = math.sqrt(sum(e.std_error**2 for e in ests))
        assert abs(total - 0.5) <= 3 * sigma + 1e-9


def test_msa_equilateral():
    est = msa_mc(EQUILATERAL, 60_000, seed=4)
    assert est.value == pytest.approx(1 / 6, abs=0.006)
    assert est.vertex in (0, 1, 2)
    assert len(est.per_vertex) == 3


def test_msa_thin_triangle_small_at_base():
    h = 1e-3
    thin = Simplex.create([(0, 0), (1, 0), (0.5, h)])
    est = msa_mc(thin, 60_000, seed=5)
    assert est.vertex in (0, 1)  # apex angle tends to a half turn
    assert est.value < 0.01


def test_msa_upper_bound_values():
    # direct evaluation of min((2 ln(d+1)/d)^((d-1)/2) * d/(2 pi), 1/2)
    assert msa_upper_bound(3) == pytest.approx(
        (2 * math.log(4) / 3) ** 1.0 * 3 / (2 * math.pi)
    )
    assert msa_upper_bound(3) == pytest.approx(0.44127, abs=1e-4)
    assert msa_upper_bound(2) == pytest.approx(math.sqrt(math.log(3)) / math.pi)
    assert not msa_upper_bound_is_clamped(2)
    val100 = msa_upper_bound(100)
    assert val100 < 1e-50
    assert val100 == pytest.approx(9.547e-51, rel=1e-3)
    for d in range(1, 40):
        assert msa_upper_bound(d) <= 0.5


def test_random_simplices_respect_msa_bound():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        bound = msa_upper_bound(d)
        done = 0
        while done < 200:
            s = Simplex.create(rng.standard_normal((d + 1, d)))
            if s.is_degenerate():
                continue
            est = msa_mc(s, 20_000, seed=1000 * d + done)
            assert est.value <= bound + 3 * est.std_error
            done += 1


def test_rho_d_asymptotic_against_known_low_dims():
    rho2 = rho_d_asymptotic(2)
    rel2 = abs(rho2 - 1 / 6) / (1 / 6)
    assert 0 < rho2 < 1 / 6
    assert rel2 < 0.6  # leading term only; O(1/d) error recorded
    oracle3 = (3 * math.acos(1 / 3) - math.pi) / (4 * math.pi)
    rho3 = rho_d_asymptotic(3)
    assert 0 < rho3 < oracle3
    assert abs(rho3 - oracle3) / oracle3 < 0.5
    values = [rho_d_asymptotic(d) for d in range(2, 40)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_bound_table_row():
    row = bound_table(3)
    assert isinstance(row, BoundTable)
    assert row.corner_fraction_bound == row.msa_bound * 8  # exact in float64
    assert row.lower_bound_exponent == 18
    assert not row.clamped


def test_polar_cone_quadrant():
    c = SimplicialCone.create((0, 0), [(1, 0), (0, 1)])
    p = polar_cone(c)
    got = sorted(tuple(np.round(g, 12)) for g in p.generators)
    assert got == [(-1.0, -0.0), (-0.0, -1.0)] or got == [(-1.0, 0.0), (0.0, -1.0)]
    assert np.all(p.generators @ c.generators.T <= 1e-12)


def test_polar_cone_degenerate_rejected():
    with pytest.raises(PreconditionError):
        polar_cone(SimplicialCone.create((0, 0), [(1, 0), (1, 1e-15)]))
    with pytest.raises(PreconditionError):
        polar_cone(SimplicialCone.create((1, 0), [(1, 0), (0, 1)]))


def test_polar_cone_involution():
    rng = np.random.default_rng(23)
    for trial in range(30):
        gens = rng.standard_normal((3, 3))
        cone = SimplicialCone.create((0, 0, 0), gens)
        if cone.is_degenerate():
            continue
        back = polar_cone(polar_cone(cone))
        # generator sets match up to order
        a = np.sort(np.round(cone.generators, 9), axis=0)
        b = np.sort(np.round(back.generators, 9), axis=0)
        assert np.max(np.abs(a - b)) < 1e-9


def test_restricted_volume_quadrant_and_orthant():
    quad = SimplicialCone.create((0, 0), [(1, 0), (0, 1)])
    est = restricted_volume_mc(quad, 200_000, seed=6)
    assert est.mean == pytest.approx(math.pi / 4, abs=4 * est.std_error + 1e-9)
    orthant = SimplicialCone.create((0, 0, 0), np.eye(3))
    est3 = restricted_volume_mc(orthant, 200_000, seed=7)
    assert est3.mean == pytest.approx(4 * math.pi / 3 / 8, abs=4 * est3.std_error + 1e-9)


def test_quadrant_plus_polar_fill_half_plane():
    quad = SimplicialCone.create((0, 0), [(1, 0), (0, 1)])
    polar = polar_cone(quad)
    beta = unit_ball_volume(2)
    v1 = restricted_volume_mc(quad, 150_000, seed=8)
    v2 = restricted_volume_mc(polar, 150_000, seed=9)
    assert (v1.mean + v2.mean) / beta == pytest.approx(0.5, abs=0.01)


def test_plane_cone_plus_polar_always_fill_half():
    # a planar wedge of angle t has polar of angle pi - t, so the restricted
    # volumes always sum to half the disk
    rng = np.random.default_rng(43)
    beta = unit_ball_volume(2)
    for trial in range(5):
        gens = rng.standard_normal((2, 2))
        cone = SimplicialCone.create((0, 0), gens)
        if cone.is_degenerate():
            continue
        v1 = restricted_volume_mc(cone, 100_000, seed=50 + trial)
        v2 = restricted_volume_mc(polar_cone(cone), 100_000, seed=80 + trial)
        sigma = math.hypot(v1.std_error, v2.std_error)
        assert abs((v1.mean + v2.mean) / beta - 0.5) <= (3 * sigma / beta + 1e-9)


def test_normal_fan_equilateral_thirds():
    report = normal_fan_cover_check(EQUILATERAL, 120_000, seed=10)
    assert report.coverage == 1.0
    assert all(abs(f - 1 / 3) < 0.01 for f in report.fractions)
    assert report.max_fraction >= 1 / 3 - 3 * math.sqrt((1 / 3) * (2 / 3) / 120_000)


def test_normal_fan_max_fraction_lower_bound():
    rng = np.random.default_rng(29)
    for d in (2, 3):
        for trial in range(20):
            s = Simplex.create(rng.standard_normal((d + 1, d)))
            if s.is_degenerate():
                continue
            rep = normal_fan_cover_check(s, 30_000, seed=trial)
            assert rep.coverage == 1.0
            sigma = math.sqrt(rep.max_fraction * (1 - rep.max_fraction) / 30_000)
            assert rep.max_fraction >= 1 / (d + 1) - 3 * sigma


def test_round_cone_cut_distance_closed_form_d3():
    # d=3, cap fraction (1 - gamma)/2 analytically; w = beta3/4 gives gamma = 1/2
    beta3 = unit_ball_volume(3)
    gamma = round_cone_cut_distance(3, beta3 / 4)
    assert gamma == pytest.approx(0.5, abs=1e-9)
    bound = round_cone_polar_volume_bound(3, beta3 / 4)
    assert bound == pytest.approx(0.25 * unit_ball_volume(2), abs=1e-8)


@pytest.mark.parametrize("d", range(2, 41))
def test_spherical_cap_fraction_matches_betainc(d):
    betainc = pytest.importorskip("scipy.special").betainc
    for gamma in np.linspace(0.0, 1.0, 201).tolist():
        expected = 0.5 * float(betainc((d - 1) / 2, 0.5, 1.0 - gamma * gamma))
        assert spherical_cap_fraction(d, gamma) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_round_cone_bound_limits_and_monotonicity():
    beta = unit_ball_volume(3)
    near_half = beta / 2 * (1 - 1e-9)
    assert round_cone_polar_volume_bound(3, near_half) < 1e-3
    ws = [beta * f for f in (0.05, 0.15, 0.25, 0.35, 0.45)]
    bounds = [round_cone_polar_volume_bound(3, w) for w in ws]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    with pytest.raises(PreconditionError):
        round_cone_polar_volume_bound(3, beta)
    with pytest.raises(PreconditionError):
        round_cone_polar_volume_bound(1, 0.5)


def test_round_cone_bound_dominates_mc_of_polar_round_cone():
    beta3 = unit_ball_volume(3)
    w = beta3 / 4
    gamma = round_cone_cut_distance(3, w)
    bound = round_cone_polar_volume_bound(3, w)
    polar_cos = math.sqrt(1 - gamma * gamma)
    est = round_cone_restricted_volume_mc(3, polar_cos, 200_000, seed=11)
    assert est.mean <= bound + 3 * est.std_error
    # and the cap fraction formula matches the MC of the cone itself
    own = round_cone_restricted_volume_mc(3, gamma, 200_000, seed=12)
    assert own.mean / beta3 == pytest.approx(spherical_cap_fraction(3, gamma), abs=0.005)


def test_blaschke_santalo_statistical_check():
    rng = np.random.default_rng(31)
    beta = unit_ball_volume(3)
    samples = 40_000
    count = 0
    trial = 0
    while count < 50:
        trial += 1
        cone = SimplicialCone.create((0, 0, 0), rng.standard_normal((3, 3)))
        if cone.is_degenerate() or abs(np.linalg.det(cone.generators)) < 1e-3:
            continue
        count += 1
        w_est = restricted_volume_mc(cone, samples, seed=1000 + trial)
        w = min(max(w_est.mean, 1e-9), beta / 2 * (1 - 1e-12))
        polar_est = restricted_volume_mc(polar_cone(cone), samples, seed=2000 + trial)
        gamma = round_cone_cut_distance(3, w)
        round_polar_cos = math.sqrt(1 - gamma * gamma)
        round_polar_est = round_cone_restricted_volume_mc(
            3, round_polar_cos, samples, seed=3000 + trial
        )
        sigma = math.sqrt(polar_est.std_error**2 + round_polar_est.std_error**2)
        assert polar_est.mean <= round_polar_est.mean + 3 * sigma + 1e-9
        cylinder = round_cone_polar_volume_bound(3, w)
        assert polar_est.mean <= cylinder + 3 * polar_est.std_error + 1e-9


def test_acute_deviation_identical_cones():
    orthant = SimplicialCone.create((0, 0, 0), np.eye(3))
    rep = acute_cone_admissible_deviation(orthant, orthant, 5_000, seed=13)
    assert rep.delta == 0.0
    assert rep.observed_max == 0.0


def test_acute_deviation_rotation_2d():
    theta = 0.05
    base = np.array([[1.0, 0.3], [0.3, 1.0]])
    base /= np.linalg.norm(base, axis=1)[:, None]
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    c = SimplicialCone.create((0, 0), base)
    cp = SimplicialCone.create((0, 0), base @ rot.T)
    rep = acute_cone_admissible_deviation(c, cp, 20_000, seed=14)
    assert rep.delta == pytest.approx(2 * math.sin(theta / 2), abs=1e-12)
    assert rep.observed_max <= rep.bound
    assert rep.bound == pytest.approx(2 * 4 * rep.delta)


def test_acute_deviation_perturbed_orthant():
    rng = np.random.default_rng(37)
    orthant = SimplicialCone.create((0, 0, 0), np.eye(3))
    pert = SimplicialCone.create((0, 0, 0), np.eye(3) + 1e-3 * rng.random((3, 3)))
    rep = acute_cone_admissible_deviation(orthant, pert, 20_000, seed=15)
    assert rep.observed_max <= 2 * 9 * rep.delta
    assert rep.observed_max <= rep.bound


def test_acute_deviation_rejects_non_acute():
    wide = SimplicialCone.create((0, 0), [(1, 0), (-0.5, 1)])
    with pytest.raises(PreconditionError):
        acute_cone_admissible_deviation(wide, wide, 100, seed=0)


def test_acute_deviation_bound_over_random_acute_cones():
    rng = np.random.default_rng(41)
    for trial in range(20):
        gens = np.abs(rng.standard_normal((3, 3))) + 0.05
        base = SimplicialCone.create((0, 0, 0), gens)
        pert = SimplicialCone.create((0, 0, 0), gens + 0.01 * np.abs(rng.random((3, 3))))
        if base.is_degenerate() or pert.is_degenerate():
            continue
        rep = acute_cone_admissible_deviation(base, pert, 5_000, seed=trial)
        assert rep.observed_max <= rep.bound


def test_regular_simplex_and_msa_search_mode():
    from pachsel.cones import msa_regular_comparison_search

    for d in (2, 3, 4):
        s = regular_simplex(d)
        dists = [
            np.linalg.norm(s.vertices[i] - s.vertices[j])
            for i in range(d + 1)
            for j in range(i + 1, d + 1)
        ]
        assert max(dists) - min(dists) < 1e-12
        assert np.allclose(np.linalg.norm(s.vertices, axis=1), 1.0)
    # the regular triangle's vertex angle is exactly 1/6
    est = solid_angle_mc(regular_simplex(2), 0, 100_000, seed=3)
    assert est.mean == pytest.approx(1 / 6, abs=0.005)
    # random search: no candidate expected in low dimension, report is data
    rep = msa_regular_comparison_search(3, trials=20, samples=20_000, seed=5)
    assert rep.trials == 20
    assert rep.candidates == ()
    assert rep.best_value <= rep.regular_angle.mean + 0.05
    assert "regular_angle" in asdict(rep)


def test_mc_determinism_same_seed():
    a = solid_angle_mc(EQUILATERAL, 0, 50_000, seed=99)
    b = solid_angle_mc(EQUILATERAL, 0, 50_000, seed=99)
    assert a == b


@pytest.mark.parametrize("d, hits", [(2, 167_372), (3, 44_047)])
def test_solid_angle_mc_regular_simplex_is_pinned(d, hits):
    """10^6 seeded samples at vertex 0 hit the cone exactly as often as the
    ``np.all(axis=1)`` inside-test did; the column-wise test must not move a
    single sample."""
    assert solid_angle_mc(regular_simplex(d), 0, 10**6, 11).mean == hits / 10**6


def _random_simplex(d, seed):
    return Simplex.create(np.random.default_rng(seed).standard_normal((d + 1, d)))


# Per-vertex hits of 10^6 directions at seed 31, and fan-cover counts at seed
# 33, recorded on the per-cone inverse kernel before the barycentric one.  The
# d=5 hits and the d=1, 4, 5 fan counts were recorded on whole-chunk draws and
# the row-wise argmax fan count.
_PINNED_VERTEX_HITS = {
    (2, 2026): [428_019, 35_170, 36_849],
    (3, 2027): [30_926, 4_377, 25_510, 65_256],
    (4, 2024): [6_302, 7_353, 3_758, 7_220, 1_650],
    (5, 2020): [997, 6_642, 899, 449, 667, 1_191],
}
_PINNED_FAN_COUNTS = {
    (1, 2025): [500_029, 499_971],
    (2, 2026): [72_285, 463_592, 464_123],
    (3, 2027): [218_374, 400_279, 259_530, 121_817],
    (4, 2024): [177_697, 161_059, 220_274, 166_143, 274_827],
    (5, 2028): [241_095, 60_100, 112_893, 47_632, 232_953, 305_327],
}


@pytest.mark.parametrize("d, simplex_seed", sorted(_PINNED_VERTEX_HITS))
def test_msa_mc_vertex_hits_are_pinned(d, simplex_seed):
    est = msa_mc(_random_simplex(d, simplex_seed), 10**6, 31)
    assert [e.mean for e in est.per_vertex] == [
        h / 10**6 for h in _PINNED_VERTEX_HITS[d, simplex_seed]
    ]


@pytest.mark.parametrize("d, simplex_seed", sorted(_PINNED_FAN_COUNTS))
def test_normal_fan_cover_counts_are_pinned(d, simplex_seed):
    report = normal_fan_cover_check(_random_simplex(d, simplex_seed), 10**6, 33)
    assert list(report.fractions) == [h / 10**6 for h in _PINNED_FAN_COUNTS[d, simplex_seed]]


@pytest.mark.parametrize("d, hits", [(2, 182_245), (3, 10_653), (4, 722)])
def test_restricted_volume_mc_is_pinned(d, hits):
    gens = np.abs(np.random.default_rng(70 + d).standard_normal((d, d))) + 0.05
    est = restricted_volume_mc(SimplicialCone.create(np.zeros(d), gens), 10**6, 34)
    assert est.mean == unit_ball_volume(d) * (hits / 10**6)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 4),
    simplex_seed=st.integers(0, 2**32 - 1),
    samples=st.one_of(st.integers(1, 8), st.sampled_from([1_000, 70_000])),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, simplex_seed=0, samples=1, seed=0)
@example(d=4, simplex_seed=1, samples=2, seed=7)
def test_msa_mc_vertices_are_solid_angle_mc_at_the_same_seed(d, simplex_seed, samples, seed):
    """msa_mc tests one stream against every vertex cone: each per-vertex
    estimate is the whole McEstimate solid_angle_mc returns at that vertex and
    seed, across chunk boundaries too, and the minimum goes to the lowest
    index among ties (frequent at a handful of samples)."""
    simplex = _random_simplex(d, simplex_seed)
    assume(not simplex.is_degenerate())
    est = msa_mc(simplex, samples, seed)
    expected = tuple(solid_angle_mc(simplex, i, samples, seed) for i in range(d + 1))
    assert est.per_vertex == expected
    means = [e.mean for e in expected]
    assert est.vertex == means.index(min(means))
    assert (est.value, est.std_error) == (expected[est.vertex].mean, expected[est.vertex].std_error)


# Below one chunk, and chunk counts that leave a short last chunk.
_MAP_SAMPLES = st.one_of(
    st.integers(1, 3_000), st.sampled_from([cones._CHUNK + 1, 3 * cones._CHUNK + 17])
)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 5),
    simplex_seed=st.integers(0, 2**32 - 1),
    thin=st.sampled_from([1.0, 1e-3, 1e-6]),
    samples=_MAP_SAMPLES,
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, simplex_seed=3, thin=1e-3, samples=3 * cones._CHUNK + 17, seed=1)
@example(d=5, simplex_seed=1, thin=1e-6, samples=cones._CHUNK + 1, seed=2)
def test_vertex_cone_counts_match_the_per_cone_reference(d, simplex_seed, thin, samples, seed):
    """The barycentric kernel counts every vertex cone, in msa_mc's one
    product and in solid_angle_mc's d columns, exactly as one inverse per
    cone does.  With thin < 1 vertex 2 moves toward vertex 1 by that factor,
    so vertex 0 has a tiny angle and its cone an ill-conditioned inverse."""
    vertices = np.random.default_rng(simplex_seed).standard_normal((d + 1, d))
    vertices[2] = vertices[1] + thin * (vertices[2] - vertices[1])
    simplex = Simplex.create(vertices)
    assume(not simplex.is_degenerate())
    expected = [h / samples for h in per_cone_vertex_hits(simplex.vertices, samples, seed)]
    assert [e.mean for e in msa_mc(simplex, samples, seed).per_vertex] == expected
    assert solid_angle_mc(simplex, 0, samples, seed).mean == expected[0]


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 5),
    cone_seed=st.integers(0, 2**32 - 1),
    samples=_MAP_SAMPLES,
    seed=st.integers(0, 2**32 - 1),
)
def test_restricted_volume_mc_matches_the_per_cone_reference(d, cone_seed, samples, seed):
    """A cone's restricted volume is beta_d times the hit share of its
    directions, counted as vertex 0 of the simplex (0, g_1, ..., g_d)."""
    gens = np.random.default_rng(cone_seed).standard_normal((d, d))
    cone = SimplicialCone.create(np.zeros(d), gens)
    assume(not cone.is_degenerate())
    [hits, *_] = per_cone_vertex_hits(np.vstack([cone.apex, cone.generators]), samples, seed)
    assert restricted_volume_mc(cone, samples, seed).mean == unit_ball_volume(d) * (hits / samples)


# Sample counts that end inside a block, on a block edge, past a few blocks,
# and one chunk or three chunks plus a short one.
_FAN_SAMPLES = st.one_of(
    st.integers(1, 3_000),
    st.sampled_from(
        [cones._BLOCK, cones._BLOCK + 1, 3 * cones._BLOCK + 5, cones._CHUNK + 1, 3 * cones._CHUNK + 17]
    ),
)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 6), simplex_seed=st.integers(0, 2**32 - 1), samples=_FAN_SAMPLES,
       seed=st.integers(0, 2**32 - 1))
@example(d=6, simplex_seed=0, samples=3 * cones._CHUNK + 17, seed=1)
@example(d=1, simplex_seed=2, samples=cones._BLOCK + 1, seed=3)
def test_normal_fan_counts_match_the_argmax_reference(d, simplex_seed, samples, seed):
    """Each direction goes to the lowest index of its largest u.v_i, counted
    exactly as a row-wise argmax and ``bincount`` of the same block products."""
    simplex = _random_simplex(d, simplex_seed)
    assume(not simplex.is_degenerate())
    expected = argmax_fan_counts(simplex.vertices, samples, seed)
    report = normal_fan_cover_check(simplex, samples, seed)
    assert report.fractions == tuple(float(f) for f in expected / samples)


@settings(max_examples=60, deadline=None)
@given(
    columns=st.integers(2, 7),
    rows=st.sampled_from([1, 2, 7, 100, cones._BLOCK]),
    seed=st.integers(0, 2**32 - 1),
    infinite=st.booleans(),
)
@example(columns=3, rows=7, seed=0, infinite=False)
def test_fan_counts_break_planted_ties_to_the_lowest_column(columns, rows, seed, infinite):
    """Product blocks with exact ties: small integers (with signed zeros, and
    some infinities), a duplicated column and constant rows.  Every row goes
    to the lowest column holding its maximum, as ``np.argmax`` picks it."""
    rng = np.random.default_rng(seed)
    products = rng.integers(-2, 3, size=(rows, columns)).astype(float)
    products[rng.random((rows, columns)) < 0.5] *= -1.0  # -0.0 beside 0.0
    i, j = rng.choice(columns, size=2, replace=False)
    products[:, j] = products[:, i]
    products[rng.random(rows) < 0.2] = rng.integers(-2, 3)
    if infinite:
        products[rng.random((rows, columns)) < 0.1] = np.inf
        products[rng.random((rows, columns)) < 0.1] = -np.inf
    expected = np.bincount(np.argmax(products, axis=1), minlength=columns)
    assert np.array_equal(cones._fan_counts(products), expected)


def test_msa_mc_ties_go_to_the_lowest_index():
    # one sample: every vertex mean is 0 or 1, so the minimum is shared
    est = msa_mc(regular_simplex(3), 1, seed=0)
    means = [e.mean for e in est.per_vertex]
    assert means.count(est.value) >= 2
    assert est.vertex == means.index(est.value)


def _exact_vertex_angle(simplex, i):
    """Normalized solid angle at vertex i: the angle over 2 pi at d=2, the
    Van Oosterom--Strackee spherical triangle at d=3."""
    apex = simplex.vertices[i]
    others = np.delete(simplex.vertices, i, axis=0)
    if simplex.dim == 3:
        return spherical_triangle_solid_angle(apex, others)
    a, b = others - apex
    return math.atan2(abs(a[0] * b[1] - a[1] * b[0]), float(a @ b)) / (2 * math.pi)


_Z_SAMPLES = 200_000
_Z_EXAMPLES = 60
_Z_FALSE_ALARM = 1e-3
# Bonferroni over at most 4 vertex checks per example: a correct estimator
# fails some check with probability at most _Z_FALSE_ALARM on fresh seeds.
_Z_BOUND = NormalDist().inv_cdf(1 - _Z_FALSE_ALARM / (2 * 4 * _Z_EXAMPLES))


@settings(max_examples=_Z_EXAMPLES, derandomize=True, deadline=None)
@given(d=st.integers(2, 3), simplex_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
def test_msa_mc_vertices_match_closed_forms(d, simplex_seed, seed):
    """z-test of every msa_mc vertex estimate against its exact angle at d=2
    and d=3.  The |z| bound (about 3.9) is Bonferroni over every check the
    test can make, for a family-wise false-alarm rate of 1e-3 per run of the
    test.  The exact standard error is used, and vertices whose expected hit
    count n min(p, 1-p) is below 100 are not drawn, so that the normal
    approximation of the binomial tail holds; examples are derandomized, so
    the verdict is fixed."""
    simplex = _random_simplex(d, simplex_seed)
    assume(not simplex.is_degenerate())
    exact = [_exact_vertex_angle(simplex, i) for i in range(d + 1)]
    assume(min(exact) * _Z_SAMPLES >= 100)
    est = msa_mc(simplex, _Z_SAMPLES, seed)
    for e, p in zip(est.per_vertex, exact):
        z = (e.mean - p) / math.sqrt(p * (1 - p) / _Z_SAMPLES)
        assert abs(z) <= _Z_BOUND, (e, p, z)


def test_msa_search_trials_draw_distinct_streams(monkeypatch):
    """Each trial's msa_mc is one stream at its own seed, distinct from the
    regular simplex's and from every other trial's; per-vertex seeds seed+i
    used to hand trial k+1 the stream of trial k's vertex 1."""
    seeds = []
    chunk_rngs = cones._chunk_rngs

    def recording(seed, samples):
        seeds.append(seed)
        return chunk_rngs(seed, samples)

    monkeypatch.setattr(cones, "_chunk_rngs", recording)
    cones.msa_regular_comparison_search(3, trials=6, samples=1_000, seed=5)
    assert len(seeds) == 1 + 6
    assert len(set(seeds)) == len(seeds)


def _estimator_calls(samples, seed):
    """One call of each Monte Carlo estimator in this module at ``samples``."""
    quad = SimplicialCone.create((0, 0), [(1, 0), (0, 1)])
    return {
        "solid_angle_mc": lambda: solid_angle_mc(RIGHT, 0, samples, seed),
        "msa_mc": lambda: msa_mc(RIGHT, samples, seed),
        "restricted_volume_mc": lambda: restricted_volume_mc(quad, samples, seed),
        "round_cone_restricted_volume_mc": lambda: round_cone_restricted_volume_mc(
            2, 0.5, samples, seed
        ),
        "normal_fan_cover_check": lambda: normal_fan_cover_check(RIGHT, samples, seed),
        "acute_cone_admissible_deviation": lambda: acute_cone_admissible_deviation(
            quad, quad, samples, seed
        ),
    }


@pytest.mark.parametrize("estimator", sorted(_estimator_calls(1, 0)))
@pytest.mark.parametrize("samples", [0, -5])
def test_estimators_reject_fewer_than_one_sample(estimator, samples):
    with pytest.raises(PreconditionError, match="samples must be >= 1"):
        _estimator_calls(samples, 3)[estimator]()


@pytest.mark.parametrize("estimator", sorted(_estimator_calls(1, 0)))
def test_estimators_reject_a_negative_seed(estimator):
    with pytest.raises(PreconditionError, match="seed must be >= 0"):
        _estimator_calls(10, -1)[estimator]()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 9])
def test_round_cone_estimate_matches_a_linalg_norm_count(d):
    """The round cone's estimate is the hit count of x_1 >= axis_cos |x| over
    the chunk map's Gaussian draws, |x| from ``np.linalg.norm``, bit for bit."""
    samples, axis_cos = 3 * cones._CHUNK + 17, 0.4
    hits = 0
    for rng, m in cones._chunk_rngs(5, samples):
        v = rng.standard_normal((m, d))
        hits += int(np.count_nonzero(v[:, 0] >= axis_cos * np.linalg.norm(v, axis=1)))
    p = hits / samples
    est = round_cone_restricted_volume_mc(d, axis_cos, samples, 5)
    assert est.mean == unit_ball_volume(d) * p


def _at_workers(workers, call):
    """``call()`` with the chunk map seeing ``workers`` usable cores."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_usable_cores", lambda: workers)
        return call()


@settings(max_examples=12, deadline=None)
@given(d=st.integers(1, 3), instance_seed=st.integers(0, 2**32 - 1), samples=_MAP_SAMPLES,
       seed=st.integers(0, 2**32 - 1))
@example(d=3, instance_seed=0, samples=3 * cones._CHUNK + 17, seed=1)
def test_estimates_do_not_depend_on_the_worker_count(d, instance_seed, samples, seed):
    """The chunk map deals chunks to 1, 2 or 3 threads; every estimate is
    combined from per-chunk integer counts or maxima, so it is bit-identical."""
    rng = np.random.default_rng(instance_seed)
    simplex = Simplex.create(rng.standard_normal((d + 1, d)))
    gens = np.abs(rng.standard_normal((d, d))) + 0.05
    base = SimplicialCone.create(np.zeros(d), gens)
    pert = SimplicialCone.create(np.zeros(d), gens + 0.01 * rng.random((d, d)))
    assume(not simplex.is_degenerate() and not base.is_degenerate() and not pert.is_degenerate())

    def estimates():
        return (
            msa_mc(simplex, samples, seed),
            normal_fan_cover_check(simplex, samples, seed),
            acute_cone_admissible_deviation(base, pert, samples, seed),
        )

    serial, *threaded = (_at_workers(w, estimates) for w in (1, 2, 3))
    assert all(t == serial for t in threaded)


def test_an_exception_in_a_helper_chunk_reaches_the_caller():
    raised_in = []

    def step(rng, m):
        if m == 5:  # the short second chunk, dealt to the helper thread
            raised_in.append(threading.current_thread())
            raise ValueError("chunk failed")
        return m

    with pytest.raises(ValueError, match="chunk failed"):
        _at_workers(2, lambda: cones._map_chunks(step, 0, cones._CHUNK + 5))
    assert raised_in and raised_in[0] is not threading.current_thread()


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_msa_mc_memory_stays_flat():
    assert _at_workers(2, lambda: _traced_peak_mib(lambda: msa_mc(TETRA, 10**6, 5))) < _FLAT_PEAK_MIB


def test_normal_fan_cover_memory_stays_flat():
    peak = _at_workers(2, lambda: _traced_peak_mib(lambda: normal_fan_cover_check(TETRA, 10**6, 5)))
    assert peak < _FLAT_PEAK_MIB


def test_solid_angle_mc_memory_stays_flat():
    peak = _at_workers(2, lambda: _traced_peak_mib(lambda: solid_angle_mc(TETRA, 0, 10**6, 5)))
    assert peak < _FLAT_PEAK_MIB


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_simplex_refuses_non_finite_coordinates(bad):
    """A NaN vertex used to pass ``is_degenerate``: the fan cover then read
    coverage 1.0 and msa_mc 0.0.  Non-finite coordinates are refused."""
    for vertex in range(3):
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        vertices[vertex][1] = bad
        with pytest.raises(PreconditionError, match="finite"):
            Simplex.create(vertices)


def test_simplex_refuses_dimension_zero():
    """One vertex in R^0 used to pass the shape check, and the solid angle
    then failed on an empty reduce; a simplex needs d >= 1."""
    with pytest.raises(PreconditionError, match="d >= 1"):
        Simplex.create([[]])
