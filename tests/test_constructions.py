import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pachsel import cones
from pachsel.cones import _ball_blocks, _chunk_rngs, unit_ball_volume
from pachsel.constructions import (
    CornerVolumeReport,
    GridBallConfig,
    corner_volume_audit,
    corner_volumes_mc,
    discretize_measure,
    gaussian_set,
    generate_grid_ball,
    grid_ball_count_bounds,
    grid_cubes_meeting_ball,
    uniform_ball_set,
    upper_bound_witness,
)
from pachsel.errors import InputValidationError, PreconditionError
from pachsel.geometry import OrientedHyperplane, in_general_position, satisfies_condition_G
from pachsel.io import pointset_sha256
from pachsel.rational import squared_norm, to_fraction
from pachsel.selection import (
    GenericPachConfiguration,
    PipelineParams,
    run_pipeline,
)

from conftest import _FLAT_PEAK_MIB, certified_configuration, random_arrangement


def _cube_index(point, eps):
    return tuple(to_fraction(c) // eps for c in point)


def test_grid_ball_interval():
    eps = Fraction(1, 2)
    ps = generate_grid_ball(GridBallConfig(1, eps, seed=1))
    assert ps.sizes() == (4, 4)
    lower, upper, ok = grid_ball_count_bounds(1, eps, 4)
    assert ok
    for color in ps.colors:
        cubes = {_cube_index(p, eps) for p in color}
        assert len(cubes) == 4  # one point per cube per color
        for p in color:
            assert squared_norm(p) < 1


def test_grid_ball_plane_sandwich_and_condition_g():
    eps = Fraction(1, 2)
    ps = generate_grid_ball(GridBallConfig(2, eps, seed=2))
    n = ps.sizes()[0]
    assert n == len(grid_cubes_meeting_ball(2, eps))
    lower, upper, ok = grid_ball_count_bounds(2, eps, n)
    assert ok
    for color in ps.colors:
        assert len({_cube_index(p, eps) for p in color}) == n
        for p in color:
            assert squared_norm(p) < 1
    assert satisfies_condition_G(ps.union_points()).status == "true"


def test_grid_ball_huge_cubes_still_tile():
    # huge cubes: only the two cubes flanking the origin meet the interval
    ps = generate_grid_ball(GridBallConfig(1, Fraction(3), seed=0))
    assert ps.sizes() == (2, 2)
    with pytest.raises(PreconditionError):
        GridBallConfig(1, Fraction(0))


def test_uniform_and_gaussian_sets_admissible():
    ps = uniform_ball_set(2, 6, seed=3)
    assert ps.sizes() == (6, 6, 6)
    assert all(squared_norm(p) < 1 for p in ps.union_points())
    assert satisfies_condition_G(ps.union_points()).status == "true"
    g = gaussian_set(2, 5, seed=4)
    assert g.sizes() == (5, 5, 5)
    assert in_general_position(g.union_points())


_TWO_POINT_MEASURE = [
    [((0,), Fraction(1, 3)), ((Fraction(1, 2),), Fraction(2, 3))],
    [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))],
]


@pytest.mark.parametrize(
    "generate, digest",
    [
        (lambda: uniform_ball_set(2, 25, seed=1),
         "afdcb56c2ce85009dbb98646dfd8cc8b9cdf9274dc56138f51f04b1be8acc779"),
        (lambda: uniform_ball_set(2, 25, seed=2),
         "893e357a9c50f5bc5ea48477d7a98c9adeef4ecec8dc308c847a3108d3d0e4f1"),
        (lambda: uniform_ball_set(2, 25, seed=3),
         "2c355d035d2c69b5900ac92621be2c907113b20b065c6d00f2269fcfac1fb45f"),
        (lambda: gaussian_set(2, 10, seed=1),
         "0b033d80809c0025f72e37d81165d4ea36aea0ea665cf10bf3430cf6ff747c86"),
        (lambda: generate_grid_ball(GridBallConfig(2, Fraction(1, 2), seed=1)),
         "69ffc1e6f23d502b8e16aabe08efe21b1910d2f51616dd64f6bcb21245bd53d6"),
        (lambda: discretize_measure(1, _TWO_POINT_MEASURE, Fraction(1, 64), seed=1),
         "ff7c534f9e7a14c7aad60161c6418f47754fb54fbd441b57087b96e23c9b0c60"),
        (lambda: uniform_ball_set(3, 8, seed=1),
         "ef36383e6e564136dc5c87675fa31929caba1743f4f0f719df6de981c041888a"),
        # its first draw repeats a point, so this goes through the retry
        (lambda: uniform_ball_set(1, 200, seed=1),
         "a5291e8709f4cd0f33ec6a68c2bf878c9ff92ee40b3dc25f766a89dbe8829a70"),
    ],
    ids=["uniform-d2-n25-s1", "uniform-d2-n25-s2", "uniform-d2-n25-s3", "gaussian-d2-n10",
         "grid-ball-d2-eps1/2", "measure-d1", "uniform-d3-n8", "uniform-d1-n200-s1"],
)
def test_generated_files_are_pinned(generate, digest):
    """Generated sets keep their bytes: a change to a generator's draws, its
    retry loop or its gate shows here first."""
    assert pointset_sha256(generate()) == digest


def _corner_volumes_by_mask(arrangement, samples, seed):
    """Reference for ``corner_volumes_mc``: the per-corner boolean loop it
    replaced, on the same stream of ``_ball_blocks``."""
    d = arrangement.dim
    normals = np.array(
        [[float(c) for c in h.normal] for h in arrangement.hyperplanes], dtype=float
    )
    offsets = np.array([float(h.offset) for h in arrangement.hyperplanes], dtype=float)
    beta = unit_ball_volume(d)
    hits = np.zeros(d + 1, dtype=np.int64)
    for rng, m in _chunk_rngs(seed, samples):
        for x in _ball_blocks(rng, m, d):
            positive = (x @ normals.T) >= offsets  # positive closed side per plane
            for i in range(d + 1):
                mask = np.ones(len(x), dtype=bool)
                for j in range(d + 1):
                    if j != i:
                        mask &= positive[:, j]
                hits[i] += int(mask.sum())
    fractions = hits / samples
    volumes = beta * fractions
    sigmas = beta * np.sqrt(fractions * (1 - fractions) / samples)
    return volumes, sigmas


@pytest.mark.parametrize("d", [1, 2, 3])
def test_corner_volumes_mc_matches_per_corner_masks(d):
    """Side codes and one bincount count every corner exactly as the mask
    loop did, so volumes and sigmas are bit-identical, across chunks too.
    With every plane flipped the central simplex is on all positive sides,
    so the all-ones side code, which counts toward every corner, occurs."""
    for seed in range(6):
        arrangement = random_arrangement(d, 100 * d + seed)
        flipped = SimpleNamespace(
            dim=d,
            hyperplanes=[
                OrientedHyperplane(tuple(-c for c in h.normal), -h.offset)
                for h in arrangement.hyperplanes
            ],
        )
        samples = 70_000 if seed == 0 else 5_000
        for arr in (arrangement, flipped):
            volumes, sigmas = corner_volumes_mc(arr, samples, seed)
            ref_volumes, ref_sigmas = _corner_volumes_by_mask(arr, samples, seed)
            assert np.array_equal(volumes, ref_volumes)
            assert np.array_equal(sigmas, ref_sigmas)


@pytest.mark.parametrize(
    "d, arrangement_seed, hits",
    [(2, 41, [98_974, 287_529, 93_548]), (3, 45, [38_963, 13_462, 32_855, 43_967])],
)
def test_corner_volumes_mc_counts_are_pinned(d, arrangement_seed, hits):
    """Corner hits of 10^6 ball points at seed 32, recorded when the ball
    points came to be drawn by rejection from cube blocks."""
    volumes, _ = corner_volumes_mc(random_arrangement(d, arrangement_seed), 10**6, 32)
    assert np.array_equal(volumes, unit_ball_volume(d) * (np.array(hits) / 10**6))


@pytest.mark.parametrize("samples", [0, -5])
def test_corner_volumes_mc_rejects_fewer_than_one_sample(samples):
    with pytest.raises(PreconditionError, match="samples must be >= 1"):
        corner_volumes_mc(random_arrangement(2, 1), samples, 0)


@settings(max_examples=10, deadline=None)
@given(
    d=st.integers(1, 3),
    arrangement_seed=st.integers(0, 10**6),
    samples=st.one_of(
        st.integers(1, 3_000), st.sampled_from([cones._CHUNK + 1, 3 * cones._CHUNK + 17])
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=3, arrangement_seed=0, samples=3 * cones._CHUNK + 17, seed=1)
def test_corner_volumes_mc_does_not_depend_on_the_worker_count(d, arrangement_seed, samples, seed):
    arrangement = random_arrangement(d, arrangement_seed)
    results = []
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_usable_cores", lambda: workers)
            results.append(corner_volumes_mc(arrangement, samples, seed))
    for volumes, sigmas in results[1:]:
        assert np.array_equal(volumes, results[0][0])
        assert np.array_equal(sigmas, results[0][1])


def test_corner_volumes_mc_memory_stays_flat(monkeypatch):
    """10^6 ball samples at d=3 stay under the bound of the direction
    estimates at 1, 2 and 3 threads: each thread draws one 2^13-row cube
    block at a time and keeps its rows inside the ball, not a chunk."""
    arrangement = random_arrangement(3, 4)
    for workers in (1, 2, 3):
        monkeypatch.setattr(cones, "_usable_cores", lambda: workers)
        tracemalloc.start()
        try:
            corner_volumes_mc(arrangement, 10**6, 5)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < _FLAT_PEAK_MIB, workers


def _plane(*coefficients):
    return OrientedHyperplane(coefficients[:-1], coefficients[-1])


@pytest.mark.parametrize(
    "d, planes, exact",
    [
        # three lines through the origin: each corner is a sector, area angle / 2
        (2, [_plane(1, 0, 0), _plane(0, 1, 0), _plane(-1, -2, 0)],
         [math.atan(1 / 2) / 2, math.atan(2) / 2, math.pi / 4]),
        # x, y, z >= 0 and x + y + z <= 10, which the ball does not reach:
        # three quarter-balls and an octant
        (3, [_plane(1, 0, 0, 0), _plane(0, 1, 0, 0), _plane(0, 0, 1, 0), _plane(-1, -1, -1, -10)],
         [math.pi / 3, math.pi / 3, math.pi / 3, math.pi / 6]),
    ],
    ids=["d2-lines", "d3-octant"],
)
def test_corner_volumes_mc_matches_exact_volumes(d, planes, exact):
    """An oracle that holds whatever the ball points' stream: within 4 sigma
    of the exact corner volumes at 10^6 samples."""
    volumes, sigmas = corner_volumes_mc(SimpleNamespace(dim=d, hyperplanes=planes), 10**6, 11)
    assert np.all(np.abs(volumes - exact) < 4 * sigmas)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ball_blocks_are_uniform_in_the_ball(d):
    """Each chunk gets exactly its m rows, all strictly inside the unit ball,
    and |x|^d, uniform on [0, 1) for a uniform ball point, is below 1/2 for
    half of them within 4 sigma."""
    samples, inner, n = 2 * cones._CHUNK + 3 * cones._BLOCK + 17, 0, 0
    for rng, m in _chunk_rngs(7, samples):
        x = np.concatenate(list(_ball_blocks(rng, m, d)))
        assert x.shape == (m, d)
        squared = np.einsum("ij,ij->i", x, x)
        assert np.all(squared < 1.0)
        inner += int(np.count_nonzero(squared ** (d / 2) < 0.5))
        n += m
    assert n == samples
    assert abs(inner / n - 0.5) < 4 * math.sqrt(0.25 / n)


def test_corner_volume_audit_interval_vacuous_but_true():
    ps = uniform_ball_set(1, 6, seed=6)
    cert = run_pipeline(ps, PipelineParams(seed=3))
    cfg = certified_configuration(ps, cert)
    report = corner_volume_audit(cfg, 100_000, seed=9)
    # d=1: msa is exactly 1/2, so the bound is 2 * (1/2) * beta_1 = 2
    assert report.bound == pytest.approx(2.0, abs=0.05)
    assert report.passed
    assert report.min_volume <= 2.0


def test_corner_volume_audit_plane_pipeline():
    ps = uniform_ball_set(2, 8, seed=7)
    cert = run_pipeline(ps, PipelineParams(seed=5))
    report = corner_volume_audit(certified_configuration(ps, cert), 200_000, seed=11)
    assert isinstance(report, CornerVolumeReport)
    assert report.passed
    assert len(report.volumes) == 3
    assert report.min_volume == min(report.volumes)


def test_corner_volume_audit_rejects_points_outside_ball():
    ps_raw = gaussian_set(2, 5, seed=8)
    scaled = [[tuple(3 * c for c in p) for p in color] for color in ps_raw.colors]
    from pachsel.geometry import LabeledPointSet

    big = LabeledPointSet.create(2, scaled)
    cert = run_pipeline(big, PipelineParams(seed=2))
    cfg = GenericPachConfiguration(big, cert.index_sets, cert.point)
    if any(squared_norm(p) > 1 for color in cfg.selected_colors() for p in color):
        with pytest.raises(PreconditionError):
            corner_volume_audit(cfg, 1_000, seed=0)


def test_corner_volume_audit_near_boundary_configuration():
    # push a valid configuration close to the sphere: the bound is unconditional
    ps = uniform_ball_set(2, 8, seed=9)
    cert = run_pipeline(ps, PipelineParams(seed=6))
    norms = [
        math.sqrt(float(squared_norm(p)))
        for color in certified_configuration(ps, cert).selected_colors()
        for p in color
    ]
    scale = Fraction(99, 100) / Fraction(round(max(norms) * 4096), 4096)
    if scale > 1:
        from pachsel.geometry import LabeledPointSet

        stretched = LabeledPointSet.create(
            2, [[tuple(scale * c for c in p) for p in color] for color in ps.colors]
        )
        cert2 = run_pipeline(stretched, PipelineParams(seed=6))
        report = corner_volume_audit(
            certified_configuration(stretched, cert2), 150_000, seed=13
        )
        assert report.passed


def test_upper_bound_witness_plane_report():
    report = upper_bound_witness(2, Fraction(1, 2), seed=3, samples=100_000)
    assert report.n == 16
    assert report.g_is_vacuous  # g(2) > 1: no pass/fail on the g comparison
    assert len(report.volume_ratios) == 3
    assert len(report.certificate_fractions) == 3
    assert report.corner_report.passed
    data = asdict(report)
    assert data["n"] == 16 and "seed" in data


def test_upper_bound_witness_3d_small_scale():
    report = upper_bound_witness(3, Fraction(1), seed=5, samples=60_000)
    assert report.n == 8
    assert len(report.shrunk_fractions) == 4
    assert report.corner_report.passed
    assert 0 < report.min_fraction <= 1


def test_discretize_measure_examples():
    # single point of weight 1 plus a 1/3-2/3 color: common denominator 3
    colors = [
        [((Fraction(1, 2),), Fraction(1))],
        [((0,), Fraction(1, 3)), ((1,), Fraction(2, 3))],
    ]
    spread = Fraction(1, 50)
    ps = discretize_measure(1, colors, spread, seed=1)
    assert ps.sizes() == (3, 3)
    assert in_general_position(ps.union_points())
    # displacement bound is strict and exact
    for p in ps.colors[0]:
        assert squared_norm((p[0] - Fraction(1, 2),)) < spread * spread
    base = {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)}
    # one copy near 0, two near 1
    near_zero = sum(1 for p in ps.colors[1] if abs(p[0]) < spread)
    near_one = sum(1 for p in ps.colors[1] if abs(p[0] - 1) < spread)
    assert (near_zero, near_one) == (1, 2)


def test_discretize_measure_shared_support_point():
    colors = [
        [((0, 0), Fraction(1, 2)), ((1, 0), Fraction(1, 2))],
        [((0, 0), Fraction(1))],
        [((Fraction(1, 2), 1), Fraction(1))],
    ]
    ps = discretize_measure(2, colors, Fraction(1, 100), seed=2)
    assert ps.sizes() == (2, 2, 2)
    union = ps.union_points()
    assert len(set(union)) == len(union)
    assert in_general_position(union)


def test_discretize_measure_validation():
    with pytest.raises(InputValidationError):
        discretize_measure(1, [[((0,), Fraction(1, 2))], [((1,), Fraction(1))]], Fraction(1, 10))
    with pytest.raises(PreconditionError):
        discretize_measure(1, [[((0,), Fraction(1))], [((1,), Fraction(1))]], Fraction(0))
    with pytest.raises(InputValidationError):  # a 2-coordinate point in a 1-d measure
        discretize_measure(1, [[((0, 5), Fraction(1))], [((1,), Fraction(1))]], Fraction(1, 10))
