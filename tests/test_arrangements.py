from fractions import Fraction

import pytest

from pachsel.arrangements import (
    build_arrangement,
    corners_cover_simplex,
    dump_counterexample_bundle,
    separation_dichotomy,
)
from pachsel.constructions import uniform_ball_set
from pachsel.errors import PreconditionError
from pachsel.geometry import OrientedHyperplane as H
from pachsel.geometry import point_in_simplex, strict_separation
from pachsel.selection import PipelineParams, run_pipeline

from conftest import random_arrangement, random_dichotomy_instance, reference_dichotomy, side, value


def interval_arrangement():
    # H_1: x = 0, H_2: x = 1 -> h_1 = 1, h_2 = 0, central simplex [0, 1]
    return build_arrangement([H((Fraction(1),), Fraction(0)), H((Fraction(1),), Fraction(1))])


def triangle_arrangement():
    return build_arrangement(
        [H((1, 0), 0), H((0, 1), 0), H((1, 1), 1)]
    )


def test_build_interval_arrangement():
    arr = interval_arrangement()
    assert arr.vertices == ((Fraction(1),), (Fraction(0),))
    assert arr.central_simplex_contains((Fraction(1, 2),))
    assert not arr.central_simplex_contains((2,))
    # corner region C_1 is the outward ray from its apex h_1 = 1
    c1 = arr.corner(0)
    assert c1.apex == (Fraction(1),)
    assert c1.contains((1,)) and c1.contains((5,))
    assert not c1.contains((Fraction(1, 2),))
    c2 = arr.corner(1)
    assert c2.contains((0,)) and c2.contains((-3,))
    assert not c2.contains((Fraction(1, 2),))


def test_build_triangle_arrangement():
    arr = triangle_arrangement()
    verts = set(arr.vertices)
    assert verts == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))}
    for i in range(3):
        assert arr.corner(i).contains(arr.vertices[i])
    assert arr.central_simplex_contains((Fraction(1, 4), Fraction(1, 4)))


def test_vertices_satisfy_defining_equalities_exactly():
    for seed in range(5):
        arr = random_arrangement(3, seed)
        for i, h_i in enumerate(arr.vertices):
            for j, plane in enumerate(arr.hyperplanes):
                if j != i:
                    assert value(plane, h_i) == 0
                else:
                    assert value(plane, h_i) != 0


def test_apex_is_unique_arrangement_vertex_in_corner():
    for seed in range(8):
        for d in (1, 2, 3):
            arr = random_arrangement(d, seed)
            for i in range(d + 1):
                corner = arr.corner(i)
                for j, v in enumerate(arr.vertices):
                    assert corner.contains(v) == (i == j)


def test_reorientation_idempotence():
    for seed in range(5):
        arr = random_arrangement(2, seed)
        rebuilt = build_arrangement(arr.hyperplanes)
        assert rebuilt.hyperplanes == arr.hyperplanes
        assert rebuilt.vertices == arr.vertices


def test_degenerate_arrangements_rejected():
    with pytest.raises(PreconditionError):
        build_arrangement([H((1, 0), 0), H((1, 0), 1), H((0, 1), 0)])  # parallel pair
    with pytest.raises(PreconditionError):
        # all three through the origin
        build_arrangement([H((1, 0), 0), H((0, 1), 0), H((1, 1), 0)])
    with pytest.raises(PreconditionError):
        build_arrangement([H((1, 0), 0), H((0, 1), 0)])  # wrong count
    with pytest.raises(PreconditionError):
        build_arrangement([H((1, 0), 0), H((0, 1, 0), 0), H((1, 1), 1)])  # mixed dimensions


def test_dichotomy_inside_interval():
    arr = interval_arrangement()
    res = separation_dichotomy((Fraction(1, 2),), arr, [[(2,)], [(-1,)]])
    assert res.inside
    assert res.witness is None


def test_dichotomy_outside_with_verified_witness():
    arr = interval_arrangement()
    res = separation_dichotomy((-1,), arr, [[(2,)], [(Fraction(1, 2),)]])
    assert not res.inside
    w = res.witness
    assert side(w, (-1,)) < 0
    assert side(w, (2,)) > 0 and side(w, (Fraction(1, 2),)) > 0
    # agrees with a fresh strict separation of the union
    again = strict_separation((-1,), [(2,), (Fraction(1, 2),)])
    assert again is not None


def test_dichotomy_outside_plane_configuration():
    arr = triangle_arrangement()
    p = (2, 2)
    subsets = [[(1, -2)], [(-1, -3)], [(-2, -1)]]
    res = separation_dichotomy(p, arr, subsets)
    assert not res.inside
    w = res.witness
    assert side(w, p) < 0
    for pts in subsets:
        for y in pts:
            assert side(w, y) > 0


def test_dichotomy_branches_exhaustive_and_exclusive():
    arr = interval_arrangement()
    # valid instances: p separated from     \hat Y_i by H_i for all i
    inside = separation_dichotomy((Fraction(2, 3),), arr, [[(3,)], [(-2,)]])
    assert inside.inside and arr.central_simplex_contains((Fraction(2, 3),))
    outside = separation_dichotomy((-2,), arr, [[(4,)], [(Fraction(1, 3),)]])
    assert (not outside.inside) and not arr.central_simplex_contains((-2,))


def test_dichotomy_precondition_violation_names_offender():
    arr = interval_arrangement()
    with pytest.raises(PreconditionError, match="hyperplane 1"):
        separation_dichotomy((Fraction(1, 2),), arr, [[(Fraction(3, 4),)], [(-1,)]])
    with pytest.raises(PreconditionError, match="lies on hyperplane"):
        separation_dichotomy((0,), arr, [[(2,)], [(-1,)]])


def test_corners_cover_apices_and_interval():
    arr = interval_arrangement()
    assert corners_cover_simplex(arr, [(2,), (-1,)], (Fraction(1, 2),))
    assert corners_cover_simplex(arr, [(1,), (0,)], (Fraction(1, 2),))  # apices
    tri = triangle_arrangement()
    assert corners_cover_simplex(tri, list(tri.vertices), (Fraction(1, 4), Fraction(1, 4)))


def test_corners_cover_preconditions():
    arr = interval_arrangement()
    with pytest.raises(PreconditionError):
        corners_cover_simplex(arr, [(Fraction(1, 2),), (-1,)], (Fraction(1, 2),))
    with pytest.raises(PreconditionError):
        corners_cover_simplex(arr, [(2,), (-1,)], (7,))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_corners_cover_randomized_suite(d):
    from conftest import random_cover_instance

    for seed in range(150):
        arr, ys, p = random_cover_instance(d, seed)
        assert corners_cover_simplex(arr, ys, p)


def test_counterexample_bundle_dump(tmp_path, monkeypatch):
    monkeypatch.setenv("PACHSEL_COUNTEREXAMPLE_DIR", str(tmp_path))
    arr = interval_arrangement()
    path = dump_counterexample_bundle(arr, [(2,), (-1,)], (Fraction(1, 2),), "manual test")
    import json

    with open(path) as fh:
        bundle = json.load(fh)
    assert bundle["reason"] == "manual test"
    assert bundle["point"] == ["1/2"]
    # named by content: distinct bundles get distinct files, a repeat its old name
    paths = [
        dump_counterexample_bundle(arr, [(2,), (-1,)], (Fraction(k, 7),), "manual test")
        for k in range(5)
    ]
    assert len(set(paths)) == 5 and len(list(tmp_path.iterdir())) == 6
    assert dump_counterexample_bundle(arr, [(2,), (-1,)], (Fraction(1, 2),), "manual test") == path


def test_cover_agrees_with_closed_simplex_membership():
    arr = triangle_arrangement()
    ys = [(5, -1), (-1, 5), (-1, -1)]
    p = (Fraction(1, 10), Fraction(1, 10))
    assert corners_cover_simplex(arr, ys, p) == point_in_simplex(p, ys, "closed")



def _assert_dichotomy_matches_reference(point, arr, subsets):
    """Same branch, or the same precondition message, as ``reference_dichotomy``;
    an outside witness strictly separates the point from the union."""
    expected = reference_dichotomy(point, arr, subsets)
    try:
        res = separation_dichotomy(point, arr, subsets)
    except PreconditionError as exc:
        assert (None, str(exc)) == expected
        return expected
    assert (res.branch, None) == expected
    if not res.inside:
        assert side(res.witness, point) < 0
        assert all(side(res.witness, y) > 0 for pts in subsets for y in pts)
    return expected


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dichotomy_matches_fraction_reference(d):
    outcomes = set()
    for seed in range(150):
        arr, point, subsets = random_dichotomy_instance(d, seed)
        branch, message = _assert_dichotomy_matches_reference(point, arr, subsets)
        outcomes.add(branch or ("on a plane" if "lies on" in message else "not separated"))
    assert outcomes == {"inside", "outside", "on a plane", "not separated"}


@pytest.mark.parametrize("d, n, seed", [(2, 25, 1), (2, 25, 2), (2, 25, 3), (3, 8, 1), (3, 8, 2), (3, 8, 3)])
def test_dichotomy_matches_fraction_reference_on_pinned_certificates(d, n, seed):
    """The instances of ``test_certificates_are_pinned``: the certified point
    is inside; moved far away, to a vertex or onto a selected point, it
    breaks the precondition, with the same message."""
    ps = uniform_ball_set(d, n, seed=seed)
    cert = run_pipeline(ps, PipelineParams(seed=seed))
    arr = cert.arrangement
    subsets = [[ps.point(ci, i) for i in idxs] for ci, idxs in enumerate(cert.index_sets)]
    points = [cert.point, (100,) * d, arr.vertices[0], subsets[0][0]]
    outcomes = [_assert_dichotomy_matches_reference(p, arr, subsets) for p in points]
    assert outcomes[0] == ("inside", None)
    assert all(branch is None for branch, _ in outcomes[1:])
