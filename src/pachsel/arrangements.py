"""Arrangements of d+1 hyperplanes in general position: the central simplex,
corner regions, the separation dichotomy, and the corner covering property.

All computations are exact on rational inputs.  An arrangement is immutable
after build; queries are pure.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .geometry import OrientedHyperplane, orientation, plane_signs, point_in_simplex, strict_separation
from .rational import format_scalar, null_vector, point_to_fractions, scale_points_to_ints, vec_sub


@dataclass(frozen=True)
class CornerRegion:
    """C_i: intersection of the positive halfspaces of all hyperplanes but H_i.

    A simplicial cone with apex at the arrangement vertex h_i, generated by
    the directions from the other vertices toward h_i.
    """

    index: int
    apex: tuple
    halfspaces: tuple  # (j, OrientedHyperplane) for j != index
    ray_directions: tuple  # h_i - h_j for j != index

    def contains(self, point, strict: bool = False) -> bool:
        (signs,) = plane_signs([point], [h for _, h in self.halfspaces])
        return bool((signs > 0).all() if strict else (signs >= 0).all())


@dataclass(frozen=True)
class HyperplaneArrangement:
    """d+1 oriented hyperplanes in general position.

    Orientation convention after build: the central simplex lies in every
    negative closed halfspace, i.e. normal.h_j <= offset with equality
    exactly for j != i.
    """

    dim: int
    hyperplanes: tuple
    vertices: tuple  # h_i = intersection of all hyperplanes but H_i

    def corner(self, i: int) -> CornerRegion:
        halfspaces = tuple(
            (j, self.hyperplanes[j]) for j in range(self.dim + 1) if j != i
        )
        rays = tuple(vec_sub(self.vertices[i], self.vertices[j]) for j in range(self.dim + 1) if j != i)
        return CornerRegion(i, self.vertices[i], halfspaces, rays)

    def central_simplex_contains(self, point, strict: bool = True) -> bool:
        """Membership in Delta(H) = intersection of the negative halfspaces."""
        (signs,) = plane_signs([point], self.hyperplanes)
        return bool((signs < 0).all() if strict else (signs <= 0).all())


def build_arrangement(hyperplanes) -> HyperplaneArrangement:
    """Compute vertices, verify general position, and fix side orientations.

    General position: every d of the d+1 normals are linearly independent and
    the d+1 hyperplanes have no common point.  Each H_i is flipped, if
    needed, so that the central simplex lies on its negative side.
    """
    planes = [h.as_fractions() for h in hyperplanes]
    if not planes:
        raise PreconditionError("empty arrangement")
    d = planes[0].dim
    if len(planes) != d + 1:
        raise PreconditionError(f"need d+1 = {d + 1} hyperplanes, got {len(planes)}")
    if any(h.dim != d for h in planes):
        raise PreconditionError(f"hyperplane normals must all have dimension {d}")
    int_rows, _ = scale_points_to_ints([h.normal + (-h.offset,) for h in planes])
    vertices = []
    for i in range(d + 1):
        *v, last = null_vector([r for j, r in enumerate(int_rows) if j != i])
        if last == 0:
            raise PreconditionError(
                f"normals of the hyperplanes other than {i} are linearly dependent"
            )
        vertices.append(tuple(Fraction(c, last) for c in v))
    # h_i is the only vertex off H_i; its side determines the flip.
    flips = np.diagonal(plane_signs(vertices, planes))
    if not flips.all():
        raise PreconditionError("all d+1 hyperplanes pass through one point")
    if orientation(vertices) == 0:
        raise InternalInvariantError("arrangement vertices are affinely dependent")
    oriented = tuple(h.flipped() if f > 0 else h for h, f in zip(planes, flips))
    return HyperplaneArrangement(d, oriented, tuple(vertices))


@dataclass(frozen=True)
class DichotomyResult:
    branch: str  # "inside" | "outside"
    witness: OrientedHyperplane | None = None

    @property
    def inside(self) -> bool:
        return self.branch == "inside"


def separation_dichotomy(point, arrangement: HyperplaneArrangement, subsets) -> DichotomyResult:
    """Either the point is in the central simplex and every subset sits
    strictly inside its corner region, or a single hyperplane strictly
    separates the point from the union of the subsets.

    Precondition (checked, plane by plane, on one sign matrix of the point
    and the union): H_i strictly separates the point from the subsets other
    than i, and the point avoids every hyperplane.  So with the point on the
    negative side of every H_i, each subset i is strictly inside corner i.
    """
    d = arrangement.dim
    if len(subsets) != d + 1:
        raise PreconditionError(f"need d+1 = {d + 1} point subsets")
    union = [y for pts in subsets for y in pts]
    owners = [(j, k) for j, pts in enumerate(subsets) for k in range(len(pts))]
    color = np.array([j for j, _ in owners], dtype=np.int64)
    signs = plane_signs([point, *union], arrangement.hyperplanes)
    for i, side in enumerate(signs[0].tolist()):
        if side == 0:
            raise PreconditionError(f"point lies on hyperplane {i}")
        bad = np.flatnonzero((color != i) & (signs[1:, i] != -side))
        if bad.size:
            j, k = owners[bad[0]]
            raise PreconditionError(
                f"hyperplane {i} does not strictly separate the point from "
                f"subset {j} (offending point index {k})"
            )
    if (signs[0] < 0).all():
        return DichotomyResult("inside")
    witness = strict_separation(point, union)
    if witness is None:
        raise InternalInvariantError(
            "separator guaranteed by the dichotomy does not exist; inputs are inconsistent"
        )
    return DichotomyResult("outside", witness)


def dump_counterexample_bundle(arrangement, corner_points, point, reason: str) -> str:
    """Write a reproducible JSON bundle for a failed covering instance.

    Destination directory comes from PACHSEL_COUNTEREXAMPLE_DIR (default cwd).
    The file is named by the sha256 of the bundle's canonical JSON, so distinct
    bundles never overwrite each other and a repeated one lands on itself.
    """
    bundle = {
        "reason": reason,
        "hyperplanes": [
            {"normal": [format_scalar(c) for c in h.normal], "offset": format_scalar(h.offset)}
            for h in arrangement.hyperplanes
        ],
        "corner_points": [[format_scalar(c) for c in y] for y in corner_points],
        "point": [format_scalar(c) for c in point],
    }
    digest = hashlib.sha256(json.dumps(bundle, sort_keys=True, separators=(",", ":")).encode())
    directory = os.environ.get("PACHSEL_COUNTEREXAMPLE_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"pachsel-counterexample-{digest.hexdigest()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, sort_keys=True, indent=2)
    return path


def corners_cover_simplex(arrangement: HyperplaneArrangement, corner_points, point) -> bool:
    """With one point picked in each corner region and a point of the central
    simplex, test whether the picked points' simplex covers it.

    This always returns True (it is a proved covering property); a False
    return indicates an implementation bug, and the offending instance is
    dumped as a counterexample bundle before returning.
    """
    d = arrangement.dim
    if len(corner_points) != d + 1:
        raise PreconditionError(f"need one point per corner region ({d + 1})")
    point = point_to_fractions(point)
    corner_points = [point_to_fractions(y) for y in corner_points]
    for i, y in enumerate(corner_points):
        if not arrangement.corner(i).contains(y, strict=False):
            raise PreconditionError(f"point {i} is not in corner region {i}")
    if not arrangement.central_simplex_contains(point, strict=False):
        raise PreconditionError("query point is not in the central simplex")
    covered = point_in_simplex(point, corner_points, mode="closed")
    if not covered:
        dump_counterexample_bundle(
            arrangement, corner_points, point, "corner points fail to cover the query point"
        )
    return covered
