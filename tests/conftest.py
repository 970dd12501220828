import itertools
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from pachsel.geometry import (
    LabeledPointSet,
    OrientedHyperplane,
    in_general_position,
    point_in_simplex,
)
from pachsel.arrangements import build_arrangement
from pachsel.cones import _BLOCK, _chunk_rngs
from pachsel.rational import det_int, scale_points_to_ints, vec_sub
from pachsel.selection import GenericPachConfiguration


def random_rational_point(rng, d, den=1 << 16, box=2):
    return tuple(Fraction(rng.randint(-box * den, box * den), den) for _ in range(d))


def value(h, q):
    """Fraction reference for normal.q - offset, one point at a time."""
    return sum(Fraction(a) * Fraction(b) for a, b in zip(h.normal, q)) - Fraction(h.offset)


def side(h, q):
    """Fraction reference for the side of q against h: the sign of ``value``."""
    v = value(h, q)
    return (v > 0) - (v < 0)


def random_points(rng, n, d, den=1 << 16, box=2):
    return [random_rational_point(rng, d, den, box) for _ in range(n)]


def general_position_points(rng, n, d, den=1 << 16, box=2, tries=50):
    for _ in range(tries):
        pts = random_points(rng, n, d, den, box)
        if in_general_position(pts):
            return pts
    raise RuntimeError("could not sample points in general position")


def random_labeled_set(d, n, seed, den=1 << 16, box=2):
    rng = random.Random(seed)
    while True:
        colors = [random_points(rng, n, d, den, box) for _ in range(d + 1)]
        union = [p for c in colors for p in c]
        if in_general_position(union):
            return LabeledPointSet.create(d, colors)


def random_arrangement(d, seed, coeff=20):
    """A random rational arrangement of d+1 hyperplanes in general position."""
    rng = random.Random(seed)
    while True:
        planes = []
        for _ in range(d + 1):
            normal = tuple(Fraction(rng.randint(-coeff, coeff)) for _ in range(d))
            if all(c == 0 for c in normal):
                break
            planes.append(OrientedHyperplane(normal, Fraction(rng.randint(-coeff, coeff), 7)))
        if len(planes) != d + 1:
            continue
        try:
            return build_arrangement(planes)
        except Exception:
            continue


def reference_dichotomy(point, arrangement, subsets):
    """Fraction re-check of ``separation_dichotomy``, one point and plane at a
    time: ("inside" | "outside", None), or (None, the precondition message).
    On the inside branch it also asserts that every subset sits strictly
    inside its corner region, which the precondition implies."""
    d, planes = arrangement.dim, arrangement.hyperplanes
    if len(subsets) != d + 1:
        return None, f"need d+1 = {d + 1} point subsets"
    for i, h in enumerate(planes):
        p_side = side(h, point)
        if p_side == 0:
            return None, f"point lies on hyperplane {i}"
        for j, pts in enumerate(subsets):
            for k, y in enumerate(pts):
                if j != i and side(h, y) != -p_side:
                    return None, (
                        f"hyperplane {i} does not strictly separate the point from "
                        f"subset {j} (offending point index {k})"
                    )
    if any(side(h, point) > 0 for h in planes):
        return "outside", None
    for i, pts in enumerate(subsets):
        assert all(side(h, y) > 0 for j, h in enumerate(planes) if j != i for y in pts)
    return "inside", None


def random_dichotomy_instance(d, seed):
    """(arrangement, point, subsets) for ``separation_dichotomy``: the point
    inside the central simplex, outside it, at a vertex or on a plane, and
    one to three points per subset on the far side of every H_j (j != i)
    from the point, sometimes moved onto a plane or to a random place."""
    rng = random.Random(seed)
    arr = random_arrangement(d, seed)
    verts, planes = arr.vertices, arr.hyperplanes
    kind = rng.randrange(5)
    if kind <= 1:  # an affine combination: of all vertices with positive
        # weights (inside), or of those on H_0 (h_j, j != 0) with any weights
        weights = [Fraction(rng.randint(1 - 50 * kind, 50)) for _ in verts[kind:]]
        if sum(weights) == 0:
            weights[0] += 1
        point = tuple(sum(w * v[k] for w, v in zip(weights, verts[kind:])) / sum(weights) for k in range(d))
    elif kind == 2:  # at a vertex, on d planes
        point = rng.choice(verts)
    else:
        point = random_rational_point(rng, d, den=7, box=20)
    subsets = []
    for i in range(d + 1):
        # h_i + mu_j s_j (h_i - h_j) is on side s_j of H_j and on H_k, k != i, j
        signs = {j: -side(h, point) or rng.choice((-1, 1)) for j, h in enumerate(planes) if j != i}
        pts = []
        for _ in range(rng.randint(1, 3)):
            mu = {j: Fraction(rng.randint(0 if rng.random() < 0.05 else 1, 64), 16) for j in signs}
            rays = [(mu[j] * s, vec_sub(verts[i], verts[j])) for j, s in signs.items()]
            pts.append(tuple(c + sum(w * r[k] for w, r in rays) for k, c in enumerate(verts[i])))
        if rng.random() < 0.1:
            pts[rng.randrange(len(pts))] = random_rational_point(rng, d, den=7, box=20)
        subsets.append(pts)
    return arr, point, subsets


def random_cover_instance(d, seed):
    """Random (arrangement, corner points, central point) covering instance."""
    rng = random.Random(seed)
    arr = random_arrangement(d, seed)
    ys = []
    for i in range(d + 1):
        corner = arr.corner(i)
        y = list(corner.apex)
        for ray in corner.ray_directions:
            lam = Fraction(rng.randint(0, 64), 16)
            y = [a + lam * r for a, r in zip(y, ray)]
        ys.append(tuple(y))
    weights = [Fraction(rng.randint(1, 50)) for _ in range(d + 1)]
    total = sum(weights)
    p = tuple(
        sum(w * v[k] for w, v in zip(weights, arr.vertices)) / total for k in range(d)
    )
    return arr, ys, p


def per_cone_vertex_hits(vertices, samples, seed):
    """Reference for the Monte Carlo vertex-cone counts: the per-cone test
    that the barycentric kernel replaced, on the same stream of chunks.  A
    direction u is in the cone at vertex i iff inv(E_i^T) u >= 0, E_i the
    rows v_j - v_i (j != i), AND-ed column by column; one product per cone."""
    vertices = np.asarray(vertices, dtype=float)
    d = vertices.shape[1]
    invs = [
        np.linalg.inv((np.delete(vertices, i, axis=0) - vertices[i]).T) for i in range(d + 1)
    ]
    hits = [0] * (d + 1)
    for rng, m in _chunk_rngs(seed, samples):
        u = rng.standard_normal((m, d))
        for i, inv in enumerate(invs):
            hits[i] += int(np.count_nonzero(reduce(np.logical_and, (u @ inv.T >= 0).T)))
    return hits


def argmax_fan_counts(vertices, samples, seed):
    """Reference for the normal-fan counts: each direction of the same stream
    of chunks goes to argmax_i u.v_i, the lowest index on ties, on the same
    block products as the kernel, and ``bincount`` counts the indices."""
    vertices = np.asarray(vertices, dtype=float)
    d = vertices.shape[1]
    columns = np.ascontiguousarray(vertices.T)
    counts = np.zeros(d + 1, dtype=np.int64)
    for rng, m in _chunk_rngs(seed, samples):
        u = rng.standard_normal((m, d))
        for b in range(0, m, _BLOCK):
            counts += np.bincount(np.argmax(u[b : b + _BLOCK] @ columns, axis=1), minlength=d + 1)
    return counts


# Every estimator draws 2^13 rows at a time, so 10^6 samples at d=3 peaked at
# 0.8-1.2 MiB with two threads (msa_mc at 1.7-1.8 MiB in about one run of 60)
# and corner volumes, cube blocks kept inside the ball, at 0.6-1.2 / 1.1-1.3 /
# 1.6-1.7 MiB with 1 / 2 / 3 threads (12 runs each).  The bound is the
# highest direction peak seen plus 0.7 MiB.  Each thread holds its own block,
# so the thread count is pinned.
_FLAT_PEAK_MIB = 2.5


def naive_closed_containment_fraction(point_set, index_sets, point):
    """Independent oracle: closed containment per rainbow simplex by
    orientation signs, p and the selected points scaled to integers once and
    each sign one ``det_int`` of integer differences, as ``point_in_simplex``
    takes them; a degenerate simplex goes to ``point_in_simplex``, whose exact
    LP decides it."""
    colors = [
        [point_set.point(ci, i) for i in idxs] for ci, idxs in enumerate(index_sets)
    ]
    p, *ints = scale_points_to_ints([point, *(q for c in colors for q in c)])[0]
    starts = list(itertools.accumulate(map(len, colors), initial=0))
    int_colors = [ints[a:b] for a, b in zip(starts, starts[1:])]

    def sign(vertices):
        det = det_int([[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]])
        return (det > 0) - (det < 0)

    total = 0
    hits = 0
    for verts, scaled in zip(itertools.product(*colors), itertools.product(*int_colors)):
        total += 1
        full = sign(scaled)
        if full == 0:
            hits += point_in_simplex(point, list(verts), mode="closed")
        else:
            swapped = (scaled[:i] + (p,) + scaled[i + 1 :] for i in range(len(scaled)))
            hits += all(full * sign(s) >= 0 for s in swapped)
    return Fraction(hits, total) if total else Fraction(1)


def certified_configuration(point_set, cert):
    """A certificate's point and subsets as a validated ``GenericPachConfiguration``."""
    cfg = GenericPachConfiguration(point_set, cert.index_sets, cert.point)
    cfg.validate()
    return cfg


@pytest.fixture
def rng():
    return random.Random(12345)
