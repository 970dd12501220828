"""Solid angles, simplicial/polar cones, restricted cone volumes, and the
bound chain for the minimum solid angle of a simplex.

Everything here is float64 + Monte Carlo by design: the package's
combinatorial claims are exact (geometry.py), while volume and angle
statements are statistical audits with reported standard errors.

Solid angles are estimated direction-wise: a uniform random direction lies
in the cone of the simplex at a vertex with probability equal to the
normalized solid angle, so no epsilon-ball is needed.  A cone is
scale-invariant, so its restricted volume Vol(C ∩ B^d) is beta_d times that
probability, the solid angle at vertex 0 of the simplex (0, g_1, ..., g_d).
The barycentric coordinates of a direction place it in every vertex cone at
once (``_solid_angles_mc``), so ``msa_mc`` tests one stream at its seed
against all d+1 vertex cones with one product per block: its vertex estimates
are correlated, and each equals ``solid_angle_mc`` at that vertex and seed.

Every estimate consumes its stream chunk by chunk through ``_map_chunks``,
which spreads the chunks over the usable cores.  Each chunk has its own seeded
generator and the per-chunk results are combined by integer sums or a max, so
an estimate is bit-identical whatever the core count.  Every estimator draws
per 2^13-row block, which continues one chunk's stream, so a thread holds one
block: Gaussian directions (``_gaussian_blocks``), or for ``corner_volumes_mc``
the rows of a cube block inside the ball (``_ball_blocks``).  Each block is
classified for a fraction of its draw's cost: float BLAS side codes, and a fan
count from the product's column maximum instead of a row-wise argmax.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from math import asin, exp, gamma, log, pi, sqrt

import numpy as np

from .errors import PreconditionError

_DEGENERACY_TOL = 1e-12
# float32 holds every integer below 2^24 exactly (float64 below 2^53)
_FLOAT32_EXACT = 1 << 24
_CHUNK = 1 << 16
# Rows per product inside a chunk.  A (2^16, d) @ (d, k) product passes
# OpenBLAS's threading threshold, and two chunk workers that each ask for two
# BLAS threads on two cores stall each other; 2^13-row blocks stay below it
# and keep a chunk's temporaries small.
_BLOCK = 1 << 13


def _chunk_rngs(seed, samples):
    """Deterministic per-chunk generators derived from one master seed.

    Chunking keeps memory constant, and ``_map_chunks`` consumes the stream in
    parallel without changing the results.
    """
    offset = 0
    chunk_index = 0
    while offset < samples:
        m = min(_CHUNK, samples - offset)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
        yield rng, m
        offset += m
        chunk_index += 1


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(step, seed, samples):
    """``[step(rng, m) for rng, m in _chunk_rngs(seed, samples)]``, with the
    chunks dealt round-robin to the calling thread and one helper thread per
    further usable core.  numpy releases the GIL while it draws, multiplies
    and compares, and each chunk's result depends on its own generator only,
    so the list is the same whatever the thread count.  An exception raised
    in any chunk reaches the caller."""
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    if seed < 0:
        raise PreconditionError("seed must be >= 0")
    chunks = list(_chunk_rngs(seed, samples))
    workers = min(_usable_cores(), len(chunks))
    if workers == 1:
        return [step(rng, m) for rng, m in chunks]
    from concurrent.futures import ThreadPoolExecutor  # only the MC paths pay its import

    def share(k):
        return [step(rng, m) for rng, m in chunks[k::workers]]

    results = [None] * len(chunks)
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(share, k) for k in range(1, workers)]
        results[0::workers] = share(0)
        for k, helper in enumerate(helpers, 1):
            results[k::workers] = helper.result()
    return results


def _gaussian_blocks(rng, m, d):
    """A chunk's m Gaussian directions of R^d, one draw per ``_BLOCK`` rows:
    sequential draws continue the stream, so a thread holds a block, not m rows."""
    return (rng.standard_normal((min(_BLOCK, m - b), d)) for b in range(0, m, _BLOCK))


def _squared_norms(u):
    """Row sums of squares, the columns added left to right."""
    return sum((u[:, j] * u[:, j] for j in range(1, u.shape[1])), u[:, 0] * u[:, 0])


def _ball_blocks(rng, m, d):
    """A chunk's m uniform points of the open unit d-ball: up to the m-th, the
    rows of squared norm below 1 of ``_BLOCK``-row draws of the cube [-1, 1)^d
    (``np.compress``: a boolean index is 5x slower).  A point costs d 2^d / beta_d
    uniforms, a Gaussian one's cost near d = 5; the pipeline audits d <= 3."""
    while m > 0:
        x = rng.random((_BLOCK, d))
        x *= 2.0
        x -= 1.0
        kept = np.compress(_squared_norms(x) < 1.0, x, axis=0)[:m]
        m -= len(kept)
        yield kept


def _hit_fraction(inside, d, samples, seed):
    """(p, sqrt(p(1-p)/n)): p is the share of ``samples`` standard Gaussian
    directions of R^d for which ``inside`` (an (m, d) array to an m-vector of
    bools) holds, the directions drawn chunk by chunk of ``_chunk_rngs``."""

    def step(rng, m):
        return sum(int(np.count_nonzero(inside(u))) for u in _gaussian_blocks(rng, m, d))

    p = sum(_map_chunks(step, seed, samples)) / samples
    return p, sqrt(p * (1 - p) / samples)


def _corner_hits(blocks, planes, offsets, samples, seed):
    """How many of ``samples`` points, from ``blocks`` of any row count, lie in
    each corner i of the planes x @ planes[:, j] = offsets[j] (a C-contiguous
    (d, k) array): on the closed positive side of every plane but i.  Bit j of
    a point's side code is set iff it is on that side of plane j; a float
    product of the sides with the bits (float32 exact below 2^24) and one
    ``bincount`` count every corner: i holds codes full, full ^ bit_i."""
    d, k = planes.shape
    bits = 1 << np.arange(k)
    full = 2 * bits[-1] - 1
    weights = bits.astype(np.float32 if full < _FLOAT32_EXACT else np.float64)

    def step(rng, m):
        codes = ((x @ planes >= offsets).astype(weights.dtype) @ weights for x in blocks(rng, m, d))
        return sum(np.bincount(c.astype(np.intp), minlength=full + 1) for c in codes)

    counts = sum(_map_chunks(step, seed, samples))
    return counts[full] + counts[full ^ bits]


def corner_volumes_mc(arrangement, samples: int, seed: int):
    """MC volumes, with standard errors, of the corners in the ball (``_ball_blocks``)."""
    d = arrangement.dim
    planes = np.array([[float(h.normal[k]) for h in arrangement.hyperplanes] for k in range(d)])
    offsets = np.array([float(h.offset) for h in arrangement.hyperplanes], dtype=float)
    beta = unit_ball_volume(d)
    fractions = _corner_hits(_ball_blocks, planes, offsets, samples, seed) / samples
    return beta * fractions, beta * np.sqrt(fractions * (1 - fractions) / samples)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit d-ball, pi^{d/2} / Gamma(d/2 + 1)."""
    return pi ** (d / 2) / gamma(d / 2 + 1)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class Simplex:
    """A d-simplex given by d+1 vertices (rows)."""

    vertices: np.ndarray

    @classmethod
    def create(cls, vertices) -> "Simplex":
        arr = np.array([[float(c) for c in v] for v in vertices], dtype=float)
        arr.setflags(write=False)
        if arr.ndim != 2 or arr.shape[1] < 1 or arr.shape[0] != arr.shape[1] + 1:
            raise PreconditionError("a d-simplex needs d+1 vertices in R^d, d >= 1")
        if not np.isfinite(arr).all():
            raise PreconditionError("simplex coordinates must be finite")
        return cls(arr)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def is_degenerate(self) -> bool:
        m = self.vertices[1:] - self.vertices[0]  # the edges from vertex 0
        scale = np.prod(np.linalg.norm(m, axis=1))
        if scale == 0:
            return True
        return abs(np.linalg.det(m)) <= _DEGENERACY_TOL * scale


@dataclass(frozen=True)
class SimplicialCone:
    """Cone spanned by d unit generators (rows) from an apex."""

    apex: np.ndarray
    generators: np.ndarray

    @classmethod
    def create(cls, apex, generators) -> "SimplicialCone":
        apex_arr = np.array([float(c) for c in apex], dtype=float)
        gens = np.array([[float(c) for c in g] for g in generators], dtype=float)
        if gens.shape != (apex_arr.shape[0], apex_arr.shape[0]):
            raise PreconditionError("need d generators in R^d")
        norms = np.linalg.norm(gens, axis=1)
        if np.any(norms == 0):
            raise PreconditionError("zero generator")
        gens = gens / norms[:, None]
        apex_arr.setflags(write=False)
        gens.setflags(write=False)
        return cls(apex_arr, gens)

    @property
    def dim(self) -> int:
        return self.apex.shape[0]

    def is_degenerate(self) -> bool:
        return abs(np.linalg.det(self.generators)) <= _DEGENERACY_TOL

    def is_acute(self) -> bool:
        """Pairwise nonnegative generator dot products.

        The deviation bound only needs nonnegativity (it survives taking
        limits of strictly acute cones, e.g. the orthant), so that is what
        we require.
        """
        g = self.generators @ self.generators.T
        off = g[~np.eye(self.dim, dtype=bool)]
        return bool(np.all(off >= 0))


def _solid_angles_mc(simplex: Simplex, vertices, samples: int, seed: int) -> list:
    """``solid_angle_mc`` at each of ``vertices``, all from one stream at ``seed``.

    With A = [v_0 ... v_d; 1 ... 1] and W = inv(A)[:, :d], the barycentric
    lambda = W u of a direction u sums to 0 and u = sum_{j != i} lambda_j
    (v_j - v_i), so u is in the cone at vertex i iff lambda_j >= 0 for every
    j != i.  The signs of lambda thus place u in every vertex cone at once, and
    one product u @ W.T per block counts them all (``_corner_hits``); a single
    vertex is cheaper on its own d columns of W.
    """
    if simplex.is_degenerate():
        raise PreconditionError("degenerate simplex has no solid angle")
    d = simplex.dim
    planes = np.linalg.inv(np.vstack([simplex.vertices.T, np.ones(d + 1)])).T[:d].copy()
    if len(vertices) == 1:
        cone = np.delete(planes, vertices[0], axis=1)
        p_se = _hit_fraction(lambda u: reduce(np.logical_and, (u @ cone >= 0).T), d, samples, seed)
        return [McEstimate(*p_se, samples, seed)]
    hits = _corner_hits(_gaussian_blocks, planes, 0.0, samples, seed)
    fractions = [int(hits[v]) / samples for v in vertices]
    return [McEstimate(p, sqrt(p * (1 - p) / samples), samples, seed) for p in fractions]


def solid_angle_mc(simplex: Simplex, vertex: int, samples: int, seed: int) -> McEstimate:
    """Normalized solid angle of a simplex at one vertex.

    Counts uniform random directions falling in the cone spanned at the
    vertex; std_error is the binomial sqrt(p(1-p)/n).
    """
    if not 0 <= vertex <= simplex.dim:
        raise PreconditionError(f"vertex must lie in 0..{simplex.dim}")
    return _solid_angles_mc(simplex, [vertex], samples, seed)[0]


@dataclass(frozen=True)
class MsaEstimate:
    value: float
    vertex: int
    std_error: float
    per_vertex: tuple


def msa_mc(simplex: Simplex, samples_per_vertex: int, seed: int) -> MsaEstimate:
    """Minimum solid angle over the vertices; ties go to the lowest index.

    One stream of ``samples_per_vertex`` directions at ``seed`` is tested
    against every vertex cone, so ``per_vertex[i]`` equals
    ``solid_angle_mc(simplex, i, samples_per_vertex, seed)`` and the vertex
    estimates are correlated with each other.
    """
    estimates = _solid_angles_mc(simplex, range(simplex.dim + 1), samples_per_vertex, seed)
    best = min(range(len(estimates)), key=lambda i: (estimates[i].mean, i))
    e = estimates[best]
    return MsaEstimate(e.mean, best, e.std_error, tuple(estimates))


def _msa_raw_bound(d: int) -> float:
    return (2.0 * log(d + 1) / d) ** ((d - 1) / 2.0) * d / (2.0 * pi)


def msa_upper_bound(d: int) -> float:
    """Explicit upper bound for the minimum solid angle of a d-simplex.

    The fully explicit end of the round-cone/cylinder chain,
    (2 ln(d+1)/d)^{(d-1)/2} * d/(2 pi), clamped by the trivial bound 1/2.
    Meaningful as an msa bound for d >= 2.
    """
    if d < 1:
        raise PreconditionError("dimension must be >= 1")
    return min(_msa_raw_bound(d), 0.5)


def msa_upper_bound_is_clamped(d: int) -> bool:
    return _msa_raw_bound(d) > 0.5


def rho_d_asymptotic(d: int) -> float:
    """Leading term of the solid angle of the regular d-simplex,
    sqrt(d+1)/(sqrt(2) e 2^d) * (2e/(pi d))^{d/2} (the 1+O(1/d) factor dropped)."""
    if d < 1:
        raise PreconditionError("dimension must be >= 1")
    return sqrt(d + 1) / (sqrt(2.0) * exp(1.0) * 2.0**d) * (2.0 * exp(1.0) / (pi * d)) ** (d / 2.0)


@dataclass(frozen=True)
class BoundTable:
    """One row of the bound table for a fixed dimension.

    lower_bound_exponent stores the integer m = d^2 + 3d of the selection
    lower bound 2^(-2^m); the bound itself underflows float64 from d = 3 on.
    """

    dim: int
    msa_bound: float  # u(d)
    corner_fraction_bound: float  # g(d) = 2^d u(d)
    lower_bound_exponent: int
    rho_asymptotic: float
    clamped: bool


def bound_table(d: int) -> BoundTable:
    """All bound-table quantities for one dimension."""
    u = msa_upper_bound(d)
    return BoundTable(
        dim=d,
        msa_bound=u,
        corner_fraction_bound=(2.0**d) * u,
        lower_bound_exponent=d * d + 3 * d,
        rho_asymptotic=rho_d_asymptotic(d),
        clamped=msa_upper_bound_is_clamped(d),
    )


def polar_cone(cone: SimplicialCone) -> SimplicialCone:
    """Polar (normal) cone of a nondegenerate simplicial cone at the origin.

    Generators are the negated dual basis of the cone's generators; applying
    the operation twice returns the original cone up to generator order.
    """
    if np.any(cone.apex != 0):
        raise PreconditionError("polar cone requires the apex at the origin")
    if cone.is_degenerate():
        raise PreconditionError("generators are linearly dependent")
    dual = np.linalg.inv(cone.generators)  # columns are dual to the generator rows
    gens = -dual.T
    return SimplicialCone.create(cone.apex, gens)


def restricted_volume_mc(cone: SimplicialCone, samples: int, seed: int) -> McEstimate:
    """Volume of cone intersected with the unit ball, beta_d * direction hit fraction."""
    if np.any(cone.apex != 0):
        raise PreconditionError("restricted volume requires the apex at the origin")
    if cone.is_degenerate():
        raise PreconditionError("generators are linearly dependent")
    angle = solid_angle_mc(Simplex(np.vstack([cone.apex, cone.generators])), 0, samples, seed)
    beta = unit_ball_volume(cone.dim)
    return McEstimate(beta * angle.mean, beta * angle.std_error, samples, seed)


@dataclass(frozen=True)
class FanCoverReport:
    coverage: float
    max_fraction: float
    argmax: int
    fractions: tuple
    samples: int
    seed: int


def _fan_counts(products):
    """``np.bincount(np.argmax(products, axis=1))`` without NaN, cheaper at
    every d: column i takes the rows whose maximum it holds that no lower
    column took.  No column is copied, as fresh (d+1)-row temporaries cost
    page faults that made a contiguous copy slower than argmax at some d."""
    top = reduce(np.maximum, products.T)
    untaken = np.ones(len(top), dtype=bool)
    counts = []
    for column in products.T:
        taken = (column == top) & untaken
        counts.append(np.count_nonzero(taken))
        untaken ^= taken
    return np.array(counts)


def normal_fan_cover_check(simplex: Simplex, samples: int, seed: int) -> FanCoverReport:
    """Classify random directions into the polar cones of a simplex's vertices.

    A direction x goes to argmax_i x.v_i (lowest index on ties), which is
    exactly membership in the polar cone at vertex i, so every direction is
    classified and the fractions sum to one.
    """
    if simplex.is_degenerate():
        raise PreconditionError("degenerate simplex")
    d, vertices = simplex.dim, np.ascontiguousarray(simplex.vertices.T)

    def step(rng, m):
        return sum(_fan_counts(u @ vertices) for u in _gaussian_blocks(rng, m, d))

    counts = sum(_map_chunks(step, seed, samples))
    fractions = counts / samples
    argmax = int(np.argmax(fractions))
    return FanCoverReport(
        coverage=float(counts.sum()) / samples,
        max_fraction=float(fractions[argmax]),
        argmax=argmax,
        fractions=tuple(float(f) for f in fractions),
        samples=samples,
        seed=seed,
    )


def spherical_cap_fraction(d: int, gamma_dist: float) -> float:
    """Normalized solid angle of the round cone cut at distance gamma_dist.

    Fraction of the unit sphere with x_1 >= gamma_dist, equal to the volume
    fraction of (cone ∩ ball): I_x(a, 1/2) / 2 with a = (d-1)/2 and
    x = 1 - gamma_dist^2.  Upward from I_x(1/2, 1/2) = (2/pi) arcsin(sqrt x)
    or I_x(1, 1/2) = 1 - gamma_dist, I_x(a+1, 1/2) = I_x(a, 1/2) - t_a with
    t_1/2 = 2 sqrt(x) gamma_dist / pi, t_1 = x gamma_dist / 2 and
    t_{a+1} = t_a x (a + 1/2) / (a + 1).  A result below 1/4 would carry the
    cancellation of the subtractions, so it is summed as the tail
    sum_k t_{a+k} instead.
    """
    if d < 2:
        raise PreconditionError("round cones need d >= 2")
    if not 0.0 <= gamma_dist <= 1.0:
        raise PreconditionError("gamma must lie in [0, 1]")
    x = 1.0 - gamma_dist * gamma_dist
    if d % 2 == 0:
        a, term, value = 0.5, 2.0 * sqrt(x) * gamma_dist / pi, 2.0 / pi * asin(sqrt(x))
    else:
        a, term, value = 1.0, x * gamma_dist / 2.0, 1.0 - gamma_dist
    while a < (d - 1) / 2.0:
        value -= term
        term *= x * (a + 0.5) / (a + 1.0)
        a += 1.0
    if value < 0.25:
        value = 0.0
        while term > value * 2.0**-60:
            value += term
            term *= x * (a + 0.5) / (a + 1.0)
            a += 1.0
    return 0.5 * value


def round_cone_cut_distance(d: int, volume: float) -> float:
    """Distance from the origin of the hyperplane through the boundary sphere
    of the round cone with the given restricted volume; bisection on the
    exact cap-volume equation to 1e-10."""
    beta = unit_ball_volume(d)
    if not 0.0 < volume < beta / 2.0:
        raise PreconditionError("volume must lie in (0, beta_d / 2)")
    target = volume / beta
    lo, hi = 0.0, 1.0  # fraction decreases from 1/2 at gamma=0 to 0 at gamma=1
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if spherical_cap_fraction(d, mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def round_cone_polar_volume_bound(d: int, volume: float) -> float:
    """Cylinder bound gamma^{d-1} beta_{d-1} on the restricted volume of the
    polar of the round cone whose own restricted volume is ``volume``."""
    gamma_dist = round_cone_cut_distance(d, volume)
    return gamma_dist ** (d - 1) * unit_ball_volume(d - 1)


def round_cone_restricted_volume_mc(d: int, axis_cos: float, samples: int, seed: int) -> McEstimate:
    """MC restricted volume of the round cone {x : x_1 >= axis_cos * |x|}."""
    p, std_error = _hit_fraction(
        lambda u: u[:, 0] >= axis_cos * np.linalg.norm(u, axis=1), d, samples, seed
    )
    beta = unit_ball_volume(d)
    return McEstimate(beta * p, beta * std_error, samples, seed)


def regular_simplex(d: int) -> Simplex:
    """The regular d-simplex with unit circumradius, centered at the origin."""
    corners = np.eye(d + 1) - np.full((d + 1, d + 1), 1.0 / (d + 1))
    # rows live in the hyperplane orthogonal to (1,...,1); project isometrically
    _, _, vt = np.linalg.svd(corners)
    basis = vt[:d]
    verts = corners @ basis.T
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return Simplex.create(verts)


@dataclass(frozen=True)
class MsaSearchReport:
    """Outcome of an empirical search for simplices whose minimum solid angle
    exceeds the regular simplex's vertex angle.

    Candidates are reported with 3-sigma separation on both estimates; the
    search claims nothing beyond listing them for inspection.
    """

    dim: int
    regular_angle: McEstimate
    trials: int
    candidates: tuple
    best_value: float
    seed: int


def msa_regular_comparison_search(
    d: int, trials: int, samples: int, seed: int
) -> MsaSearchReport:
    """Randomly search for a simplex with minimum solid angle above the
    regular simplex's.  No candidate is expected in low dimensions (the
    comparison is known to favor the regular simplex for d <= 4); any hit is
    a candidate counterexample only, to be re-examined at higher precision.
    """
    reg = regular_simplex(d)
    rho_est = solid_angle_mc(reg, 0, samples, seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1 << 20,)))
    candidates = []
    best = 0.0
    done = 0
    while done < trials:
        simplex = Simplex.create(rng.standard_normal((d + 1, d)))
        if simplex.is_degenerate():
            continue
        est = msa_mc(simplex, samples, seed + 1 + done)
        best = max(best, est.value)
        if est.value - 3 * est.std_error > rho_est.mean + 3 * rho_est.std_error:
            candidates.append(
                (done, est, [[float(c) for c in v] for v in simplex.vertices])
            )
        done += 1
    return MsaSearchReport(d, rho_est, trials, tuple(candidates), best, seed)


@dataclass(frozen=True)
class DeviationReport:
    delta: float
    bound: float
    observed_max: float
    samples: int
    seed: int


def acute_cone_admissible_deviation(
    cone: SimplicialCone, perturbed: SimplicialCone, samples: int, seed: int
) -> DeviationReport:
    """Stability of admissible vectors under generator perturbation.

    delta is the max generator deviation between the index-matched cones; an
    admissible vector of the perturbed cone (convex weights, normalized) maps
    to the admissible vector of the base cone with the same weights, and the
    worst-case distance is bounded by 2 d^2 delta.  Reports the empirical max
    over sampled weight vectors.
    """
    if cone.dim != perturbed.dim:
        raise PreconditionError("cones must share the ambient dimension")
    if not np.allclose(cone.apex, perturbed.apex):
        raise PreconditionError("cones must share the apex")
    if not cone.is_acute() or not perturbed.is_acute():
        raise PreconditionError("both cones must be acute")
    if cone.is_degenerate() or perturbed.is_degenerate():
        raise PreconditionError("cones must be simplicial (independent generators)")
    d = cone.dim
    delta = float(np.max(np.linalg.norm(cone.generators - perturbed.generators, axis=1)))
    bound = 2.0 * d * d * delta

    def step(rng, m):
        observed = 0.0
        for b in range(0, m, _BLOCK):  # sequential draws continue the stream
            lam = rng.dirichlet(np.ones(d), size=min(_BLOCK, m - b))
            x = lam @ cone.generators
            xp = lam @ perturbed.generators
            v = x / np.linalg.norm(x, axis=1)[:, None]
            vp = xp / np.linalg.norm(xp, axis=1)[:, None]
            observed = max(observed, float(np.linalg.norm(v - vp, axis=1).max()))
        return observed

    observed = max(_map_chunks(step, seed, samples))
    return DeviationReport(delta, bound, observed, samples, seed)
