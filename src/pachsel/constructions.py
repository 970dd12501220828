"""Instance generators and volume audits: grid-in-ball configurations,
corner-region volume checks against the 2^d * msa bound, and discretization
of weighted point measures into uniform general-position multisets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm, sqrt

import numpy as np

from .cones import Simplex, bound_table, corner_volumes_mc, msa_mc, unit_ball_volume
from .errors import (
    BudgetExceededError,
    InputValidationError,
    InternalInvariantError,
    PreconditionError,
)
from .geometry import LabeledPointSet, in_general_position
from .rational import point_to_fractions, random_fraction, squared_norm, to_fraction
from .selection import (
    GenericPachConfiguration,
    PachCertificate,
    PipelineParams,
    run_pipeline,
    separating_arrangement,
    shrink_to_generic,
)

# Uniform-ball and gaussian coordinate lattice; sets drawn before giving up.
_SAMPLE_DEN = 1 << 17
_GENERATION_RETRIES = 50

# Grid-ball generation snaps coordinates to a lattice with this target
# denominator: plenty of perturbation granularity, while common-denominator
# integer scalings of points in the unit ball stay below 2^20, so planar
# orientation signs and the planar condition-(G) audit run in int64.  The
# lattice stays as it is: changing it would change every generated file.
_LATTICE_TARGET = 600_000


def _lattice_denominator(base_den: int) -> int:
    mult = 1
    while base_den * mult * 2 <= _LATTICE_TARGET:
        mult *= 2
    return base_den * mult


def _admissible_set(dim: int, draw, shape: str) -> LabeledPointSet:
    """Call ``draw`` (None: a failed draw) until the set of its colors is in general position."""
    for _attempt in range(_GENERATION_RETRIES):
        colors = draw()
        if colors is not None and in_general_position(ps := LabeledPointSet.create(dim, colors)):
            return ps
    raise BudgetExceededError(f"{shape} generation failed in {_GENERATION_RETRIES} tries")


# ---------------------------------------------------------------------------
# Grid-in-ball construction


@dataclass(frozen=True)
class GridBallConfig:
    dim: int
    eps: Fraction
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise PreconditionError("dimension must be positive")
        if to_fraction(self.eps) <= 0:
            raise PreconditionError("cube side must be positive")


def grid_cubes_meeting_ball(dim: int, eps) -> list:
    """Integer corner indices of tiling cubes whose interior meets int(B^d)."""
    eps = to_fraction(eps)
    kmax = ceil(1 / eps)
    cubes = []
    for corner in itertools.product(range(-kmax - 1, kmax + 1), repeat=dim):
        closest = []
        for k in corner:
            lo, hi = k * eps, (k + 1) * eps
            closest.append(min(max(Fraction(0), lo), hi))
        if squared_norm(closest) < 1:
            cubes.append(corner)
    if not cubes:
        raise PreconditionError("cube side too large: no cube meets the ball interior")
    return cubes


def _base_point_in_cube_and_ball(corner, eps, lattice_den):
    """A lattice point interior to the cube and to the unit ball."""
    lo = [k * eps for k in corner]
    center = [l + eps / 2 for l in lo]
    closest = [min(max(Fraction(0), l), l + eps) for l in lo]
    t = Fraction(1)
    while True:
        target = [c + t * (m - c) for c, m in zip(closest, center)]
        q = []
        for l, x in zip(lo, target):
            snapped = Fraction(round(x * lattice_den), lattice_den)
            # keep strictly inside the cube slab
            step = Fraction(1, lattice_den)
            if snapped <= l:
                snapped = l + step
            if snapped >= l + eps:
                snapped = l + eps - step
            q.append(snapped)
        inside_cube = all(l < x < l + eps for l, x in zip(lo, q))
        if inside_cube and squared_norm(q) < 1:
            return tuple(q)
        t /= 2
        if t < Fraction(1, 1 << 60):
            raise BudgetExceededError("failed to find a base point inside cube and ball")


def generate_grid_ball(cfg: GridBallConfig) -> LabeledPointSet:
    """One point per (cube, color) inside cube interior and ball interior.

    The per-color copies are independent random rational perturbations of a
    base point of each cube, all on a common lattice; the union is
    regenerated until it is in general position.  Condition (G) is not
    checked: the shrink step verifies the one consequence it needs.
    """
    d = cfg.dim
    eps = to_fraction(cfg.eps)
    cubes = grid_cubes_meeting_ball(d, eps)
    rng = random.Random(cfg.seed)
    lattice_den = _lattice_denominator(eps.denominator)
    step = Fraction(1, lattice_den)
    max_steps = max(1, int(eps / 1000 * lattice_den))  # perturbations up to eps/1000

    def draw():
        colors = [[] for _ in range(d + 1)]
        for corner in cubes:
            lo = [k * eps for k in corner]
            base = _base_point_in_cube_and_ball(corner, eps, lattice_den)
            for ci in range(d + 1):
                m = max_steps
                for _ in range(40):
                    delta = tuple(rng.randint(-m, m) * step for _ in range(d))
                    cand = tuple(b + dx for b, dx in zip(base, delta))
                    in_cube = all(l < x < l + eps for l, x in zip(lo, cand))
                    if in_cube and squared_norm(cand) < 1:
                        colors[ci].append(cand)
                        break
                    m = max(1, m // 2)
                else:
                    return None
        return colors

    return _admissible_set(d, draw, "grid-ball")


def grid_ball_count_bounds(dim: int, eps, n: int):
    """The covering/packing sandwich for the number of contributing cubes:
    beta_d / eps^d <= n <= (1 + eps sqrt(d))^d beta_d / eps^d."""
    eps_f = float(to_fraction(eps))
    beta = unit_ball_volume(dim)
    lower = beta / eps_f**dim
    upper = (1.0 + eps_f * sqrt(dim)) ** dim * beta / eps_f**dim
    return lower, upper, lower <= n <= upper


# ---------------------------------------------------------------------------
# Other shapes (uniform ball, gaussian)


def uniform_ball_set(dim: int, n: int, seed: int = 0) -> LabeledPointSet:
    """n exact-rational points per color, uniform in the unit ball interior:
    numerators a uniform in [-den, den]^dim, kept when sum(a*a) < den^2 on
    ints, so only the accepted draws become Fractions a/den."""
    rng = random.Random(seed)
    den = _SAMPLE_DEN

    def draw():
        colors = []
        for _ci in range(dim + 1):
            pts = []
            while len(pts) < n:
                nums = [rng.randint(-den, den) for _ in range(dim)]
                if sum(a * a for a in nums) < den * den:
                    pts.append(tuple(Fraction(a, den) for a in nums))
            colors.append(pts)
        return colors

    return _admissible_set(dim, draw, "uniform-ball")


def gaussian_set(dim: int, n: int, seed: int = 0) -> LabeledPointSet:
    """n exact-rational points per color with snapped standard-normal coordinates."""
    rng = random.Random(seed)
    den = _SAMPLE_DEN

    def draw():
        return [
            [
                tuple(Fraction(round(rng.gauss(0.0, 1.0) * den), den) for _ in range(dim))
                for _ in range(n)
            ]
            for _ in range(dim + 1)
        ]

    return _admissible_set(dim, draw, "gaussian")


# ---------------------------------------------------------------------------
# Corner-volume audit


@dataclass(frozen=True)
class CornerVolumeReport:
    volumes: tuple
    min_volume: float
    min_index: int
    msa_value: float
    msa_vertex: int
    bound: float
    sigma: float
    passed: bool
    samples: int
    seed: int


def corner_volume_audit(
    cfg: GenericPachConfiguration, samples: int, seed: int
) -> CornerVolumeReport:
    """Check min_i Vol(C_i ∩ B^d) <= 2^d * msa(Delta(H)) * beta_d (+3 sigma).

    Requires the configuration (selected points and the anchor) inside the
    unit ball.  Builds the separating arrangement, MC-measures the corner
    volumes and the minimum solid angle of the central simplex, and compares
    at combined 3-sigma tolerance.
    """
    d = cfg.point_set.dim
    for c in cfg.selected_colors():
        for p in c:
            if squared_norm(point_to_fractions(p)) > 1:
                raise PreconditionError("configuration points must lie in the unit ball")
    if squared_norm(point_to_fractions(cfg.point)) > 1:
        raise PreconditionError("anchor must lie in the unit ball")
    arrangement = separating_arrangement(cfg, seed=seed)
    volumes, vol_sigmas = corner_volumes_mc(arrangement, samples, seed + 1)
    min_index = int(np.argmin(volumes))
    min_volume = float(volumes[min_index])
    delta = Simplex.create([[float(c) for c in v] for v in arrangement.vertices])
    msa = msa_mc(delta, samples, seed + 2)
    beta = unit_ball_volume(d)
    bound = (2.0**d) * msa.value * beta
    sigma = sqrt(float(vol_sigmas[min_index]) ** 2 + ((2.0**d) * beta * msa.std_error) ** 2)
    passed = min_volume <= bound + 3.0 * sigma
    return CornerVolumeReport(
        volumes=tuple(float(v) for v in volumes),
        min_volume=min_volume,
        min_index=min_index,
        msa_value=msa.value,
        msa_vertex=msa.vertex,
        bound=bound,
        sigma=sigma,
        passed=passed,
        samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Upper-bound witness report


@dataclass(frozen=True)
class UpperBoundWitnessReport:
    dim: int
    eps: str
    n: int
    certificate_fractions: tuple
    shrunk_fractions: tuple
    min_fraction: float
    min_color: int
    corner_bound_g: float
    g_is_vacuous: bool
    volume_ratios: tuple
    min_fraction_vs_volume_pass: bool
    sigma: float
    corner_report: CornerVolumeReport
    seed: int


def upper_bound_witness(
    dim: int,
    eps,
    seed: int = 0,
    samples: int = 200_000,
) -> UpperBoundWitnessReport:
    """Grid-ball instance -> pipeline -> generic configuration -> volume audit.

    Reports the achieved min selection fraction against the corner-fraction
    bound g(d) = 2^d u(d) and against the measured corner volume ratio
    Vol(C_l ∩ B^d)/beta_d; at fixed cube side the volume ratio plays the role
    of the vanishing-slack term, so the report demonstrates the mechanism
    rather than proving the limit statement.
    """
    cfg_gen = GridBallConfig(dim=dim, eps=to_fraction(eps), seed=seed)
    point_set = generate_grid_ball(cfg_gen)
    n = point_set.sizes()[0]
    cert: PachCertificate = run_pipeline(point_set, PipelineParams(seed=seed))
    generic = shrink_to_generic(
        point_set,
        cert.index_sets,
        cert.point,
        seed=seed + 1,
    )
    report = corner_volume_audit(generic, samples, seed + 2)
    beta = unit_ball_volume(dim)
    shrunk_fractions = tuple(
        Fraction(len(idxs), n) for idxs in generic.index_sets
    )
    min_color = min(range(dim + 1), key=lambda i: shrunk_fractions[i])
    min_fraction = float(shrunk_fractions[min_color])
    volume_ratios = tuple(v / beta for v in report.volumes)
    sigma = report.sigma / beta
    table = bound_table(dim)
    g = table.corner_fraction_bound
    return UpperBoundWitnessReport(
        dim=dim,
        eps=str(to_fraction(eps)),
        n=n,
        certificate_fractions=cert.fractions,
        shrunk_fractions=shrunk_fractions,
        min_fraction=min_fraction,
        min_color=min_color,
        corner_bound_g=g,
        g_is_vacuous=g >= 1.0,
        volume_ratios=volume_ratios,
        min_fraction_vs_volume_pass=min_fraction
        <= volume_ratios[min_color] + 3.0 * sigma,
        sigma=sigma,
        corner_report=report,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Measure discretization


@dataclass(frozen=True)
class WeightedPointMeasure:
    """Per color: finitely many points with positive rational weights summing to 1."""

    dim: int
    colors: tuple  # per color, tuple of (point, weight)

    def __post_init__(self):
        if len(self.colors) != self.dim + 1:
            raise InputValidationError(f"need d+1 = {self.dim + 1} weighted colors")
        for pts in self.colors:
            total = sum((to_fraction(w) for _, w in pts), Fraction(0))
            if total != 1:
                raise InputValidationError("weights of each color must sum to 1")
            if any(to_fraction(w) <= 0 for _, w in pts):
                raise InputValidationError("weights must be positive")
            if any(len(p) != self.dim for p, _ in pts):
                raise InputValidationError(f"measure points must have dimension {self.dim}")

    @classmethod
    def create(cls, dim, colors) -> "WeightedPointMeasure":
        normalized = tuple(
            tuple((point_to_fractions(p), to_fraction(w)) for p, w in pts) for pts in colors
        )
        return cls(dim, normalized)


def discretize_measure(dim: int, weighted_colors, spread, seed: int = 0) -> LabeledPointSet:
    """Replace weighted points by unit-weight nearby copies, per color.

    Each color is a list of (point, weight) pairs, the form that
    ``WeightedPointMeasure.create`` checks: positive rational weights summing
    to one.  With s the least common denominator over all weights, a
    point of weight r/s becomes r distinct points within ``spread`` of it;
    every color then contributes exactly s points and the union is in
    general position (verified, retried).
    """
    spread = to_fraction(spread)
    if spread <= 0:
        raise PreconditionError("spread must be positive")
    measure = WeightedPointMeasure.create(dim, weighted_colors)
    s = lcm(*(w.denominator for pts in measure.colors for _, w in pts))
    rng = random.Random(seed)
    spread_sq = spread * spread

    def draw():
        colors = []
        for pts in measure.colors:
            out = []
            for point, weight in pts:
                for _ in range(int(weight * s)):
                    while True:
                        delta = tuple(random_fraction(rng, -spread, spread) for _ in range(dim))
                        if squared_norm(delta) < spread_sq:
                            break
                    out.append(tuple(a + b for a, b in zip(point, delta)))
            if len(out) != s:
                raise InternalInvariantError("per-color count mismatch")
            colors.append(out)
        return colors

    return _admissible_set(dim, draw, "measure")
