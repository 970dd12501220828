"""The selection pipeline: deep rainbow point, anchor perturbation, weak
hypergraph regularity, few separations, and certificate assembly.

Stages communicate by value and are deterministic given their seeds.  Every
combinatorial decision is exact; see geometry.py for the predicate layer.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, comb, floor, gcd, prod

import numpy as np

from .arrangements import HyperplaneArrangement, build_arrangement, separation_dichotomy
from .enumeration import tuple_grid
from .errors import (
    BudgetExceededError,
    GeneralPositionError,
    InputValidationError,
    InternalInvariantError,
    ParseError,
    PreconditionError,
)
from .geometry import (
    BLOCK_CELLS,
    LabeledPointSet,
    OrientedHyperplane,
    _cofactor_signs,
    _first_dependent_tuple,
    cofactor_signs,
    combination_rank,
    combination_rows,
    homogeneous_rows,
    plane_signs,
    plane_values,
    spanned_cofactors,
    spanned_witness,
    strict_separation,
)
from .io import (
    arrangement_from_json_dict,
    arrangement_to_json_dict,
    int_from_json,
    list_from_json,
    scalar_from_json,
)
from .rational import common_denominator, format_scalar, point_to_fractions, to_fraction

_BRANCH_ALL = "all-contain"
_BRANCH_NONE = "none-contain"
# zero-edge witness search is exhaustive up to this many candidate tuples
_EXHAUSTIVE_WITNESS_CAP = 1_000_000
# a batched zero-edge test takes 64 candidates, doubling up to 4096 (which
# bounds the Python tuples held) and to 2^20 gathered hypergraph cells
_WITNESS_FIRST_ROWS, _WITNESS_MAX_ROWS, _WITNESS_BLOCK_CELLS = 64, 1 << 12, 1 << 20
# none-contain outcomes fed back into regularity before giving up
_MAX_RESTRICT_LOOPS = 64
# random rational moves tried, at halving steps, before a perturbation gives up
_PERTURB_RETRIES = 50
_DEEP_BUDGET = 5_000_000  # rainbow simplices a deep-point search may score


# ---------------------------------------------------------------------------
# Rainbow hypergraph


@dataclass(frozen=True)
class RainbowHypergraph:
    """(d+1)-partite incidence structure of rainbow simplices containing p.

    ``edges[i_0, ..., i_d]`` is True when the rainbow simplex with point
    ``i_c`` of color ``c`` as vertices (closed hull, exact arithmetic)
    contains the anchor.  Indices are the within-color indices of the set.
    """

    edges: np.ndarray

    @property
    def sizes(self):
        return self.edges.shape

    @property
    def density(self) -> Fraction:
        return Fraction(int(self.edges.sum()), prod(self.sizes))

    def sub_edge_count(self, subsets) -> int:
        return int(self.edges[np.ix_(*subsets)].sum())


def rainbow_hypergraph(point_set: LabeledPointSet, anchor) -> RainbowHypergraph:
    """Build the containment hypergraph of an anchor over the whole set."""
    closed, _ = point_set.rainbow_enumerator.containment_masks([anchor])
    return RainbowHypergraph(closed[0])


# ---------------------------------------------------------------------------
# Deep rainbow point


@dataclass(frozen=True)
class DeepPointResult:
    point: tuple
    depth: int
    open_depth: int
    total: int
    candidate_label: str
    candidates_evaluated: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.depth, self.total)


def deep_rainbow_point(
    point_set: LabeledPointSet,
    random_candidates: int = 200,
    seed: int = 0,
) -> DeepPointResult:
    """Best candidate point by exact closed rainbow-containment count.

    Scores the distinct candidate points in one batched enumeration: the
    centroid, the coordinate-wise median, and ``random_candidates`` seeded
    random rainbow-simplex centroids.  Only candidates interior to some
    rainbow simplex compete, since the anchor needs that margin: an input
    point (the point of a one-point color is a vertex of every rainbow
    simplex) can have the full closed depth and none.  The winner's
    depth/total ratio is reported so callers can compare against the
    first-selection constant.

    Precondition: the set is in general position, decided here once per
    ``LabeledPointSet`` and reused by later stages handed the same instance.
    """
    if random_candidates < 0:
        raise PreconditionError("random_candidates must be >= 0")
    sizes = point_set.sizes()
    if prod(sizes) > _DEEP_BUDGET:
        raise BudgetExceededError(f"{prod(sizes)} rainbow simplices exceed budget {_DEEP_BUDGET}")
    point_set.require_general_position()
    enum = point_set.rainbow_enumerator
    # candidates are means of k union points scaled to integers by the table's
    # den, each as its reduced homogeneous row (k, sum)/gcd: equal rows are equal points
    union = [x for _, *x in homogeneous_rows(point_set.union_points(), enum.den)]
    m = len(union)
    lower, upper = zip(*[(c[(m - 1) // 2], c[m // 2]) for c in map(sorted, zip(*union))])
    labels = {_mean_row(m, union): "centroid"}  # distinct candidates in order, first labels
    labels.setdefault(_mean_row(2, (lower, upper)), "coordinate-median")
    rng = random.Random(seed)
    k = point_set.dim + 1
    starts = np.cumsum((0,) + sizes).tolist()
    for t in range(random_candidates):
        verts = [union[starts[ci] + rng.randrange(sizes[ci])] for ci in range(k)]
        labels.setdefault(_mean_row(k, verts), f"simplex-centroid-{t}")
    rows = list(labels)
    closed, open_ = enum.depths(rows)
    # the first strict maximum in candidate order among those with an open margin
    best = int(np.argmax(np.where(open_ > 0, closed, -1)))
    w, *x = row = rows[best]
    p = tuple(Fraction(c, w * enum.den) for c in x)
    return DeepPointResult(p, int(closed[best]), int(open_[best]), enum.total, labels[row], len(rows))


def _mean_row(k, points):
    """Reduced homogeneous row (k, S)/gcd of the mean of k integer points, S their sum."""
    row = (k, *map(sum, zip(*points)))
    g = gcd(*row)
    return tuple(c // g for c in row)


# ---------------------------------------------------------------------------
# Anchor perturbation


def _random_rational_vector(rng, d):
    return tuple(Fraction(rng.randint(-(1 << 20), 1 << 20), 1 << 20) for _ in range(d))


def _nudge_off_hyperplanes(anchor, points, spanned, seed):
    """Shift the anchor off every hyperplane spanned by the points while
    crossing none; ``spanned`` is their ``spanned_cofactors`` table.

    Preserving the nonzero spanned-hyperplane signs preserves, in particular,
    open containment in every simplex spanned by the points.  Steps start at
    (max |coordinate| + 1) / 2^20 and halve; all of them are scored in one
    batch against that table, and the first that passes wins.  Returns the
    anchor unchanged when it is already off all hyperplanes; either way every
    spanned sign of the returned point is nonzero.
    """
    d = len(anchor)
    anchor_fr = point_to_fractions(anchor)
    table, den, _, floats = spanned
    (base_signs,), _ = cofactor_signs(homogeneous_rows([anchor_fr], den), table, floats)
    if base_signs.all():
        return anchor_fr
    rng = random.Random(seed)
    magnitude = Fraction(max((abs(c) for p in points for c in p), default=1) + 1, 1 << 20)
    cands = [
        tuple(a + magnitude / 2**t * u for a, u in zip(anchor_fr, _random_rational_vector(rng, d)))
        for t in range(_PERTURB_RETRIES)
    ]
    signs, _ = cofactor_signs(homogeneous_rows(cands, den), table, floats)
    passing = np.where(base_signs == 0, signs != 0, signs == base_signs).all(axis=1)
    if not passing.any():
        raise BudgetExceededError(f"anchor perturbation failed after {_PERTURB_RETRIES} attempts")
    return cands[int(np.argmax(passing))]


def perturb_anchor(anchor, point_set: LabeledPointSet, seed: int = 0) -> tuple:
    """Move the anchor into general position with the set without leaving the
    interior of any rainbow simplex that contained it.

    Preconditions: the anchor is interior to at least one rainbow simplex;
    the set is in general position (its recorded verdict, free after
    ``deep_rainbow_point``).  Open containment is re-verified afterwards.
    """
    enum = point_set.rainbow_enumerator
    _, before_open = enum.containment_masks([anchor])
    if not before_open.any():
        raise PreconditionError("anchor has no open-interior margin")
    point_set.require_general_position()
    moved = _nudge_off_hyperplanes(anchor, point_set.union_points(), point_set.spanned_table, seed)
    # rainbow_hypergraph(point_set, moved) reuses these masks: they are the latest batch
    _, after_open = enum.containment_masks([moved])
    # every simplex that held the anchor in its interior must still hold it;
    # boundary simplices may open up, which only increases the depth
    if not np.array_equal(before_open, before_open & after_open):
        raise InternalInvariantError("perturbation lost an open containment")
    # moved lies on no hyperplane spanned by the union, which is in general
    # position, so the union plus moved is in general position too.
    return moved


# ---------------------------------------------------------------------------
# Weak hypergraph regularity


@dataclass(frozen=True)
class RegularityParams:
    epsilon: Fraction
    beta: Fraction
    witness_budget: int = 2000
    seed: int = 0

    def __post_init__(self):
        eps = to_fraction(self.epsilon)
        if not Fraction(0) < eps < Fraction(1, 2):
            raise PreconditionError("epsilon must lie in (0, 1/2)")
        if to_fraction(self.beta) <= 0:
            raise PreconditionError("beta must be positive")
        if self.witness_budget < 1:
            raise PreconditionError("witness budget must be at least 1")


@dataclass(frozen=True)
class RegularityStep:
    size_before: int  # smallest part size
    size_after: int
    density_before: Fraction
    density_after: Fraction
    witness_source: str  # "exhaustive" | "sampled" | "forced"


@dataclass(frozen=True)
class RegularityResult:
    parts: tuple  # point indices per color; equal starting parts stay equal
    size: int  # smallest part size
    density: Fraction
    status: str  # "exhaustive-clean" | "sampled-clean"
    trials: int
    steps: tuple

    def report(self) -> str:
        if self.status == "exhaustive-clean":
            return self.status
        return f"sampled-clean({self.trials})"


def _block_density(h, block):
    cnt = h.sub_edge_count(block)
    return Fraction(cnt, prod(len(b) for b in block))


def _greedy_trim(h, block, targets):
    """Trim part i of a block to ``targets[i]`` vertices without losing density.

    Keeping the top-degree vertices of one part preserves at least the
    average edge share; parts are processed in order, recomputing degrees.
    """
    block = [list(b) for b in block]
    k = len(block)
    for i, target in enumerate(targets):
        if len(block[i]) == target:
            continue
        sub = h.edges[np.ix_(*block)]
        axes = tuple(j for j in range(k) if j != i)
        degrees = sub.sum(axis=axes)
        order = np.lexsort((np.arange(len(block[i])), -degrees))
        keep = sorted(order[:target])
        block[i] = [block[i][j] for j in keep]
    return tuple(tuple(b) for b in block)


def _restrict(h, parts, witness, source):
    """One restriction step: pick the densest block other than the
    all-witness one, then trim it proportionally to the parts.

    With sigma = min_j |B_j|/|P_j|, part i keeps max(1, floor(sigma |P_i|))
    vertices, at most |B_i|; on equal parts that is min_j |B_j| for all.
    """
    k = len(parts)
    density_before = _block_density(h, parts)
    complements = [
        tuple(i for i in part if i not in set(w)) for part, w in zip(parts, witness)
    ]
    best = None
    for choice in itertools.product((0, 1), repeat=k):
        if all(c == 0 for c in choice):
            continue  # the all-witness block has no edges by construction
        block = tuple(
            witness[i] if choice[i] == 0 else complements[i] for i in range(k)
        )
        if any(len(b) == 0 for b in block):
            continue
        dens = _block_density(h, block)
        if best is None or dens > best[0]:
            best = (dens, block)
    if best is None:
        raise InternalInvariantError("no candidate block in restriction step")
    _, block = best
    sigma = min(Fraction(len(b), len(p)) for b, p in zip(block, parts))
    targets = [max(1, floor(sigma * len(p))) for p in parts]
    trimmed = _greedy_trim(h, block, targets)
    density_after = _block_density(h, trimmed)
    if density_after < density_before:
        raise InternalInvariantError("restriction decreased density")
    step = RegularityStep(
        size_before=min(len(p) for p in parts),
        size_after=min(targets),
        density_before=density_before,
        density_after=density_after,
        witness_source=source,
    )
    return trimmed, step


def _find_zero_edge_witness(h, parts, ts, budget, rng):
    """Zero-edge tuple of subsets of sizes ``ts``, with the guarantee actually used.

    Returns (witness or None, source string, trials).  Exhaustive only when
    the tuple count is within ``_EXHAUSTIVE_WITNESS_CAP`` (trials is that
    count); otherwise ``budget`` random samples (trials counts them up to
    the witness).  Candidates are tested in doubling blocks by a fancy index
    that gathers each block's sub-boxes as (B, t_0, ..., t_d).  A sampled
    block draws from the numpy generator ``rng``, part by part, uniform keys
    of shape (B, |P_i|) and keeps the positions of the t_i smallest, in
    increasing order: B uniform t_i-subsets of each part.
    """
    k = len(parts)
    n_tuples = prod(comb(len(part), t) for part, t in zip(parts, ts))
    sampled = n_tuples > _EXHAUSTIVE_WITNESS_CAP
    source, total = ("sampled", budget) if sampled else ("exhaustive", n_tuples)
    arrays = [np.array(part) for part in parts]
    # each part's t_i-subsets, read in product() order by mixed-radix digits; exhaustive only
    tables = None if sampled else [a[combination_rows(len(a), t)] for a, t in zip(arrays, ts)]

    def draw(start, size):
        if sampled:
            picks = [np.argpartition(rng.random((size, len(a))), t - 1) for a, t in zip(arrays, ts)]
            return [a[np.sort(p[:, :t])] for a, p, t in zip(arrays, picks, ts)]
        digits = np.unravel_index(np.arange(start, start + size), [len(t) for t in tables])
        return [table[i] for table, i in zip(tables, digits)]

    cap = max(1, min(_WITNESS_MAX_ROWS, _WITNESS_BLOCK_CELLS // prod(ts)))
    # color j's indices broadcast along axis j + 1 of the gathered cells
    shapes = [(-1,) + (1,) * j + (t,) + (1,) * (k - 1 - j) for j, t in enumerate(ts)]
    cell_axes = tuple(range(1, k + 1))
    rows, tried = _WITNESS_FIRST_ROWS, 0
    while tried < total:
        size = min(rows, cap, total - tried)
        chosen = draw(tried, size)  # per part, the (size, t_i) chosen indices
        index = [i.reshape(shape) for i, shape in zip(chosen, shapes)]
        # first the slices at each candidate's first last-color index: most
        # candidates of a dense hypergraph show an edge there already
        first = h.edges[tuple(index[:-1]) + (index[-1][..., :1],)]
        alive = np.flatnonzero(~first.any(axis=cell_axes))
        free = alive[~h.edges[tuple(i[alive] for i in index)].any(axis=cell_axes)]
        if free.size:
            hit = int(free[0])
            witness = tuple(tuple(i[hit].tolist()) for i in chosen)
            return witness, source, tried + hit + 1 if sampled else n_tuples
        tried, rows = tried + size, rows * 2
    return None, source, tried


def weak_regularity(
    h: RainbowHypergraph,
    params: RegularityParams,
    initial_parts=None,
    forced_witness=None,
) -> RegularityResult:
    """Constructive weak regularity: parts of density >= beta such that no
    found tuple of subsets of sizes t_i = max(1, ceil(eps |P_i|)) is edge-free.

    Whenever a zero-edge witness tuple is found the parts restrict to the
    densest other block (density gain >= 1/(1 - prod t_i/|P_i|)), trimmed
    proportionally to the parts, and the search repeats until a search comes
    back clean or every t_i >= |P_i|.  The returned report says whether the
    final clean witness search was exhaustive or sampled, which is the
    guarantee actually established.  Parts may have any sizes; equal parts
    stay equal.  They are point indices per color, the hypergraph's own
    index space: ``initial_parts`` (default: every point) sets the start,
    and ``forced_witness`` lets a caller inject an externally discovered
    zero-edge tuple, trimmed to the t_i, before searching.
    """
    eps = to_fraction(params.epsilon)
    if initial_parts is None:
        parts = tuple(tuple(range(n)) for n in h.sizes)
    else:
        parts = tuple(tuple(p) for p in initial_parts)
    density = _block_density(h, parts)
    if density < to_fraction(params.beta):
        raise PreconditionError(f"density {density} below the floor {params.beta}")
    # the witness generator's seed: an injective map of any int to one >= 0
    rng = np.random.default_rng(2 * params.seed if params.seed >= 0 else -2 * params.seed - 1)
    steps = []

    def witness_sizes():
        return tuple(max(1, ceil(eps * len(p))) for p in parts)

    if forced_witness is not None:
        ts = witness_sizes()
        trimmed_witness = tuple(tuple(sorted(w)[:t]) for w, t in zip(forced_witness, ts))
        if any(len(w) != t for w, t in zip(trimmed_witness, ts)):
            raise PreconditionError("forced witness parts are smaller than eps * |P_i|")
        if h.sub_edge_count(trimmed_witness) != 0:
            raise PreconditionError("forced witness spans an edge")
        parts, step = _restrict(h, parts, trimmed_witness, "forced")
        steps.append(step)
    while True:
        ts = witness_sizes()
        if all(t >= len(p) for t, p in zip(ts, parts)):
            # A witness would be the whole tuple, which has positive density.
            status, trials = "exhaustive-clean", 0
            break
        witness, source, count = _find_zero_edge_witness(
            h, parts, ts, params.witness_budget, rng
        )
        if witness is None:
            status = "exhaustive-clean" if source == "exhaustive" else "sampled-clean"
            trials = count
            break
        parts, step = _restrict(h, parts, witness, source)
        steps.append(step)
    return RegularityResult(
        parts=parts,
        size=min(len(p) for p in parts),
        density=_block_density(h, parts),
        status=status,
        trials=trials,
        steps=tuple(steps),
    )


# ---------------------------------------------------------------------------
# Ham-sandwich bisection


def ham_sandwich_bisect(sets) -> OrientedHyperplane:
    """A hyperplane simultaneously bisecting d point sets in R^d.

    Enumerates hyperplanes spanned by one point of each set (deterministic
    lexicographic order) and returns the first whose two open sides each
    contain at least floor((|S_i| - on_i)/2) points of every set, where on_i
    counts the set's points on the hyperplane.  In general position some such
    spanned cut always exists; the union's one spanned table is scanned for
    general position (O(N^{d+1})) and then scored by the search.
    """
    _require_bisectable(sets)
    d, union = len(sets), [p for s in sets for p in s]
    spanned = spanned_cofactors(union, d)
    violation = _first_dependent_tuple(union, d, spanned)
    if violation is not None:
        raise GeneralPositionError("sets are not in general position", violation)
    ends = np.cumsum([len(s) for s in sets])
    return _spanned_bisecting_cut(spanned, union, [np.arange(e - len(s), e) for s, e in zip(sets, ends)])


def _require_bisectable(sets):
    if len(sets) > 3:
        raise PreconditionError("enumerative ham-sandwich supports d <= 3")
    if not sets or any(len(s) == 0 for s in sets):
        raise PreconditionError("empty set cannot be bisected")


def _spanned_bisecting_cut(spanned, points, sets) -> OrientedHyperplane:
    """``ham_sandwich_bisect`` for a caller that vouches for general position:
    ``sets`` are d int arrays of indices into ``points``, set i's below set
    i+1's, and ``spanned`` is the points' ``spanned_cofactors``.
    A span, one point per set in ``itertools.product`` order, is the table row
    of its ``combination_rank``, scored in blocks of about BLOCK_CELLS cells.
    With den = k den', den' the sets' own denominator, row c is k^(d-1) (k c'[0],
    c'[1:]) for the row c' at den': the cut -c'[1:].x = c'[0]/den' is the same."""
    _require_bisectable(sets)
    d = len(sets)
    table, den, _, floats = spanned
    order = np.concatenate(sets)  # the scored points, set by set
    ordered = [points[u] for u in order]
    faces = tuple_grid([s[:, None] for s in sets]).reshape(-1, d)
    spans = combination_rank(faces, len(points))
    starts = np.cumsum([0] + [len(s) for s in sets[:-1]])
    rows, scale = homogeneous_rows(ordered, den), (den // common_denominator(ordered)) ** (d - 1)
    step = max(1, BLOCK_CELLS // len(rows))
    for start in range(0, len(spans), step):
        block = spans[start : start + step]
        # a span's own points, one per set, lie on it: exact zeros, never recomputed
        zeros = (faces[None, start : start + step] == order[:, None, None]).any(axis=2)
        signs, _ = _cofactor_signs(rows, table[block], floats[:, block], zeros)
        # a set is bisected iff its positive and negative counts differ by at most 1
        balance = np.add.reduceat(signs.astype(np.int64), starts, axis=0)
        hits = np.flatnonzero((np.abs(balance) <= 1).all(axis=0))
        if hits.size:
            c0, *c = table[block[hits[0]]].tolist()
            return OrientedHyperplane(tuple(Fraction(-x // scale) for x in c), Fraction(c0, den * scale))
    raise GeneralPositionError("no spanned bisecting cut found; inputs degenerate")


# ---------------------------------------------------------------------------
# Few separations


@dataclass(frozen=True)
class FewSeparationsResult:
    index_sets: tuple  # point indices per color
    arrangement: HyperplaneArrangement
    branch: str  # "all-contain" | "none-contain"


def _arrangement_in_general_position(planes, point, colors, seed):
    """The arrangement of d+1 separating hyperplanes, in general position.

    Plane i strictly separates ``point`` from every color but i.  The planes
    are used as they are when they already form an arrangement; otherwise
    each is jittered by a rational amount below its slack, which keeps the
    strict side of ``point`` and of every color but i against plane i.  Only
    ``build_arrangement``'s PreconditionError is retried: planes that pass its
    checks have affinely independent vertices, so InternalInvariantError is a fault.
    """
    try:
        return build_arrangement(planes)
    except PreconditionError:
        pass
    d = planes[0].dim
    protected = [
        [q for j, c in enumerate(colors) if j != i for q in c] + [point]
        for i in range(len(planes))
    ]
    rng = random.Random(seed)
    slacks = []
    for h, pts in zip(planes, protected):
        slack = min(map(abs, plane_values(pts, h)))
        reach = max(
            sum(abs(to_fraction(c)) for c in q) + 1 for q in pts
        )
        slacks.append(slack / (2 * reach))
    eta = min(slacks)
    for _ in range(_PERTURB_RETRIES):
        jittered = []
        for h in planes:
            *dn, doff = _random_rational_vector(rng, d + 1)
            normal = tuple(c + eta * u for c, u in zip(h.normal, dn))
            jittered.append(OrientedHyperplane(normal, h.offset + eta * doff))
        sides_ok = all(
            np.array_equal(*plane_signs(pts, [h, hj]).T)
            for h, hj, pts in zip(planes, jittered, protected)
        )
        if not sides_ok:
            eta /= 2
            continue
        try:
            return build_arrangement(jittered)
        except PreconditionError:
            eta /= 2
    raise BudgetExceededError("could not perturb hyperplanes into general position")


def few_separations(
    point_set: LabeledPointSet, index_sets, anchor, seed: int = 0
) -> FewSeparationsResult:
    """d+1 rounds of ham-sandwich halving, then one arrangement classifying
    the anchor: it lies in all rainbow simplices of the kept subsets or in
    none of them; each kept subset retains at least a 1/2^d fraction.  The
    subsets are arrays of union indices, and the cuts and the check below
    read rows of the set's one ``spanned_table``, found by rank.

    Precondition: the set is in general position (its recorded verdict) and
    the anchor lies on no hyperplane spanned by the selected union: the rows
    with faces in the union, a check whose witness ends with the anchor's
    index, the union's size.
    """
    d = point_set.dim
    anchor = point_to_fractions(anchor)
    points = [point_to_fractions(p) for p in point_set.union_points()]
    point_set.require_general_position()
    starts = np.cumsum((0,) + point_set.sizes()).tolist()
    current = [starts[ci] + np.array(idxs, dtype=np.int64) for ci, idxs in enumerate(index_sets)]
    chosen = np.concatenate(current).tolist()
    union = np.array(sorted(chosen), dtype=np.int64)
    inside = combination_rank(union[combination_rows(len(chosen), d)], starts[-1])  # union's faces
    face = spanned_witness(point_set.spanned_table, inside, anchor)
    if face is not None:
        witness = (*map(chosen.index, face), len(chosen))
        raise GeneralPositionError("subsets and anchor are not in general position", witness)
    separators = []
    for j in range(d + 1):
        others = [i for i in range(d + 1) if i != j]
        # Subsets of a set in general position: no rescan.
        cut = _spanned_bisecting_cut(point_set.spanned_table, points, [current[i] for i in others])
        vp, *values = plane_values([anchor] + [points[u] for i in others for u in current[i]], cut)
        if vp == 0:
            # Impossible once the union with the anchor is in general position:
            # the cut is spanned by d input points.
            raise GeneralPositionError("anchor lies on a spanned ham-sandwich cut")
        # Shift the cut toward the anchor by half the smallest off-cut margin:
        # the anchor stays on side sigma, and a point goes to the other side
        # iff sigma v <= 0, the cut's own spanning points included.
        sigma = 1 if vp > 0 else -1
        margin = min([abs(vp)] + [abs(v) for v in values if v != 0])
        rest = iter(values)  # zip draws from current[i] first, so none is skipped
        for i in others:
            kept = current[i][np.array([sigma * v <= 0 for _, v in zip(current[i], rest)], bool)]
            if 2 * len(kept) < len(current[i]):
                raise InternalInvariantError("halving round kept fewer than half")
            current[i] = kept
        separators.append(OrientedHyperplane(cut.normal, cut.offset + sigma * margin / 2))
    index_result = tuple(tuple(sorted((part - s).tolist())) for part, s in zip(current, starts))
    subsets = [[points[u] for u in part] for part in current]
    arrangement = _arrangement_in_general_position(separators, anchor, subsets, seed)
    outcome = separation_dichotomy(anchor, arrangement, subsets)
    branch = _BRANCH_ALL if outcome.inside else _BRANCH_NONE
    return FewSeparationsResult(index_result, arrangement, branch)


# ---------------------------------------------------------------------------
# Generic configurations (shrink + separating arrangement)


@dataclass(frozen=True)
class GenericPachConfiguration:
    """Disjoint selected subsets plus a point interior to all their rainbow
    simplices, with the union in general position."""

    point_set: LabeledPointSet
    index_sets: tuple
    point: tuple

    def selected_colors(self):
        return [
            [self.point_set.point(ci, i) for i in idxs]
            for ci, idxs in enumerate(self.index_sets)
        ]

    def validate(self) -> None:
        selected = LabeledPointSet.create(self.point_set.dim, self.selected_colors())
        _check_generic(selected, self.point)


def _check_generic(selected: LabeledPointSet, point) -> None:
    """Raise unless ``point`` with the union of ``selected`` is in general
    position and the point is interior to every rainbow simplex of the set.

    The witness is the lexicographically first dependent tuple of the union
    plus the point: the earlier of the set's recorded violation and the
    first spanned face through the point (``spanned_witness`` against the
    set's table) followed by the point's index."""
    face = spanned_witness(selected.spanned_table, slice(None), point)
    through = None if face is None else (*face, sum(selected.sizes()))
    found = [w for w in (selected.general_position_violation, through) if w is not None]
    if found:
        raise GeneralPositionError("configuration union is degenerate", min(found))
    _, open_ = selected.rainbow_enumerator.containment_masks([point])
    if not bool(open_.all()):
        raise InputValidationError("point is not interior to every rainbow simplex")


def shrink_to_generic(
    point_set: LabeledPointSet,
    index_sets,
    anchor,
    seed: int = 0,
    assume_condition_g: bool = False,
) -> GenericPachConfiguration:
    """Drop at most d points per color so the anchor becomes interior to all
    remaining rainbow simplices, then nudge it into general position.

    The paper assumes condition (G) on the selected union only to bound the
    greedy boundary family by d; this checks that bound directly (a larger
    family raises PreconditionError) and needs only general position of the
    union (GeneralPositionError with its witness otherwise).  Colors of size
    >= d+1 therefore always survive; smaller colors are accepted and fail
    with a size-underflow error only when a removal would actually empty
    them.  ``assume_condition_g`` is accepted for old callers and ignored.
    """
    d = point_set.dim
    index_sets = tuple(tuple(sorted(idxs)) for idxs in index_sets)
    if any(len(idxs) == 0 for idxs in index_sets):
        raise PreconditionError("every color needs at least one selected point")
    selected = LabeledPointSet.create(
        d, [[point_set.point(ci, i) for i in idxs] for ci, idxs in enumerate(index_sets)]
    )
    colors = selected.colors
    violation = selected.general_position_violation
    if violation is not None:
        raise GeneralPositionError("selected union is not in general position", violation)
    anchor = point_to_fractions(anchor)
    closed, open_ = selected.rainbow_enumerator.containment_masks([anchor])
    if not bool(closed.all()):
        raise PreconditionError("anchor is not in every closed rainbow simplex")
    boundary = np.argwhere(closed[0] & ~open_[0])
    family = []
    used = [set() for _ in range(d + 1)]
    for idx in boundary:
        idx = tuple(int(x) for x in idx)
        if any(idx[ci] in used[ci] for ci in range(d + 1)):
            continue
        family.append(idx)
        for ci in range(d + 1):
            used[ci].add(idx[ci])
    if len(family) > d:
        raise PreconditionError(
            f"boundary family of size {len(family)} exceeds d; condition (G) violated"
        )
    if family and any(len(c) <= len(family) for c in colors):
        raise PreconditionError(
            "size underflow: removing the boundary family would empty a color "
            "(colors of size >= d+1 always survive)"
        )
    kept_local = [[i for i in range(len(c)) if i not in u] for c, u in zip(colors, used)]
    new_index_sets = tuple(tuple(idxs[i] for i in k) for idxs, k in zip(index_sets, kept_local))
    # the kept colors' simplices are a sub-box of the selected colors' ones
    if not bool(open_[0][np.ix_(*kept_local)].all()):
        raise InternalInvariantError(
            "anchor not interior to all simplices after removing the boundary family"
        )
    kept_colors = [[c[i] for i in local] for c, local in zip(colors, kept_local)]
    kept = LabeledPointSet.create(d, kept_colors) if family else selected  # none dropped: reuse
    moved = _nudge_off_hyperplanes(anchor, kept.union_points(), kept.spanned_table, seed)
    _check_generic(kept, moved)
    return GenericPachConfiguration(point_set, new_index_sets, moved)


def separating_arrangement(cfg: GenericPachConfiguration, seed: int = 0) -> HyperplaneArrangement:
    """Arrangement of strictly separating hyperplanes for a generic
    configuration, in general position, with the point inside the central
    simplex and each subset interior to its corner region."""
    colors = cfg.selected_colors()
    planes = []
    for i in range(len(colors)):
        h = strict_separation(cfg.point, [p for j, c in enumerate(colors) if j != i for p in c])
        if h is None:
            raise InputValidationError(
                f"point is inside the hull of the other colors (i = {i}); "
                "not a generic configuration"
            )
        planes.append(h)
    arrangement = _arrangement_in_general_position(planes, cfg.point, colors, seed)
    outcome = separation_dichotomy(cfg.point, arrangement, colors)
    if not outcome.inside:
        raise InternalInvariantError(
            "point escaped the central simplex; configuration was not generic"
        )
    return arrangement


def grow_selection(h: RainbowHypergraph, index_sets):
    """Greedily extend selected subsets while the anchor stays in every
    rainbow simplex they span.

    A vertex can join color i exactly when all edges through it and the
    current other colors are present, which does not depend on color i's own
    members: each color takes all such vertices from one slice of the edges,
    colors in index order until none grows.  The result is a maximal complete
    box of the containment hypergraph.
    """
    current = [sorted(idxs) for idxs in index_sets]
    if not h.edges[np.ix_(*current)].all():
        raise PreconditionError("anchor is not in every rainbow simplex of the given subsets")
    before = None
    while current != before:  # colors only grow, so a pass that changes none is the last
        before = list(current)
        for ci in range(len(current)):
            box = h.edges[np.ix_(*current[:ci], range(h.sizes[ci]), *current[ci + 1 :])]
            others = tuple(j for j in range(len(current)) if j != ci)
            current[ci] = np.flatnonzero(box.all(axis=others)).tolist()
    return tuple(tuple(c) for c in current)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class PachCertificate:
    input_sha256: str
    point: tuple
    index_sets: tuple
    arrangement: HyperplaneArrangement
    fractions: tuple
    verified: str  # "exhaustive" | "arrangement"
    seed: int
    stages: tuple

    def to_json_dict(self) -> dict:
        return {
            "input_sha256": self.input_sha256,
            "p": [format_scalar(c) for c in self.point],
            "Y": [list(idxs) for idxs in self.index_sets],
            "arrangement": arrangement_to_json_dict(self.arrangement),
            "fractions": [format_scalar(f) for f in self.fractions],
            "verified": self.verified,
            "seed": self.seed,
            "stages": list(self.stages),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PachCertificate":
        if data["verified"] not in ("exhaustive", "arrangement"):
            raise ParseError(f"verified {data['verified']!r} is not 'exhaustive' or 'arrangement'")
        return cls(
            input_sha256=data["input_sha256"],
            point=tuple(scalar_from_json(c) for c in list_from_json(data["p"], "p")),
            index_sets=tuple(tuple(int_from_json(i, "index") for i in idxs) for idxs in data["Y"]),
            arrangement=arrangement_from_json_dict(data["arrangement"]),
            fractions=tuple(
                scalar_from_json(f) for f in list_from_json(data["fractions"], "fractions")
            ),
            verified=data["verified"],
            seed=int_from_json(data["seed"], "seed"),
            stages=tuple(list_from_json(data["stages"], "stages")),
        )


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    ok: bool
    fraction: Fraction
    witness: tuple | None = None
    detail: str = ""
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "ok": self.ok,
            "fraction": f"{self.fraction.numerator}/{self.fraction.denominator}",
            "witness": list(self.witness) if self.witness is not None else None,
            "detail": self.detail,
            "warnings": list(self.warnings),
        }


def _certificate_mismatch(point_set: LabeledPointSet, cert: PachCertificate) -> str:
    """Why the certificate's shape or claimed fractions disagree with the set, or "".
    Out-of-range indices raise instead.  Fractions are compared also when some
    Y_i is empty: a vacuous certificate still claims |Y_i|/n_i."""
    d, sizes = point_set.dim, point_set.sizes()
    if len(cert.point) != d:
        return f"point has dimension {len(cert.point)}, expected {d}"
    if len(cert.index_sets) != d + 1:
        return f"{len(cert.index_sets)} index sets, expected {d + 1}"
    for ci, idxs in enumerate(cert.index_sets):
        for i in idxs:
            if not 0 <= i < sizes[ci]:
                raise InputValidationError(f"certificate index {i} out of range for color {ci}")
        if len(set(idxs)) != len(idxs):
            return f"index set {ci} repeats an index"
    claimed = tuple(Fraction(len(idxs), n) for idxs, n in zip(cert.index_sets, sizes))
    if tuple(cert.fractions) != claimed:
        claims, actual = [str(f) for f in cert.fractions], [str(f) for f in claimed]
        return f"fractions {claims} are not |Y_i|/n_i = {actual}"
    return ""


def verify_certificate(
    point_set: LabeledPointSet, cert: PachCertificate, mode: str = "exhaustive"
) -> VerificationReport:
    """Independent certificate check.

    Both modes first reject (ok False) a certificate whose shape or fractions
    disagree with the set (``_certificate_mismatch``).
    exhaustive: exact closed containment of the certified point in every
    rainbow simplex of the selected subsets (fraction must be 1).
    arrangement: re-checks the separation preconditions and the inside
    branch of the dichotomy without enumerating simplices.
    """
    if mode not in ("exhaustive", "arrangement"):
        raise ValueError(f"unknown verification mode {mode!r}")
    mismatch = _certificate_mismatch(point_set, cert)
    if mismatch:
        return VerificationReport(mode, False, Fraction(0), None, mismatch)
    if any(len(idxs) == 0 for idxs in cert.index_sets):
        warning = "some selected subsets are empty; containment is vacuous"
        return VerificationReport(mode, True, Fraction(1), None, "vacuous", (warning,))
    colors = [
        [point_set.point(ci, i) for i in idxs] for ci, idxs in enumerate(cert.index_sets)
    ]
    if mode == "exhaustive":
        enum = LabeledPointSet.create(point_set.dim, colors).rainbow_enumerator
        closed = enum.containment_masks([cert.point])[0][0]
        count = int(closed.sum())
        fraction = Fraction(count, enum.total)
        witness = None
        if count != enum.total:
            bad = np.argwhere(~closed)[0]
            witness = tuple(int(cert.index_sets[ci][int(i)]) for ci, i in enumerate(bad))
        return VerificationReport(
            mode,
            fraction == 1,
            fraction,
            witness,
            f"{count} of {enum.total} rainbow simplices contain the point",
        )
    arr = cert.arrangement
    point = cert.point
    try:
        outcome = separation_dichotomy(point, arr, colors)
    except PreconditionError as exc:
        return VerificationReport(mode, False, Fraction(0), None, str(exc))
    if not outcome.inside:
        return VerificationReport(
            mode, False, Fraction(0), None, "point is outside the central simplex"
        )
    return VerificationReport(mode, True, Fraction(1), None, "arrangement certifies containment")


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PipelineParams:
    seed: int = 0
    epsilon: Fraction | None = None
    beta: Fraction | None = None
    witness_budget: int = 2000
    random_candidates: int = 200  # deep-point candidates beyond centroid and median
    verify: str = "exhaustive"  # "exhaustive" | "arrangement"
    grow: bool = True  # extend the selection to a maximal complete box


def default_epsilon(d: int) -> Fraction:
    """Pipeline default for the regularity parameter.

    1/2^d for d >= 2; the d = 1 case uses 1/4 because the regularity lemma
    requires epsilon strictly below 1/2 (the halving law still guarantees
    kept subsets of fraction 1/2 >= epsilon).
    """
    if d == 1:
        return Fraction(1, 4)
    return Fraction(1, 2**d)


def run_pipeline(
    point_set: LabeledPointSet, params: PipelineParams | None = None, input_sha256: str = ""
) -> PachCertificate:
    """Full selection pipeline producing a verified PachCertificate.

    deep point -> perturb anchor -> rainbow hypergraph -> weak regularity ->
    few separations.  A none-contain outcome yields a concrete zero-edge
    witness, which is fed back into the regularity stage; each such loop
    strictly increases the part density, so the process terminates with an
    all-contain certificate.
    """
    params = params or PipelineParams()
    d = point_set.dim
    sizes = point_set.sizes()
    eps = to_fraction(params.epsilon) if params.epsilon is not None else default_epsilon(d)
    if eps > Fraction(1, 2**d):
        raise PreconditionError(
            f"epsilon must be at most 1/2^d = 1/{2**d}: few-separations keeps only that fraction"
        )
    stages = []
    deep = deep_rainbow_point(point_set, params.random_candidates, seed=params.seed)
    stages.append(
        {
            "stage": "deep-point",
            "candidate": deep.candidate_label,
            "depth": deep.depth,
            "open_depth": deep.open_depth,
            "total": deep.total,
            "candidates": deep.candidates_evaluated,
        }
    )
    anchor = perturb_anchor(deep.point, point_set, seed=params.seed + 1)
    h = rainbow_hypergraph(point_set, anchor)
    density = h.density
    beta = to_fraction(params.beta) if params.beta is not None else density
    if density <= 0:
        raise PreconditionError("anchor is contained in no rainbow simplex")
    stages.append(
        {
            "stage": "anchor",
            "moved": list(anchor) != list(deep.point),
            "density": f"{density.numerator}/{density.denominator}",
        }
    )
    reg_params = RegularityParams(
        epsilon=eps,
        beta=beta,
        witness_budget=params.witness_budget,
        seed=params.seed + 2,
    )
    reg = weak_regularity(h, reg_params)
    loops = 0
    while True:
        stages.append(
            {
                "stage": "regularity",
                "s": reg.size,
                "density": f"{reg.density.numerator}/{reg.density.denominator}",
                "witness_report": reg.report(),
                "restrictions": len(reg.steps),
            }
        )
        few = few_separations(point_set, reg.parts, anchor, seed=params.seed + 3 + loops)
        min_kept = min(len(y) for y in few.index_sets)
        if any(len(y) < eps * len(p) for y, p in zip(few.index_sets, reg.parts)):
            raise InternalInvariantError("few-separations kept less than the eps fraction")
        stages.append(
            {
                "stage": "few-separations",
                "branch": few.branch,
                "sizes": [len(y) for y in few.index_sets],
                "min_kept": min_kept,
            }
        )
        if few.branch == _BRANCH_ALL:
            break
        if reg.status == "exhaustive-clean":
            raise InternalInvariantError(
                "none-contain outcome despite an exhaustively clean regular tuple"
            )
        loops += 1
        if loops > _MAX_RESTRICT_LOOPS:
            raise BudgetExceededError(
                "regularity-witness failure: restrict loop budget exhausted"
            )
        # The kept subsets span no edge; they are a concrete witness.  Feed
        # them back.
        reg = weak_regularity(
            h, reg_params, initial_parts=reg.parts, forced_witness=few.index_sets
        )
    index_sets = few.index_sets
    arrangement = few.arrangement
    if params.grow:
        grown = grow_selection(h, index_sets)
        if grown != index_sets:
            # The arrangement certifies only the original subsets; rebuild it
            # around the enlarged configuration.  No cfg.validate() rescan is
            # needed: every grown tuple is an edge of h, and perturb_anchor put
            # the anchor off every hyperplane spanned by the whole set, so
            # closed containment there is open containment.  A non-generic
            # configuration still raises in separating_arrangement.
            cfg = GenericPachConfiguration(point_set, grown, anchor)
            arrangement = separating_arrangement(cfg, seed=params.seed + 4)
            stages.append(
                {
                    "stage": "grow",
                    "sizes_before": [len(y) for y in index_sets],
                    "sizes_after": [len(y) for y in grown],
                }
            )
            index_sets = grown
    fractions = tuple(
        Fraction(len(index_sets[ci]), sizes[ci]) for ci in range(d + 1)
    )
    cert = PachCertificate(
        input_sha256=input_sha256,
        point=anchor,
        index_sets=index_sets,
        arrangement=arrangement,
        fractions=fractions,
        verified="arrangement",
        seed=params.seed,
        stages=tuple(stages),
    )
    if params.verify == "exhaustive":
        report = verify_certificate(point_set, cert, mode="exhaustive")
        if not report.ok:
            raise InternalInvariantError(
                f"exhaustive verification failed: {report.detail} (witness {report.witness})"
            )
        cert = replace(
            cert,
            verified="exhaustive",
            stages=cert.stages + ({"stage": "verify", "mode": "exhaustive", "fraction": "1/1"},),
        )
    return cert
