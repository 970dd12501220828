"""Exact enumeration engine for rainbow simplices.

Counting which rainbow simplices contain a candidate point is the pipeline's
hot loop.  Orientation against a face is linear in the point q: it is the
sign of c(face) . (1, q), with the signed cofactors of ``face_cofactors``.
Per omitted color the enumerator keeps the table C of its n^d rainbow faces
(common-denominator-scaled integers) and scores a batch of points, as integer
rows h = (w, w den q) with w > 0, by one float64 product H C^T; the color-0
table gives the full orientation signs.  Containment is a sign combination.

Floats decide only proven signs.  With u = 2^-53 and n = d+1, converting an
integer to float64 rounds it by a factor (1+e), |e| <= u (or overflows), each
product adds one such factor and an n-term sum in any order, fused or not, at
most n-1; so |fl(h.c) - h.c| <= g S, g = (n+2)u/(1-(n+2)u), S = sum |h_j c_j|.
The float sum S' of |fl(h_j)| |fl(c_j)| rounds each term down by at most
(1-u)^(n+2), and fl((n+3)u S') >= (n+3)u(1-u) S' >= g S because
(n+3)(1-u)(1-(n+2)u)^2 >= n+2 for n < 2^20.  Every float is an integer, so
nothing underflows.  A finite fl(h.c) above that bound in absolute value has
the sign of h.c; any other entry is recomputed on Python ints and counted in
``RainbowEnumerator.fallbacks``.
"""

from __future__ import annotations

from math import lcm, prod

import numpy as np

from . import lp
from .errors import PreconditionError
from .geometry import face_cofactors, int_array
from .rational import common_denominator, point_to_fractions

# tensor cells per block of ``depths``, so its memory does not grow with the batch
BLOCK_CELLS = 1 << 18


def tuple_grid(point_arrays):
    """Every tuple with one point from each (n_j, d) array, in one array of
    shape (n_0, ..., n_m, m+1, d)."""
    m = len(point_arrays)
    axes = [
        a.reshape((1,) * j + (len(a),) + (1,) * (m - 1 - j) + a.shape[-1:])
        for j, a in enumerate(point_arrays)
    ]
    return np.stack(np.broadcast_arrays(*axes), axis=-2)


def _float_rows(rows):
    """float64 array of integer rows; an entry of 1024 bits or more becomes inf."""
    try:
        return np.array(rows, dtype=np.float64)
    except OverflowError:
        return np.array([[float(x) if x.bit_length() < 1024 else np.inf for x in r] for r in rows])


class RainbowEnumerator:
    """Caches per-instance face cofactors for repeated containment queries."""

    def __init__(self, colors):
        if len(colors) < 2 or any(len(c) == 0 for c in colors):
            raise PreconditionError("need d+1 >= 2 colors, every one nonempty")
        self.dim = len(colors) - 1
        self.colors = [tuple(point_to_fractions(p) for p in c) for c in colors]
        if any(len(p) != self.dim for c in self.colors for p in c):
            raise PreconditionError("color points must have dimension d")
        self.sizes = tuple(len(c) for c in self.colors)
        self.total = prod(self.sizes)
        self.fallbacks = 0  # filtered signs recomputed exactly
        self._den = common_denominator(p for c in self.colors for p in c)
        int_colors = [
            int_array([[(x * self._den).numerator for x in p] for p in c]) for c in self.colors
        ]
        self._tables = []  # per omitted color: face cofactors, exact and as floats
        for i in range(self.dim + 1):
            faces = tuple_grid(int_colors[:i] + int_colors[i + 1 :])
            table = face_cofactors(faces).reshape(-1, self.dim + 1)
            self._tables.append((table, _float_rows(table)))
        self.full_signs = self._face_signs(0, [(1, *p) for p in int_colors[0].tolist()])
        self._degenerate = [tuple(int(x) for x in idx) for idx in np.argwhere(self.full_signs == 0)]
        self._last = (None, None)  # (points, masks) of the latest batch

    def _face_signs(self, i, rows):
        """Signs of the homogeneous integer rows against color i's faces, shape
        (len(rows), *sizes without i), filtered as in the module docstring."""
        table, floats = self._tables[i]
        h = _float_rows(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            value = h @ floats.T
            bound = (self.dim + 4) * 2.0**-53 * (np.abs(h) @ np.abs(floats).T)
            decided = np.isfinite(value) & (np.abs(value) > bound)
        signs = (value > 0).astype(np.int8) - (value < 0)
        undecided = np.argwhere(~decided)
        self.fallbacks += len(undecided)
        for b, f in undecided.tolist():
            exact = sum(x * y for x, y in zip(rows[b], table[f].tolist()))
            signs[b, f] = (exact > 0) - (exact < 0)
        return signs.reshape(len(rows), *self.sizes[:i], *self.sizes[i + 1 :])

    def containment_masks(self, points):
        """Boolean (closed, open) tensors of shape (len(points), *sizes).  The latest
        batch's masks are kept and returned again, read-only, for the same batch,
        so consecutive stages score a point once."""
        points = tuple(point_to_fractions(p) for p in points)
        if points == self._last[0]:
            return self._last[1]
        if any(len(p) != self.dim for p in points):
            raise PreconditionError("candidate dimension mismatch")
        rows = []
        for p in points:
            w = lcm(self._den, *(c.denominator for c in p)) // self._den
            rows.append((w, *((c * self._den * w).numerator for c in p)))
        full = self.full_signs
        closed = np.repeat((full != 0)[None], len(points), axis=0)
        open_ = closed.copy()
        for i in range(self.dim + 1):
            # the point replaces the color-i vertex; moving it first costs (-1)^i
            face = self._face_signs(i, rows)
            agreement = np.expand_dims(face if i % 2 == 0 else -face, axis=i + 1) * full
            closed &= agreement >= 0
            open_ &= agreement == 1
        for idx in self._degenerate:
            verts = [self.colors[k][idx[k]] for k in range(self.dim + 1)]
            for b, p in enumerate(points):
                closed[(b, *idx)] = lp.convex_combination(p, verts) is not None
        closed.flags.writeable = open_.flags.writeable = False
        self._last = (points, (closed, open_))
        return closed, open_

    def depths(self, points):
        """Closed and open containment counts of each point, as two int arrays,
        scored in blocks of about BLOCK_CELLS tensor cells."""
        step, counts = max(1, BLOCK_CELLS // self.total), []
        for s in range(0, len(points), step):
            masks = self.containment_masks(points[s : s + step])
            counts.append([m.reshape(len(m), -1).sum(axis=1) for m in masks])
        return tuple(np.concatenate(c) for c in zip(*counts))

    def containment_counts(self, point):
        """(closed count, open count, total) for one candidate point."""
        closed, open_ = self.depths([point])
        return int(closed[0]), int(open_[0]), self.total
