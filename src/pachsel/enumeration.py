"""Exact enumeration engine for rainbow simplices.

Counting which rainbow simplices contain a candidate point is the pipeline's
hot loop.  Orientation against a face is linear in the point q: it is the
sign of c(face) . (1, q), with the signed cofactors of ``face_cofactors``.
Per omitted color the enumerator keeps the table C of its n^d rainbow faces
(common-denominator-scaled integers) and scores a batch of points, as integer
rows h = (w, w den q) with w > 0, by the certified float filter
``geometry.cofactor_signs`` (entries it recomputes exactly are counted in
``RainbowEnumerator.fallbacks``); the color-0 table gives the full
orientation signs.  Containment is a sign combination; at d=2 a depth
(the number of containing simplices) is a sum of products of the three
face-sign tables, without the n^3 mask.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import numpy as np

from . import lp
from .errors import PreconditionError
from .geometry import (
    BLOCK_CELLS,
    cofactor_signs,
    face_cofactors,
    float_table,
    homogeneous_rows,
    int_array,
)
from .rational import common_denominator, point_to_fractions

# multiply-adds per ``_product_depths`` product: OpenBLAS 0.3.31 threads such
# products (one operand transposed) from 2^19 on, measured by CPU over wall
# time, and two threads on two busy cores stall
_GEMM_CELLS = (1 << 19) - 1
# float32 holds every integer below 2^24 exactly (float64 below 2^53)
_FLOAT32_EXACT = 1 << 24


def tuple_grid(point_arrays):
    """Every tuple with one point from each (n_j, d) array, in one array of
    shape (n_0, ..., n_m, m+1, d)."""
    m = len(point_arrays)
    axes = [
        a.reshape((1,) * j + (len(a),) + (1,) * (m - 1 - j) + a.shape[-1:])
        for j, a in enumerate(point_arrays)
    ]
    return np.stack(np.broadcast_arrays(*axes), axis=-2)


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
        self.den = common_denominator(p for c in self.colors for p in c)
        int_colors = [
            int_array([[(x * self.den).numerator for x in p] for p in c]) for c in self.colors
        ]
        self._tables = []  # per omitted color: face cofactors, exact and as floats
        for i in range(self.dim + 1):
            faces = tuple_grid(int_colors[:i] + int_colors[i + 1 :])
            table = face_cofactors(faces).reshape(-1, self.dim + 1)
            self._tables.append((table, float_table(table)))
        self.full_signs = self._face_signs(0, [(1, *p) for p in int_colors[0].tolist()])
        self._degenerate = [tuple(int(x) for x in idx) for idx in np.argwhere(self.full_signs == 0)]
        self._last = (None, None)  # (points, masks) of the latest batch

    def _face_signs(self, i, rows):
        """Signs of the homogeneous integer rows against color i's faces, shape
        (len(rows), *sizes without i), from the certified float filter."""
        signs, fallbacks = cofactor_signs(rows, *self._tables[i])
        self.fallbacks += fallbacks
        return signs.reshape(len(rows), *self.sizes[:i], *self.sizes[i + 1 :])

    def containment_masks(self, points):
        """Boolean (closed, open) tensors of shape (len(points), *sizes).  The latest
        batch's masks are kept and returned again, read-only, for the same batch,
        so consecutive stages score a point once."""
        points = tuple(point_to_fractions(p) for p in points)
        if points != self._last[0]:
            if any(len(p) != self.dim for p in points):
                raise PreconditionError("candidate dimension mismatch")
            self._last = (points, self._masks(homogeneous_rows(points, self.den)))
        return self._last[1]

    def _masks(self, rows):
        """``containment_masks`` of the points with these homogeneous rows."""
        full = self.full_signs
        closed = np.repeat((full != 0)[None], len(rows), axis=0)
        open_ = closed.copy()
        for i in range(self.dim + 1):
            # the point replaces the color-i vertex; moving it first costs (-1)^i
            face = self._face_signs(i, rows)
            agreement = np.expand_dims(face if i % 2 == 0 else -face, axis=i + 1) * full
            closed &= agreement >= 0
            open_ &= agreement == 1
        for idx in self._degenerate:
            verts = [self.colors[k][idx[k]] for k in range(self.dim + 1)]
            for b, (w, *x) in enumerate(rows):
                p = tuple(Fraction(c, w * self.den) for c in x)
                closed[(b, *idx)] = lp.convex_combination(p, verts) is not None
        closed.flags.writeable = open_.flags.writeable = False
        return closed, open_

    def depths(self, rows):
        """Closed and open containment counts of each point, given as its
        ``homogeneous_rows`` row against ``den``, as two int arrays, scored in
        blocks of about BLOCK_CELLS cells.

        At d=2 with no degenerate rainbow simplex the counts are products of
        the three face-sign tables (``_product_depths``), O(n^2) cells
        instead of the n^3 cells of ``containment_masks``; otherwise they are
        sums of the masks."""
        if any(len(r) != self.dim + 1 for r in rows):
            raise PreconditionError("candidate dimension mismatch")
        if self.dim == 2 and not self._degenerate:  # four 0/1 tables per face cell
            score, cells = self._product_depths, 4 * sum(len(t) for t, _ in self._tables)
        else:
            score, cells = self._mask_depths, self.total
        step = max(1, BLOCK_CELLS // cells)
        counts = [score(rows[s : s + step]) for s in range(0, len(rows), step)]
        return tuple(np.concatenate(c) for c in zip(*counts))

    def _mask_depths(self, rows):
        return [m.reshape(len(m), -1).sum(axis=1) for m in self._masks(rows)]

    def _product_depths(self, rows):
        """Depths at d=2 from the face signs s_i, each with its (-1)^i.

        For a nondegenerate simplex s_i = sign(full) sign(lambda_i), and the
        barycentric lambda_i sum to 1, so q is in the closed simplex iff all
        s_i >= 0 or all s_i <= 0, never both; the open simplex takes strict
        signs.  Over 0/1 tables P_i[., .] of one such condition (P_0 indexed
        by the color-1 and color-2 points, P_1 by colors 0 and 2, P_2 by 0
        and 1), the count is sum_{a,b} P_2[a,b] (P_1 P_0^T)[a,b].  Every
        partial sum is an integer of at most ``total``, so the float type is
        chosen to hold such integers exactly, and each product of a candidate
        is split into row blocks of about _GEMM_CELLS multiply-adds, below
        OpenBLAS's threading threshold."""
        dtype = np.float32 if self.total < _FLOAT32_EXACT else np.float64
        # per table, stacked first: s >= 0 and s <= 0 (closed), s > 0 and s < 0 (open)
        p0, p1, p2 = (
            np.stack([s >= 0, s <= 0, s > 0, s < 0]).astype(dtype)
            for s in (self._face_signs(i, rows) * (-1) ** i for i in range(3))
        )
        p0t, step = p0.swapaxes(-1, -2), max(1, _GEMM_CELLS // (self.sizes[1] * self.sizes[2]))
        count = np.zeros((4, len(rows)), dtype=dtype)
        for a in range(0, self.sizes[0], step):
            block = np.matmul(p1[..., a : a + step, :], p0t) * p2[..., a : a + step, :]
            count += block.sum(axis=(-2, -1))
        count = count.astype(np.int64)
        return [count[0] + count[1], count[2] + count[3]]
