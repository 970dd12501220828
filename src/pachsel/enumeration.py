"""Exact enumeration engine for rainbow simplices.

Counting which rainbow simplices contain a candidate point is the pipeline's
hot loop.  Orientation against a face is linear in the point q: it is the
sign of c(face) . (1, q), with the signed cofactors of ``face_cofactors``.
A rainbow face is d points in color order, a row of the point set's C(N,d)
``spanned_table``: per omitted color the enumerator gathers its n^d rainbow
faces' rows by lexicographic rank and scores a batch of points, as integer
rows h = (w, w den q) with w > 0 and the table's den, by the certified float
filter ``geometry.cofactor_signs`` (entries it recomputes exactly are counted
in ``RainbowEnumerator.fallbacks``); the color-0 table gives the full
orientation signs.  Containment is a sign combination.  A depth (the number
of containing simplices) comes from the d+1 face-sign tables alone, without
the n^(d+1) mask (``_sign_depths``); zero face signs and degenerate sets sum masks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import prod

import numpy as np

from . import lp
from .errors import PreconditionError
from .geometry import BLOCK_CELLS, cofactor_signs, combination_rank, homogeneous_rows
from .rational import point_to_fractions


def tuple_grid(point_arrays):
    """Every tuple with one point from each (n_j, d) array, in one array of
    shape (n_0, ..., n_m, m+1, d)."""
    m = len(point_arrays)
    axes = [
        a.reshape((1,) * j + (len(a),) + (1,) * (m - 1 - j) + a.shape[-1:])
        for j, a in enumerate(point_arrays)
    ]
    return np.stack(np.broadcast_arrays(*axes), axis=-2)


def _bit_words(bits):
    """A boolean array's last axis packed into words of 8, 16, 32 or 64 bits
    (several 64-bit words past 64), zero-padded, in a fixed but unspecified
    bit order: only popcounts of their bitwise combinations are meaningful."""
    octets = -(-bits.shape[-1] // 8)
    width = min(8, 1 << (octets - 1).bit_length())  # bytes per word
    padded = np.zeros((*bits.shape[:-1], -(-octets // width) * width * 8), dtype=bool)
    padded[..., : bits.shape[-1]] = bits
    # eight 0/1 bytes as one uint64 times 0x0102040810204080 put byte k's bit
    # at bit 56 + k, all partial products at distinct bits, so nothing carries
    packed = (padded.view(np.uint64) * np.uint64(0x0102040810204080)) >> np.uint64(56)
    return packed.astype(np.uint8).view(f"u{width}")


class RainbowEnumerator:
    """Rainbow containment queries on a point set, by rows of its ``spanned_table``."""

    def __init__(self, point_set):
        self.dim = d = point_set.dim
        self.colors = point_set.colors
        self.sizes = point_set.sizes()
        self.total = prod(self.sizes)
        self.fallbacks = 0  # filtered signs recomputed exactly
        table, self.den, _, floats = point_set.spanned_table
        starts = np.cumsum((0,) + self.sizes).tolist()
        index = [np.arange(a, b)[:, None] for a, b in zip(starts, starts[1:])]
        self._tables = []  # per omitted color: its faces' rows, exact and as floats
        for i in range(d + 1):
            faces = tuple_grid(index[:i] + index[i + 1 :]).reshape(-1, d)
            rows = combination_rank(faces, starts[-1])
            self._tables.append((table.take(rows, axis=0), floats.take(rows, axis=1)))
        self.full_signs = self._face_signs(0, homogeneous_rows(self.colors[0], self.den))
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

    def _signed_faces(self, rows):
        """Per color i, the signs s_i of the rows against its faces times (-1)^i:
        the point replaces the color-i vertex, and moving it first costs (-1)^i."""
        faces = (self._face_signs(i, rows) for i in range(self.dim + 1))
        return [f if i % 2 == 0 else -f for i, f in enumerate(faces)]

    def _masks(self, rows, signed=None):
        """``containment_masks`` of the points with these homogeneous rows, given
        their ``_signed_faces`` if already computed."""
        full = self.full_signs
        closed = np.repeat((full != 0)[None], len(rows), axis=0)
        open_ = closed.copy()
        for i, s in enumerate(signed or self._signed_faces(rows)):
            agreement = np.expand_dims(s, axis=i + 1) * full
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

        With no degenerate rainbow simplex the counts come from the d+1
        face-sign tables alone (``_sign_depths``): O(n^d) cells per point
        instead of the n^(d+1) cells of ``containment_masks``.  Points with a
        zero face sign and degenerate sets sum the masks."""
        if any(len(r) != self.dim + 1 for r in rows):
            raise PreconditionError("candidate dimension mismatch")
        if not self._degenerate:
            score, cells = self._sign_depths, sum(len(t) for t, _ in self._tables)
        else:
            score, cells = self._mask_depths, self.total
        step = max(1, BLOCK_CELLS // cells)
        counts = [score(rows[s : s + step]) for s in range(0, len(rows), step)]
        return tuple(np.concatenate(c) for c in zip(*counts))

    def _mask_depths(self, rows, signed=None):
        return [m.reshape(len(m), -1).sum(axis=1) for m in self._masks(rows, signed)]

    def _sign_depths(self, rows):
        """Depths from the signed face signs s_i alone.

        For a nondegenerate simplex s_i = sign(full) sign(lambda_i), and the
        barycentric lambda_i sum to 1, so q is in the closed simplex iff all
        s_i >= 0 or all s_i <= 0, never both; the open simplex takes strict
        signs.  A point with no zero s_i is on no face hyperplane, so both
        counts are #(all s_i > 0) + #(all s_i < 0); rows with a zero sign are
        re-scored from their masks.  With the 0/1 tables y_i = [s_i > 0], that
        is total - sum_i n_i |y_i| + sum_{i<j} r_ij . r_ji at d=2, r_ij the
        counts of y_i along color j (the cubic terms cancel).  At any other d
        it is the popcount of the AND of P_0, ..., P_{d-1} where y_d holds,
        plus n_d - popcount of their OR elsewhere, P_i the words of y_i packed
        along color d and placed on the axes of the other colors."""
        signed = self._signed_faces(rows)
        y = [s > 0 for s in signed]
        if self.dim == 2:
            r = [[t.view(np.uint8).sum(axis=a, dtype=np.int32) for a in (1, 2)] for t in y]
            count = self.total - sum(n * ri[0].sum(axis=1) for n, ri in zip(self.sizes, r))
            for i, j in ((0, 1), (0, 2), (1, 2)):
                count += (r[i][j - 1] * r[j][i]).sum(axis=1)
        else:
            words = [np.expand_dims(_bit_words(t), i + 1) for i, t in enumerate(y[:-1])]
            inside, cells = y[-1][..., None], tuple(range(1, self.dim + 2))
            hits = np.bitwise_count(reduce(np.bitwise_and, words) * inside).sum(cells, np.int64)
            misses = np.bitwise_count(reduce(np.bitwise_or, words) * ~inside).sum(cells, np.int64)
            count = hits + self.sizes[-1] * np.count_nonzero(~inside, axis=cells) - misses
        axes = tuple(range(1, self.dim + 1))
        zero = np.flatnonzero(np.any([(s == 0).any(axis=axes) for s in signed], axis=0))
        closed, open_ = count, count.copy()
        if len(zero):
            rescored = self._mask_depths([rows[z] for z in zero], [s[zero] for s in signed])
            closed[zero], open_[zero] = rescored
        return [closed, open_]
