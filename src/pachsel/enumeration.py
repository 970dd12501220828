"""Exact enumeration engine for rainbow simplices.

Counting which rainbow simplices contain a candidate point is the pipeline's
hot loop.  Rather than testing each simplex independently (d+1 orientation
determinants per simplex, n^{d+1} simplices), we cache orientation signs of
the d+1-point tuples that actually occur:

* one full-orientation sign per rainbow tuple (candidate independent), and
* one sign per (candidate, d-tuple with one color omitted) -- only n^d of
  those per omitted color.

Containment of the candidate in a given simplex is then a pure sign
combination, vectorized with numpy over the whole n^{d+1} tensor.  Every sign
comes from ``geometry.orientation_signs`` on common-denominator-scaled integer
coordinates: an exact cofactor expansion in int64 when the coordinate
magnitude proves it cannot overflow, and on Python ints otherwise.  The full
tensor is evaluated one color-0 index at a time, so no call holds more than
n^d tuples.
"""

from __future__ import annotations

from math import gcd, lcm, prod

import numpy as np

from . import lp
from .errors import PreconditionError
from .geometry import int_array, orientation_signs
from .rational import common_denominator, point_to_fractions


def tuple_grid(point_arrays):
    """Every tuple with one point from each (n_j, d) array, in one array of
    shape (n_0, ..., n_m, m+1, d)."""
    m = len(point_arrays)
    axes = [
        a.reshape((1,) * j + (len(a),) + (1,) * (m - 1 - j) + a.shape[-1:])
        for j, a in enumerate(point_arrays)
    ]
    return np.stack(np.broadcast_arrays(*axes), axis=-2)


def combine_containment(full, faces):
    """Closed/open containment masks from cached orientation signs.

    ``full[idx]`` is the orientation of the rainbow tuple, ``faces[i]`` the
    orientations with the candidate replacing the color-i vertex (candidate
    written first; the slot move contributes parity (-1)^i).
    """
    closed = full != 0
    open_ = full != 0
    for i, face in enumerate(faces):
        t = np.expand_dims(face if i % 2 == 0 else -face, axis=i)
        agreement = t * full
        closed &= agreement >= 0
        open_ &= agreement == 1
    return closed, open_


class RainbowEnumerator:
    """Caches per-instance sign data for repeated containment queries."""

    def __init__(self, colors):
        if not colors or any(len(c) == 0 for c in colors):
            raise PreconditionError("every color must be nonempty")
        self.dim = len(colors) - 1
        self.colors = [tuple(point_to_fractions(p) for p in c) for c in colors]
        for c in self.colors:
            for p in c:
                if len(p) != self.dim:
                    raise PreconditionError("color points must have dimension d")
        self.sizes = tuple(len(c) for c in self.colors)
        self.total = prod(self.sizes)
        self._den = common_denominator(p for c in self.colors for p in c)
        self._base_int_colors = [
            tuple(tuple(int(x * self._den) for x in p) for p in c) for c in self.colors
        ]
        self._scaled_cache = {}
        first, *rest = self._colors_at_scale(1)
        self.full_signs = np.empty(self.sizes, dtype=np.int8)
        for i in range(self.sizes[0]):
            self.full_signs[i] = orientation_signs(tuple_grid([first[i : i + 1], *rest]))[0]
        self._degenerate = [tuple(int(x) for x in idx) for idx in np.argwhere(self.full_signs == 0)]

    def _colors_at_scale(self, mult: int):
        cached = self._scaled_cache.get(mult)
        if cached is None:
            cached = [
                int_array([[x * mult for x in p] for p in c]) for c in self._base_int_colors
            ]
            if len(self._scaled_cache) < 64:
                self._scaled_cache[mult] = cached
        return cached

    def containment_masks(self, point):
        """Boolean (closed, open) tensors of shape ``sizes`` for one candidate."""
        p = point_to_fractions(point)
        if len(p) != self.dim:
            raise PreconditionError("candidate dimension mismatch")
        pden = lcm(*(c.denominator for c in p))
        mult = pden // gcd(self._den, pden)
        den = self._den * mult
        int_colors = self._colors_at_scale(mult)
        int_p = int_array([[int(c * den) for c in p]])
        faces = [
            orientation_signs(tuple_grid([int_p, *int_colors[:i], *int_colors[i + 1 :]]))[0]
            for i in range(self.dim + 1)
        ]
        closed, open_ = combine_containment(self.full_signs, faces)
        for idx in self._degenerate:
            verts = [self.colors[k][idx[k]] for k in range(self.dim + 1)]
            closed[idx] = lp.convex_combination(p, verts) is not None
        return closed, open_

    def containment_counts(self, point):
        """(closed count, open count, total) for one candidate point."""
        closed, open_ = self.containment_masks(point)
        return int(closed.sum()), int(open_.sum()), self.total
