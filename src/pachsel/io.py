"""JSON file formats and hashing.

Schemas (stable external interfaces):

* point set:     {"dim": d, "exact": bool, "colors": [[[c1,...,cd], ...], ...]}
                 written with "exact": true and "p/q" strings; an "exact":
                 false file holds JSON numbers, read losslessly as the
                 Fractions they equal (integers exactly, floats as the
                 doubles they parse to), so it loads as its exact twin
* arrangement:   {"dim": d, "hyperplanes": [{"normal": [...], "offset": s}, ...],
                  "oriented": true}
* measure:       {"dim": d, "colors": [[{"point": [...], "weight": "r/s"}, ...], ...]}
* certificate:   see selection.PachCertificate.to_json_dict
* simplex:       {"vertices": [[...], ...]}

This module is the only one that knows a file may spell a number as a float.
Every scalar of a point, arrangement, measure or certificate file passes
``scalar_from_json`` (or, in an "exact": false point file, ``float_from_json``)
and arrives as a Fraction; simplex files stay float, as cones.py is.

Structured files are written with sorted keys and a fixed layout so that a
fixed seed reproduces byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from .arrangements import HyperplaneArrangement, build_arrangement
from .errors import ParseError
from .geometry import LabeledPointSet, OrientedHyperplane
from .rational import format_scalar


def _finite_float(v) -> float:
    """``float(v)``, refusing NaN and the infinities with ValueError."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {v!r}")
    return x


def float_from_json(v) -> float:
    """A JSON number as a finite float; bools, strings and other values are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"bad number {v!r}")
    try:
        return _finite_float(v)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"bad number {v!r}: {exc}") from exc


def scalar_from_json(v) -> Fraction:
    """A JSON scalar ("p/q" or decimal string, integer or finite float) as the
    Fraction it equals; bools, other values and zero denominators are refused."""
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ParseError(f"bad scalar {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad rational literal {v!r}") from exc


def int_from_json(v, name: str) -> int:
    """A JSON integer; bools, floats and strings are refused, not truncated."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{name} {v!r} is not an integer")
    return v


def bool_from_json(v, name: str) -> bool:
    """A JSON boolean; strings and numbers are refused, not tested for truth."""
    if not isinstance(v, bool):
        raise ParseError(f"{name} {v!r} is not a boolean")
    return v


def list_from_json(v, name: str) -> list:
    """A JSON array; a string is refused, not split into characters."""
    if not isinstance(v, list):
        raise ParseError(f"{name} {v!r} is not a list")
    return v


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path):
    """Parse a UTF-8 JSON file whose numbers are all finite."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


# ---------------------------------------------------------------------------
# Point sets


def pointset_to_json_dict(ps: LabeledPointSet) -> dict:
    colors = [[[format_scalar(c) for c in p] for p in pts] for pts in ps.colors]
    return {"dim": ps.dim, "exact": True, "colors": colors}


def pointset_from_json_dict(data: dict) -> LabeledPointSet:
    try:
        dim = int_from_json(data["dim"], "dim")
        exact = bool_from_json(data["exact"], "exact")
        # a float file's integers are read exactly, not through a double
        coordinate = scalar_from_json if exact else (
            lambda c: Fraction(c if type(c) is int else float_from_json(c)))
        colors = tuple(
            tuple(
                tuple(coordinate(c) for c in list_from_json(p, "point"))
                for p in list_from_json(pts, "color")
            )
            for pts in list_from_json(data["colors"], "colors")
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed point-set JSON: {exc}") from exc
    try:
        return LabeledPointSet(dim, colors)
    except Exception as exc:
        raise ParseError(f"inconsistent point set: {exc}") from exc


def pointset_sha256(ps: LabeledPointSet) -> str:
    return sha256_hex(canonical_json_bytes(pointset_to_json_dict(ps)))


# ---------------------------------------------------------------------------
# Arrangements


def arrangement_to_json_dict(arr: HyperplaneArrangement) -> dict:
    return {
        "dim": arr.dim,
        "hyperplanes": [
            {"normal": [format_scalar(c) for c in h.normal], "offset": format_scalar(h.offset)}
            for h in arr.hyperplanes
        ],
        "oriented": True,
    }


def arrangement_from_json_dict(data: dict) -> HyperplaneArrangement:
    try:
        dim = int_from_json(data["dim"], "arrangement dim")
        planes = [
            OrientedHyperplane(
                tuple(scalar_from_json(c) for c in list_from_json(h["normal"], "normal")),
                scalar_from_json(h["offset"]),
            )
            for h in data["hyperplanes"]
        ]
        oriented = bool_from_json(data["oriented"], "oriented")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed arrangement JSON: {exc}") from exc
    if not oriented:
        raise ParseError('arrangement "oriented" is false, expected true')
    for h in planes:
        if h.dim != dim:
            raise ParseError(f"hyperplane normal has {h.dim} coordinates, arrangement dim is {dim}")
    # Rebuilding re-derives the vertices; orientation is idempotent.
    return build_arrangement(planes)


# ---------------------------------------------------------------------------
# Weighted point measures


def measure_from_json_dict(data: dict):
    try:
        dim = int_from_json(data["dim"], "dim")
        colors = [
            [
                (
                    tuple(scalar_from_json(c) for c in list_from_json(entry["point"], "point")),
                    scalar_from_json(entry["weight"]),
                )
                for entry in list_from_json(pts, "color")
            ]
            for pts in list_from_json(data["colors"], "colors")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed measure JSON: {exc}") from exc
    return dim, colors


# ---------------------------------------------------------------------------
# Simplices


def simplex_to_json_dict(vertices) -> dict:
    return {"vertices": [[float(c) for c in v] for v in vertices]}


def simplex_from_json_dict(data: dict):
    try:
        vertices = [
            tuple(float_from_json(c) for c in list_from_json(v, "vertex"))
            for v in list_from_json(data["vertices"], "vertices")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed simplex JSON: {exc}") from exc
    if len({len(v) for v in vertices}) > 1:
        raise ParseError("simplex vertices have different dimensions")
    return vertices
