"""Brute-force vertex-based polygon arithmetic.

Validation counterpart to the closed forms in zonalg.bodies: everything
here works on explicit vertex lists and deliberately never calls the
zonogon closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import PI, Body, Point, body
from .errors import InvalidInputError


@dataclass(frozen=True)
class Polygon:
    """Convex, centrally symmetric polygon as a CCW vertex array (n, 2)."""

    verts: tuple[tuple[float, float], ...]

    @property
    def array(self) -> np.ndarray:
        return np.array(self.verts, dtype=float)


def polygon(points) -> Polygon:
    """Build a Polygon from an iterable of (x, y) or Point, validating shape."""
    rows = []
    for p in points:
        if isinstance(p, Point):
            rows.append((float(p.x), float(p.y)))
        else:
            x, y = p
            rows.append((float(x), float(y)))
    if not rows:
        raise InvalidInputError("polygon needs at least one vertex")
    arr = np.array(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("polygon vertices must be finite")
    _validate_convex_symmetric(arr)
    return Polygon(tuple(map(tuple, rows)))


def _validate_convex_symmetric(arr: np.ndarray) -> None:
    n = len(arr)
    scale = 1.0 + float(np.abs(arr).max())
    if n >= 3:
        e = np.roll(arr, -1, axis=0) - arr
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross < -1e-12 * scale * scale):
            raise InvalidInputError("polygon is not convex/CCW")
    # central symmetry: vertex set closed under negation
    for v in arr:
        if np.min(np.linalg.norm(arr + v, axis=1)) > 1e-9 * scale:
            raise InvalidInputError("polygon is not centrally symmetric")


def _edges(arr: np.ndarray) -> list[np.ndarray]:
    if len(arr) == 1:
        return []
    if len(arr) == 2:
        return [arr[1] - arr[0], arr[0] - arr[1]]
    return list(np.roll(arr, -1, axis=0) - arr)


def _bottom_vertex(arr: np.ndarray) -> np.ndarray:
    idx = np.lexsort((arr[:, 0], arr[:, 1]))
    return arr[idx[0]]


def poly_sum(a: Polygon, b: Polygon) -> Polygon:
    """Minkowski sum by the classical edge-merge construction."""
    pa, pb = a.array, b.array
    edges = _edges(pa) + _edges(pb)
    if not edges:
        return polygon([tuple(pa[0] + pb[0])])
    edges.sort(key=lambda e: math.atan2(e[1], e[0]) % (2 * PI))
    start = _bottom_vertex(pa) + _bottom_vertex(pb)
    pts = [start.copy()]
    cur = start.copy()
    for e in edges[:-1]:
        cur = cur + e
        pts.append(cur.copy())
    arr = np.array(pts)
    # drop repeated points from zero-length or cancelling edges
    keep = [0]
    scale = 1.0 + float(np.abs(arr).max())
    for i in range(1, len(arr)):
        if np.linalg.norm(arr[i] - arr[keep[-1]]) > 1e-12 * scale:
            keep.append(i)
    if len(keep) > 1 and np.linalg.norm(arr[keep[-1]] - arr[keep[0]]) <= 1e-12 * scale:
        keep.pop()
    return Polygon(tuple(map(tuple, arr[keep])))


def shoelace_area(p: Polygon) -> float:
    arr = p.array
    if len(arr) < 3:
        return 0.0
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def poly_perimeter(p: Polygon) -> float:
    arr = p.array
    if len(arr) == 1:
        return 0.0
    if len(arr) == 2:
        return 2.0 * float(np.linalg.norm(arr[1] - arr[0]))
    return float(np.linalg.norm(np.roll(arr, -1, axis=0) - arr, axis=1).sum())


def poly_support(p: Polygon, theta: float) -> float:
    arr = p.array
    return float(np.max(arr @ np.array([math.cos(theta), math.sin(theta)])))


def poly_width(p: Polygon, phi: float) -> float:
    """Sandwich width: extent along the normal of direction phi."""
    n = np.array([-math.sin(phi), math.cos(phi)])
    proj = p.array @ n
    return float(proj.max() - proj.min())


def disc_polygon(r: float, n: int) -> Body:
    """Circumscribed regular 2n-gon around the disc of radius r, as a Body."""
    if n < 2:
        raise InvalidInputError(f"disc_polygon needs n >= 2, got {n}")
    if r < 0:
        raise InvalidInputError(f"radius must be >= 0, got {r}")
    d = r * math.tan(PI / (2 * n))
    return body([(k * PI / n, d) for k in range(n)])
