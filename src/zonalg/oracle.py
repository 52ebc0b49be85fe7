"""Brute-force references for the closed forms.

Validation counterpart to zonalg.bodies and zonalg.rkhs. The polygon
arithmetic works on explicit vertex lists and deliberately never calls the
zonogon closed forms; the Jacobi eigenvalue solver works on a dense matrix
and never uses the circulant structure behind rkhs.grid_eigenvalues.
No module of the package imports this one; the tests do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import PI
from .errors import InvalidInputError, NumericError

JACOBI_EPS = 1e-12


@dataclass(frozen=True)
class Polygon:
    """Convex, centrally symmetric polygon as a CCW vertex array (n, 2)."""

    verts: tuple[tuple[float, float], ...]

    @property
    def array(self) -> np.ndarray:
        return np.array(self.verts, dtype=float)


def polygon(points) -> Polygon:
    """Build a Polygon from an iterable of (x, y) rows, validating shape."""
    rows = [(float(x), float(y)) for x, y in points]
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


def _round_robin(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin pairing of an even number m of indices (Brent & Luk 1985).

    Returns `(layout, step)`. In the first step, `layout[2i]` is paired with
    `layout[2i + 1]`. Re-indexing a layout by `step` gives the pairs of the
    next step. After m - 1 steps every two indices have met exactly once and
    the layout is back to `layout`.
    """
    half = m // 2

    def paired(ring: np.ndarray) -> np.ndarray:
        # circle method: ring[i] meets ring[m - 1 - i]
        return np.column_stack([ring[:half], ring[: half - 1 : -1]]).ravel()

    layout = paired(np.arange(m))
    # index 0 stays put while the others move one place round the circle
    moved = paired(np.r_[0, 2:m, 1])
    return layout, np.argsort(layout)[moved]


def jacobi_eigenvalues(matrix: np.ndarray, eps: float = JACOBI_EPS, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by parallel Jacobi rotations.

    A sweep is n - 1 steps of the round-robin ordering (odd n is padded
    with a decoupled zero index). Each step rotates n/2 disjoint (p, q)
    planes at once: all row pairs, then all column pairs. Sweeps stop once
    the off-diagonal Frobenius norm, summed entry by entry, is at most
    `eps` times that of the whole matrix. If `max_sweeps` sweeps do not get
    there, `NumericError` gives the sweep count and the norm reached.
    """
    a = np.array(matrix, dtype=float)
    square = a.ndim == 2 and a.shape[0] == a.shape[1] and np.isfinite(a).all()
    if not square or (a.size and not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(a).max()))):
        raise InvalidInputError("jacobi_eigenvalues needs a finite symmetric square matrix")
    n = a.shape[0]
    if n <= 1:
        return a.diagonal().copy()
    m = n + n % 2
    half = m // 2
    layout, step = _round_robin(m)
    padded = np.zeros((m, m))
    padded[:n, :n] = a
    b = padded[np.ix_(layout, layout)]
    rot = np.empty((half, 2, 2))
    target = eps * (math.sqrt(float(np.sum(a * a))) or 1.0)
    for sweep in range(max_sweeps + 1):
        off = float(np.linalg.norm(b - np.diag(b.diagonal())))
        if off <= target:
            return np.sort(b.diagonal()[layout < n])
        if sweep == max_sweeps:
            break
        for _ in range(m - 1):
            # pair i is (2i, 2i + 1); |phi| <= pi/4 zeroes b[2i, 2i + 1]
            diag = b.diagonal()
            d = diag[1::2] - diag[0::2]
            apq = b[0::2, 1::2].diagonal()
            phi = 0.5 * np.arctan2(2.0 * np.where(d < 0.0, -apq, apq), np.abs(d))
            c, s = np.cos(phi), np.sin(phi)
            rot[:, 0, 0] = rot[:, 1, 1] = c
            rot[:, 0, 1] = -s
            rot[:, 1, 0] = s
            rows = np.matmul(rot, b.reshape(half, 2, m)).reshape(m, m)
            # J^T A J = J^T (J^T A)^T for symmetric A, so the column rotation
            # is a row rotation of the transpose; the moves to the next
            # step's pairs ride along with the copies.
            cols = np.ascontiguousarray(rows.take(step, axis=0).T)
            b = np.matmul(rot, cols.reshape(half, 2, m)).reshape(m, m).take(step, axis=0)
    raise NumericError(
        f"Jacobi did not converge in {max_sweeps} sweeps: off-diagonal norm {off:.3e} > {target:.3e}"
    )
