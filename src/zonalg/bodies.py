"""Centrally symmetric convex bodies in the plane.

A body is a finite Minkowski sum of centered segments ("diangles") plus an
exact disc component.  All quantities (support, width, area, perimeter,
mixed area, Hausdorff distance) have closed forms in this representation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, UnsupportedRepresentationError

PI = math.pi
ANGLE_TOL = 1e-12


def reduce_angle(angle: float) -> float:
    """Reduce an angle mod pi into [0, pi); values within tol of pi fold to 0."""
    a = math.fmod(angle, PI)
    if a < 0.0:
        a += PI
    if PI - a <= ANGLE_TOL or a < 0.0:
        a = 0.0
    return a


@dataclass(frozen=True, order=True)
class Direction:
    """A line direction, identified mod pi."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise InvalidInputError("direction angle must be finite")
        object.__setattr__(self, "angle", reduce_angle(self.angle))

    def close_to(self, other: "Direction", tol: float = ANGLE_TOL) -> bool:
        d = abs(self.angle - other.angle)
        return min(d, PI - d) <= tol


@dataclass(frozen=True)
class Diangle:
    """Centered segment [-d, d] along a direction."""

    dir: Direction
    half_length: float

    def __post_init__(self):
        if not math.isfinite(self.half_length) or self.half_length < 0.0:
            raise InvalidInputError(f"half_length must be >= 0, got {self.half_length}")


def diangle(angle: float, half_length: float) -> Diangle:
    return Diangle(Direction(angle), half_length)


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class Body:
    """Canonical body: sorted distinct diangles plus a disc radius.

    Use canonicalize() / the helper constructors rather than building the
    dataclass directly from unsorted input.
    """

    diangles: tuple[Diangle, ...] = ()
    disc_radius: float = 0.0

    @cached_property
    def _angles(self) -> np.ndarray:
        return np.array([d.dir.angle for d in self.diangles], dtype=float)

    @cached_property
    def _lengths(self) -> np.ndarray:
        return np.array([d.half_length for d in self.diangles], dtype=float)

    @property
    def is_origin(self) -> bool:
        return not self.diangles and self.disc_radius == 0.0

    @property
    def is_zonogon(self) -> bool:
        return self.disc_radius == 0.0

    def __add__(self, other: "Body") -> "Body":
        return minkowski_add(self, other)

    def __rmul__(self, lam: float) -> "Body":
        return scale(self, lam)


def canonicalize(raw: Iterable[Diangle], disc_radius: float = 0.0) -> Body:
    """Merge parallel diangles, drop zero lengths, sort by direction."""
    if not math.isfinite(disc_radius) or disc_radius < 0.0:
        raise InvalidInputError(f"disc radius must be >= 0, got {disc_radius}")
    items = sorted((d.dir.angle, d.half_length) for d in raw)
    merged: list[tuple[float, float]] = []
    for angle, length in items:
        if merged and angle - merged[-1][0] <= ANGLE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + length)
        else:
            merged.append((angle, length))
    # wrap-around: a direction just below pi is parallel to one at 0
    if len(merged) >= 2 and (merged[0][0] + PI) - merged[-1][0] <= ANGLE_TOL:
        a0, l0 = merged[0]
        merged[0] = (a0, l0 + merged[-1][1])
        merged.pop()
    kept = tuple(Diangle(Direction(a), l) for a, l in merged if l > 0.0)
    return Body(kept, disc_radius)


def body(diangle_pairs: Sequence[tuple[float, float]], disc_radius: float = 0.0) -> Body:
    """Body from (angle, half_length) pairs."""
    return canonicalize([diangle(a, d) for a, d in diangle_pairs], disc_radius)


def segment(angle: float, half_length: float) -> Body:
    return body([(angle, half_length)])


def disc(radius: float) -> Body:
    return canonicalize([], radius)


ORIGIN = Body()
UNIT_DISC = Body((), 1.0)
UNIT_SQUARE = body([(0.0, 0.5), (PI / 2, 0.5)])


def minkowski_add(a: Body, b: Body) -> Body:
    return canonicalize(a.diangles + b.diangles, a.disc_radius + b.disc_radius)


def scale(a: Body, lam: float) -> Body:
    if not math.isfinite(lam) or lam < 0.0:
        raise InvalidInputError(f"scale factor must be >= 0, got {lam} (negation lives in the lifted space)")
    return canonicalize(
        [Diangle(d.dir, lam * d.half_length) for d in a.diangles], lam * a.disc_radius
    )


def rotate(a: Body, phi: float) -> Body:
    return canonicalize(
        [Diangle(Direction(d.dir.angle + phi), d.half_length) for d in a.diangles],
        a.disc_radius,
    )


def support(a: Body, theta: float) -> float:
    return float(support_many(a, np.array([theta]))[0])


def support_many(a: Body, thetas: np.ndarray) -> np.ndarray:
    """Support function sum(d_j |cos(theta - theta_j)|) + r at each theta."""
    thetas = np.asarray(thetas, dtype=float)
    if len(a._angles) == 0:
        return np.full(thetas.shape, a.disc_radius, dtype=float)
    return np.abs(np.cos(thetas[:, None] - a._angles[None, :])) @ a._lengths + a.disc_radius


def width(a: Body, phi: float | Direction) -> float:
    """Distance between the two supporting lines parallel to direction phi."""
    angle = phi.angle if isinstance(phi, Direction) else phi
    return 2.0 * support(a, angle + PI / 2)


def atom_form(a1, w1, r1, a2, w2, r2):
    """Mixed area of two signed atom vectors, batched over leading axes.

    A vector is atoms (angle, weight) plus a disc radius; a body has
    weights = half-lengths and radius >= 0, a lifted vector [P, M] has P's
    atoms with + and M's with -, and radius r_P - r_M.  The form is

        B(x, y) = 2 w1ᵀ|sin(a1 - a2ᵀ)|w2 + 2 r1 Σw2 + 2 r2 Σw1 + π r1 r2,

    so area is B(x, x) and measure_ext is B(x, x) on the lifted atoms.
    Angles and weights have shape (..., k); radii have shape (...).  Each
    batch item gets its own matrix-vector products, so its value does not
    depend on the other items in the batch.
    """
    a1, w1, a2, w2 = (np.asarray(t, dtype=float) for t in (a1, w1, a2, w2))
    sines = np.abs(np.sin(a1[..., :, None] - a2[..., None, :]))
    cross = (w1[..., None, :] @ sines @ w2[..., :, None])[..., 0, 0]
    return 2.0 * cross + 2.0 * (r1 * w2.sum(-1) + r2 * w1.sum(-1)) + PI * r1 * r2


def area(a: Body) -> float:
    return float(atom_form(a._angles, a._lengths, a.disc_radius, a._angles, a._lengths, a.disc_radius))


def perimeter(a: Body) -> float:
    return 4.0 * float(a._lengths.sum()) + 2.0 * PI * a.disc_radius


def mixed_area(a: Body, b: Body) -> float:
    """Bilinear polarization of area: (area(a+b) - area(a) - area(b)) / 2."""
    return float(atom_form(a._angles, a._lengths, a.disc_radius, b._angles, b._lengths, b.disc_radius))


def vertices(a: Body) -> list[Point]:
    """Counterclockwise vertices of a pure zonogon."""
    if a.disc_radius != 0.0:
        raise UnsupportedRepresentationError("vertices requires disc_radius = 0; polygonize the disc first")
    if not a.diangles:
        return [Point(0.0, 0.0)]
    ux = a._lengths * np.cos(a._angles)
    uy = a._lengths * np.sin(a._angles)
    x, y = -ux.sum(), -uy.sum()
    pts = [Point(float(x), float(y))]
    for dx, dy in zip(2.0 * ux, 2.0 * uy):
        x += dx
        y += dy
        pts.append(Point(float(x), float(y)))
    for dx, dy in zip(2.0 * ux[:-1], 2.0 * uy[:-1]):
        x -= dx
        y -= dy
        pts.append(Point(float(x), float(y)))
    return pts


def _support_diff_candidates(a: Body, b: Body) -> np.ndarray:
    """Angles where sup |h_a - h_b| can be attained: kinks and interior stationary points.

    Between consecutive kinks theta = angle + pi/2 the difference is
    A cos(theta) + B sin(theta) + r, whose |.| peaks at a kink or at
    atan2(B, A) mod pi (h is pi-periodic).  All intervals are done at once.
    """
    angles = np.concatenate([a._angles, b._angles])
    coefs = np.concatenate([a._lengths, -b._lengths])
    if len(angles) == 0:
        return np.array([0.0])
    kinks = np.unique(np.mod(angles + PI / 2, PI))
    mids = 0.5 * (kinks + np.append(kinks[1:], kinks[0] + PI))
    signs = np.sign(np.cos(mids[:, None] - angles))
    A = signs @ (coefs * np.cos(angles))
    B = signs @ (coefs * np.sin(angles))
    moving = (A != 0.0) | (B != 0.0)
    return np.concatenate([kinks, np.mod(np.arctan2(B[moving], A[moving]), PI)])


def hausdorff(a: Body, b: Body) -> float:
    """sup over directions of |h_a - h_b| (Hausdorff distance of convex bodies).

    Exact: the sup is taken over the finite candidate set of
    _support_diff_candidates, with no sampling grid.
    """
    thetas = _support_diff_candidates(a, b)
    diff = support_many(a, thetas) - support_many(b, thetas)
    return float(np.max(np.abs(diff)))


def bodies_close(a: Body, b: Body, tol: float = 1e-10) -> bool:
    """Equality as sets, via support agreement scaled by magnitude."""
    scale_ = 1.0 + perimeter(a) + perimeter(b)
    return hausdorff(a, b) <= tol * scale_


# --- JSON wire format ---------------------------------------------------


def body_to_dict(a: Body) -> dict:
    return {
        "diangles": [{"angle": d.dir.angle, "d": d.half_length} for d in a.diangles],
        "disc": a.disc_radius,
    }


def body_from_dict(obj: dict) -> Body:
    try:
        raw = [diangle(float(item["angle"]), float(item["d"])) for item in obj["diangles"]]
        return canonicalize(raw, float(obj["disc"]))
    except KeyError as exc:
        raise InvalidInputError(f"body JSON missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"body JSON malformed: {exc}") from exc


def body_to_json(a: Body) -> str:
    return json.dumps(body_to_dict(a), sort_keys=True)


def body_from_json(text: str) -> Body:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON: {exc}") from exc
    return body_from_dict(obj)
