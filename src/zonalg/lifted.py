"""The vector space of formal differences of bodies.

Vectors are canonical pairs [plus, minus]: the two components share no
diangle direction and at most one carries a disc.  Area extends to the
unique quadratic polynomial on this space; perimeter extends linearly.
Every form reads the signed atoms of `LiftedVector.atoms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bodies
from .bodies import PI, UNIT_DISC, Body, atom_form, merge_atoms, minkowski_add, signed_atoms, sup_norm
from .errors import DegenerateDirectionError, InvalidInputError

FOUR_PI_SQ = 4.0 * PI * PI


@dataclass(frozen=True)
class LiftedVector:
    """[plus, minus].  When `lift` keeps its input Bodies (see there), they hold
    the Body invariant as their maker did.  Atoms and forms are kept once taken."""

    plus: Body
    minus: Body

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Signed atoms (angles, weights, radius): plus with +, minus with -, radius r_P - r_M."""
        return signed_atoms(self.plus, self.minus)

    @cached_property
    def perimeter(self) -> float:
        """perimeter_ext: bodies.perimeter of the signed atoms."""
        return float(bodies.perimeter(self.atoms))

    @cached_property
    def measure(self) -> float:
        """measure_ext: atom_form of the signed atoms with themselves."""
        return float(atom_form(*self.atoms, *self.atoms))

    @property
    def is_zero(self) -> bool:
        return self.plus.is_origin and self.minus.is_origin

    def __add__(self, other: "LiftedVector") -> "LiftedVector":
        return add(self, other)

    def __neg__(self) -> "LiftedVector":
        return neg(self)

    def __sub__(self, other: "LiftedVector") -> "LiftedVector":
        return add(self, neg(other))

    def __rmul__(self, lam: float) -> "LiftedVector":
        return scale_real(self, lam)


def lift(u: Body, v: Body) -> LiftedVector:
    """Canonical representative of the class of (u, v): cancel shared summands.

    merge_atoms on the signed atoms of [u, v], split by sign, so a
    remainder keeps its own side's angle; the smaller disc cancels too.
    A group that chains past ANGLE_TOL can leave two kept atoms within it
    of each other; they are merged again, so lifting a lift changes nothing.

    When the merge drops no atom, the Body invariant (sorted angles, gaps
    over ANGLE_TOL, lengths > 0) makes the split u's atoms and v's as they
    are; if also the smaller radius is +0.0, whose subtraction moves no
    bit, u and v themselves are the lift.
    """
    angles, weights, _ = merge_atoms(*signed_atoms(u, v)[:2])
    r = min(u.disc_radius, v.disc_radius)
    if len(angles) == len(u.angles) + len(v.angles) and r == 0.0 and math.copysign(1.0, r) > 0.0:
        return LiftedVector(u, v)
    while np.count_nonzero(np.diff(angles) <= bodies.ANGLE_TOL):
        angles, weights, _ = merge_atoms(angles, weights)
    plus = weights > 0.0
    return LiftedVector(
        Body(angles[plus], weights[plus], u.disc_radius - r), Body(angles[~plus], -weights[~plus], v.disc_radius - r)
    )


def from_body(u: Body) -> LiftedVector:
    return lift(u, bodies.ORIGIN)


ZERO = LiftedVector(Body(), Body())
DISC_VECTOR = LiftedVector(UNIT_DISC, Body())


def add(x: LiftedVector, y: LiftedVector) -> LiftedVector:
    return lift(minkowski_add(x.plus, y.plus), minkowski_add(x.minus, y.minus))


def neg(x: LiftedVector) -> LiftedVector:
    return LiftedVector(x.minus, x.plus)


def scale_real(x: LiftedVector, lam: float) -> LiftedVector:
    if not math.isfinite(lam):
        raise InvalidInputError(f"scale factor must be finite, got {lam}")
    if lam < 0:
        return neg(scale_real(x, -lam))
    return lift(bodies.scale(x.plus, lam), bodies.scale(x.minus, lam))


def measure_ext(x: LiftedVector) -> float:
    """Quadratic extension of area; may be negative."""
    return x.measure


def bilinear_M(x: LiftedVector, y: LiftedVector) -> float:
    """Symmetric bilinear form polarizing measure_ext."""
    return x.measure if y is x else float(atom_form(*x.atoms, *y.atoms))


def perimeter_ext(x: LiftedVector) -> float:
    return x.perimeter


def deficit(x: LiftedVector) -> float:
    """o^2 - 4*pi*m; nonnegative, zero exactly on multiples of the disc."""
    o = perimeter_ext(x)
    return o * o - 4.0 * PI * measure_ext(x)


def eps_form(x: LiftedVector, y: LiftedVector) -> float:
    """Symmetric bilinear form polarizing the deficit."""
    return perimeter_ext(x) * perimeter_ext(y) - 4.0 * PI * bilinear_M(x, y)


def inner(x: LiftedVector, y: LiftedVector) -> float:
    """Normalized inner product; the unit disc has norm 1."""
    return (
        2.0 * perimeter_ext(x) * perimeter_ext(y) - 4.0 * PI * bilinear_M(x, y)
    ) / FOUR_PI_SQ


def norm(x: LiftedVector) -> float:
    return math.sqrt(max(inner(x, x), 0.0))


def norm_c(x: LiftedVector) -> float:
    """Sup norm of the support difference = Hausdorff distance of the pair."""
    return sup_norm(x.atoms)


def norm_bp(x: LiftedVector) -> float:
    """Sum of the components' sup norms on the canonical representative.

    The infimum over all representatives (plus+W, minus+W) is attained at
    W = origin since support functions are nonnegative and additive.
    """
    return sup_norm(x.plus) + sup_norm(x.minus)


def hyperbolic_witness(u: LiftedVector, v: LiftedVector) -> LiftedVector:
    """The combination u + t*v with zero perimeter; its measure is negative
    unless the combination is the zero vector."""
    ou, ov = perimeter_ext(u), perimeter_ext(v)
    if abs(ov) <= 1e-14 * (1.0 + abs(ou)):
        raise DegenerateDirectionError("second vector has zero perimeter")
    return add(u, scale_real(v, -ou / ov))
