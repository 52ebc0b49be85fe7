"""The vector space of formal differences of bodies.

Vectors are canonical pairs [plus, minus]: the two components share no
diangle direction and at most one carries a disc.  Area extends to the
unique quadratic polynomial on this space; perimeter extends linearly.
Every form reads the signed atoms of `LiftedVector.atoms`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bodies
from .bodies import PI, UNIT_DISC, Body, atom_form, atoms_of, hausdorff, merge_atoms, minkowski_add, sup_norm
from .errors import InvalidInputError

FOUR_PI_SQ = 4.0 * PI * PI


@dataclass(frozen=True)
class LiftedVector:
    plus: Body
    minus: Body

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Signed atoms (angles, weights, radius): plus with +, minus with -, radius r_P - r_M.

        The one place the sign convention is written.  plus and minus may
        also be atom triples batched over leading axes; atoms are joined
        along the last axis.
        """
        (pa, pw, pr), (ma, mw, mr) = atoms_of(self.plus), atoms_of(self.minus)
        return np.concatenate([pa, ma], axis=-1), np.concatenate([pw, -mw], axis=-1), pr - mr

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
    """
    angles, weights, _ = merge_atoms(*LiftedVector(u, v).atoms[:2])
    plus = weights > 0.0
    r = min(u.disc_radius, v.disc_radius)
    return LiftedVector(
        Body(angles[plus], weights[plus], u.disc_radius - r), Body(angles[~plus], -weights[~plus], v.disc_radius - r)
    )


def from_body(u: Body) -> LiftedVector:
    return lift(u, bodies.ORIGIN)


ZERO = LiftedVector(Body(), Body())
DISC_VECTOR = LiftedVector(UNIT_DISC, Body())


def equivalent(p1: tuple[Body, Body], p2: tuple[Body, Body], tol: float = 1e-12) -> bool:
    """Whether (u1, v1) and (u2, v2) represent the same vector: u1+v2 = v1+u2."""
    left = minkowski_add(p1[0], p2[1])
    right = minkowski_add(p1[1], p2[0])
    scale = 1.0 + bodies.perimeter(left) + bodies.perimeter(right)
    return hausdorff(left, right) <= tol * scale


def add(x: LiftedVector, y: LiftedVector) -> LiftedVector:
    return lift(minkowski_add(x.plus, y.plus), minkowski_add(x.minus, y.minus))


def neg(x: LiftedVector) -> LiftedVector:
    return LiftedVector(x.minus, x.plus)


def scale_real(x: LiftedVector, lam: float) -> LiftedVector:
    if lam < 0:
        return neg(scale_real(x, -lam))
    return lift(bodies.scale(x.plus, lam), bodies.scale(x.minus, lam))


def measure_ext(x: LiftedVector) -> float:
    """Quadratic extension of area; may be negative."""
    return float(atom_form(*x.atoms, *x.atoms))


def bilinear_M(x: LiftedVector, y: LiftedVector) -> float:
    """Symmetric bilinear form polarizing measure_ext."""
    return float(atom_form(*x.atoms, *y.atoms))


def perimeter_ext(x: LiftedVector) -> float:
    return float(bodies.perimeter(x.atoms))


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


def inner_raw(x: LiftedVector, y: LiftedVector) -> float:
    """Unnormalized variant: 2*o(x)*o(y) - 4*pi*M(x, y)."""
    return FOUR_PI_SQ * inner(x, y)


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


def vectors_close(x: LiftedVector, y: LiftedVector, tol: float = 1e-10) -> bool:
    d = add(x, neg(y))
    scale = 1.0 + abs(perimeter_ext(x)) + abs(perimeter_ext(y))
    return norm_c(d) <= tol * scale


# --- JSON wire format ---------------------------------------------------


def lifted_to_dict(x: LiftedVector) -> dict:
    return {"plus": bodies.body_to_dict(x.plus), "minus": bodies.body_to_dict(x.minus)}


def lifted_from_dict(obj: dict) -> LiftedVector:
    try:
        plus = bodies.body_from_dict(obj["plus"])
        minus = bodies.body_from_dict(obj["minus"])
    except KeyError as exc:
        raise InvalidInputError(f"lifted vector JSON missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"lifted vector JSON malformed: {exc}") from exc
    return lift(plus, minus)


def lifted_to_json(x: LiftedVector) -> str:
    return json.dumps(lifted_to_dict(x), sort_keys=True)


def lifted_from_json(text: str) -> LiftedVector:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON: {exc}") from exc
    return lifted_from_dict(obj)
