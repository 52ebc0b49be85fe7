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
from .bodies import PI, UNIT_DISC, Body, _eps_scaled, atom_form, merge_atoms, signed_atoms, sup_norm
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

    @cached_property
    def deficit(self) -> float:
        """deficit: eps_form of the vector with itself."""
        return eps_form(self, self)

    @property
    def is_zero(self) -> bool:
        return self.plus.is_origin and self.minus.is_origin

    def __add__(self, other: "LiftedVector") -> "LiftedVector":
        return add(self, other)

    def __neg__(self) -> "LiftedVector":
        return neg(self)

    def __sub__(self, other: "LiftedVector") -> "LiftedVector":
        return lift(self, other)

    def __rmul__(self, lam: float) -> "LiftedVector":
        return scale_real(self, lam)


def lift(u, v) -> LiftedVector:
    """Canonical representative of the class of (u, v): cancel shared summands.

    u and v are any two atom holders (Bodies, lifted vectors or atom
    triples); add, - and scale_real are one lift each, so no intermediate
    Body is built.

    merge_atoms on signed_atoms(u, v), split by sign, so a remainder keeps
    its own side's angle; the signed radius goes to the side of its sign.
    A group that chains past ANGLE_TOL can leave two kept atoms within it
    of each other; they are merged again, so lifting a lift changes nothing.

    When u and v are Bodies and the merge drops no atom, the Body invariant
    (sorted angles, gaps over ANGLE_TOL, lengths > 0) makes the split u's
    atoms and v's as they are; if also one radius is 0 (+0.0, as Body
    stores it), whose subtraction moves no bit, u and v themselves are the
    lift.
    """
    a, w, r = signed_atoms(u, v)
    angles, weights, _ = merge_atoms(a, w)
    if type(u) is type(v) is Body and len(angles) == len(a) and 0.0 in (u.disc_radius, v.disc_radius):
        return LiftedVector(u, v)
    while np.count_nonzero(np.diff(angles) <= bodies.ANGLE_TOL):
        angles, weights, _ = merge_atoms(angles, weights)
    plus = weights > 0.0
    return LiftedVector(Body(angles[plus], weights[plus], max(r, 0.0)), Body(angles[~plus], -weights[~plus], max(-r, 0.0)))


def from_body(u: Body) -> LiftedVector:
    return lift(u, bodies.ORIGIN)


ZERO = LiftedVector(Body(), Body())
DISC_VECTOR = LiftedVector(UNIT_DISC, Body())


def add(x: LiftedVector, y: LiftedVector) -> LiftedVector:
    """x + y: one lift of x's atoms and y's."""
    return lift(x, neg(y))


def neg(x: LiftedVector) -> LiftedVector:
    return LiftedVector(x.minus, x.plus)


def scale_real(x: LiftedVector, lam: float) -> LiftedVector:
    """lam·x for any finite lam: one lift of the scaled signed atoms.  A product
    that overflows names lam in its error; rounding is monotone, so the
    largest |weight| or |radius| shows whether one does."""
    if not math.isfinite(lam):
        raise InvalidInputError(f"scale factor must be finite, got {lam}")
    angles, weights, radius = x.atoms
    if not math.isfinite(lam * float(max(np.abs(weights).max(initial=0.0), abs(radius)))):
        raise InvalidInputError(f"scale factor {lam} overflows a half_length or the disc radius")
    return lift((angles, lam * weights, lam * radius), bodies.ORIGIN)


def measure_ext(x: LiftedVector) -> float:
    """Quadratic extension of area; may be negative."""
    return x.measure


def _in_order(x: LiftedVector, y: LiftedVector) -> tuple:
    """The atoms of x and y, joined in an order fixed by their bytes, so a form of
    (x, y) has the bits of (y, x); the radius counts, as π·r₁·r₂ does not commute in floats."""
    first, second = sorted((x.atoms, y.atoms), key=lambda t: (t[0].tobytes(), t[1].tobytes(), float(t[2]).hex()))
    return (*first, *second)


def bilinear_M(x: LiftedVector, y: LiftedVector) -> float:
    """Symmetric bilinear form polarizing measure_ext, symmetric bit for bit;
    the diagonal is x.measure."""
    return x.measure if y is x else float(atom_form(*_in_order(x, y)))


def perimeter_ext(x: LiftedVector) -> float:
    return x.perimeter


def deficit(x: LiftedVector) -> float:
    """o^2 - 4*pi*m, read from eps_form(x, x) as x keeps it; nonnegative, and
    exactly 0.0 on multiples of the disc."""
    return x.deficit


def eps_form(x: LiftedVector, y: LiftedVector) -> float:
    """Symmetric bilinear form polarizing the deficit, o·o' - 4π·B(x, y).

    The disc terms of o·o' and 4π·B cancel exactly, so it is written
    without them: 16·Σw·Σw' - 4π·B₀(x, y), B₀ the atom_form of the signed
    atoms at radius 0.  A disc multiple has no atoms and gets exactly 0.0.
    The operands are taken in _in_order's order, so eps_form(x, y) and
    eps_form(y, x) are the same bits; B₀ takes sin and cos once when y is
    x.  Off by at most eps_form_bound(x, y).
    """
    ax, wx, _, ay, wy, _ = _in_order(x, y)
    return float(16.0 * (wx.sum() * wy.sum()) - 4.0 * PI * atom_form(ax, wx, 0.0, ay, wy, 0.0))


def eps_form_bound(x: LiftedVector, y: LiftedVector) -> float:
    """Bound on |eps_form - exact| at the given doubles, to first order (Higham 2002, §4.2).

    Each Σw is within (k - 1)·ε/2·Σ|w|, k its atom count, and the product
    takes ε/2 more: 8(k_x + k_y - 1)·ε·P for 16·Σw·Σw', P = Σ|w_x|·Σ|w_y|.
    B₀ is within atom_form_bound at radius 0, (k_x + k_y + 16)·ε·P, and
    |B₀| <= 2P, so 4π's rounding and the product with it add 4π·ε·P each;
    the subtraction adds ε/2·(16 + 8π)·P.  In all
    (8(k_x + k_y) + 4π(k_x + k_y + 19))·ε·P.
    """
    wx, wy = x.atoms[1], y.atoms[1]
    k = len(wx) + len(wy)
    return float(_eps_scaled(8 * k + 4.0 * PI * (k + 19), wx, 0.0, wy, 0.0))


def inner(x: LiftedVector, y: LiftedVector) -> float:
    """Normalized inner product (o·o' + eps_form(x, y)) / 4π², eps_form read
    as deficit(x) when y is x; the unit disc has norm 1."""
    eps = x.deficit if y is x else eps_form(x, y)
    return (perimeter_ext(x) * perimeter_ext(y) + eps) / FOUR_PI_SQ


def norm(x: LiftedVector) -> float:
    return math.sqrt(max(inner(x, x), 0.0))


def norm_c(x: LiftedVector) -> float:
    """Sup norm of the support difference, the Hausdorff distance of the pair:
    bodies.sup_norm of the signed atoms, within sup_norm_bound of the exact sup."""
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
