"""Inequality checkers and the singular-position reduction pipeline.

The generalized isoperimetric and Brunn-Minkowski inequalities are
theorems; the checkers exist to fuzz the implementation, and the reduction
pipeline replays the constructive proof: rotate one zonogon into singular
position, cancel the parallel pair, repeat until one side is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bodies, generators, lifted
from .bodies import ANGLE_TOL, PI, Body, Direction, atom_form, support_many
from .errors import DegenerateDirectionError, DomainError, UnsupportedRepresentationError
from .lifted import LiftedVector, bilinear_M, deficit, eps_form, measure_ext, perimeter_ext

TOL_ABS = 1e-9
TOL_REL = 1e-9
# Relative half-length difference below which a reduction step cancels a
# shared direction completely.
NEAR_CANCEL = 1e-12


def scaled_tol(lhs: float, rhs: float, tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL) -> float:
    return tol_abs + tol_rel * (1.0 + abs(lhs) + abs(rhs))


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    lhs: float
    rhs: float
    slack: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
        }


def _report(lhs: float, rhs: float, tol_abs: float, tol_rel: float) -> CheckReport:
    tol = scaled_tol(lhs, rhs, tol_abs, tol_rel)
    slack = lhs - rhs
    return CheckReport(slack >= -tol, lhs, rhs, slack, tol)


def check_isoperimetric(x: LiftedVector, tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL) -> CheckReport:
    """o(x)^2 >= 4*pi*m(x); a failure beyond tolerance signals a bug."""
    o = perimeter_ext(x)
    return _report(o * o, 4.0 * PI * measure_ext(x), tol_abs, tol_rel)


def check_bm_classical(u: Body, v: Body, tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL) -> CheckReport:
    """sqrt(area(u+v)) >= sqrt(area(u)) + sqrt(area(v))."""
    lhs = math.sqrt(bodies.area(bodies.minkowski_add(u, v)))
    rhs = math.sqrt(bodies.area(u)) + math.sqrt(bodies.area(v))
    return _report(lhs, rhs, tol_abs, tol_rel)


def check_bm_generalized(
    x: LiftedVector, y: LiftedVector, tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL
) -> CheckReport:
    """M(x,y)^2 >= m(x)*m(y), for vectors of positive measure."""
    mx, my = measure_ext(x), measure_ext(y)
    if mx <= 0:
        raise DomainError(f"first argument has nonpositive measure {mx}")
    if my <= 0:
        raise DomainError(f"second argument has nonpositive measure {my}")
    b = bilinear_M(x, y)
    return _report(b * b, mx * my, tol_abs, tol_rel)


def check_schwarz_deficit(
    x: LiftedVector, y: LiftedVector, tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL
) -> CheckReport:
    """eps(x,y) <= sqrt(D(x))*sqrt(D(y))."""
    lhs = math.sqrt(max(deficit(x), 0.0)) * math.sqrt(max(deficit(y), 0.0))
    return _report(lhs, eps_form(x, y), tol_abs, tol_rel)


# --- batched campaigns ----------------------------------------------------

# Bodies drawn per trial, in draw order.  iso and bm draw (u, v); bmgen and
# schwarz draw x = [u, v] and then y = [u', v'].
CAMPAIGN_BODIES = {"iso": 2, "bm": 2, "bmgen": 4, "schwarz": 4}
# Bound on the entries of one batch's (n, k, k) sine tensor.
CHUNK_ENTRIES = 1 << 22
# Bound on the raw generator outputs of one chunk of trials.
DRAW_ENTRIES = 1 << 19


def _body(atoms, i: int):
    """Atoms of body i, per trial."""
    return tuple(t[:, i] for t in atoms)


def _combine(atoms, i: int, j: int, sign: float):
    """Atoms of body i followed by those of body j times sign, per trial."""
    angles, lengths, radii = atoms
    return (
        np.concatenate([angles[:, i], angles[:, j]], axis=-1),
        np.concatenate([lengths[:, i], sign * lengths[:, j]], axis=-1),
        radii[:, i] + sign * radii[:, j],
    )


def _perimeter(x) -> np.ndarray:
    _, weights, radius = x
    return 4.0 * weights.sum(-1) + 2.0 * PI * radius


def _values(kind: str, atoms):
    """Per-trial (lhs, rhs, checked) from the padded atoms of each trial's bodies."""
    all_checked = np.ones(len(atoms[2]), dtype=bool)
    if kind == "bm":
        u, v, s = _body(atoms, 0), _body(atoms, 1), _combine(atoms, 0, 1, 1.0)
        lhs = np.sqrt(atom_form(*s, *s))
        return lhs, np.sqrt(atom_form(*u, *u)) + np.sqrt(atom_form(*v, *v)), all_checked
    x = _combine(atoms, 0, 1, -1.0)
    ox, mx = _perimeter(x), atom_form(*x, *x)
    if kind == "iso":
        return ox * ox, 4.0 * PI * mx, all_checked
    y = _combine(atoms, 2, 3, -1.0)
    oy, my, bxy = _perimeter(y), atom_form(*y, *y), atom_form(*x, *y)
    if kind == "bmgen":
        return bxy * bxy, mx * my, (mx > 0) & (my > 0)
    dx, dy = ox * ox - 4.0 * PI * mx, oy * oy - 4.0 * PI * my
    return np.sqrt(np.maximum(dx, 0.0)) * np.sqrt(np.maximum(dy, 0.0)), ox * oy - 4.0 * PI * bxy, all_checked


def campaign_values(kind: str, seed: int, trials: range, max_diangles: int = 10):
    """Per-trial (lhs, rhs, checked) of a campaign over the given trials.

    The inequality is lhs >= rhs on the trials where `checked` holds (bmgen
    skips vectors of nonpositive measure).  Body b of trial t is the b-th
    random_body drawn from trial_rng(seed, t).  Each trial's bodies are
    padded to the largest of them, so a trial's values are the same bits
    alone or in any batch, whatever max_diangles is.
    """
    draws = generators.draw_atoms(seed, trials, CAMPAIGN_BODIES[kind], max_diangles)
    # Sorted by width, each group of equal width is one slice.
    order = np.argsort(draws[0].max(axis=1, initial=0), kind="stable")
    sizes, angles, lengths, radii = (a[order] for a in draws)
    widths = sizes.max(axis=1, initial=0)
    out = np.zeros((3, len(order)))
    start = 0
    while start < len(order):
        w = int(widths[start])
        stop = min(int(np.searchsorted(widths, w, "right")), start + max(1, CHUNK_ENTRIES // (2 * w) ** 2))
        atoms = angles[start:stop, :, :w], lengths[start:stop, :, :w], radii[start:stop]
        out[:, order[start:stop]] = _values(kind, atoms)
        start = stop
    lhs, rhs, checked = out
    return lhs, rhs, checked.astype(bool)


def campaign(kind: str, trials: int, seed: int, max_diangles: int = 10, tol: float = TOL_ABS) -> dict:
    """Fuzz one inequality over trials 0 .. trials-1 of seed.

    Returns the violation count and the smallest slack (None when nothing
    was checked), plus the number of checked trials for bmgen.  iso counts
    deficit < -tol*(1 + o^2); the others count a failed check_* report.  A
    tolerance so large that its bound overflows counts nothing.
    """
    step = max(1, DRAW_ENTRIES // (CAMPAIGN_BODIES[kind] * (2 * max_diangles + 3)))
    violations = checked = 0
    worst = math.inf
    for start in range(0, trials, step):
        lhs, rhs, ok = campaign_values(kind, seed, range(start, min(trials, start + step)), max_diangles)
        lhs, rhs = lhs[ok], rhs[ok]
        slack = lhs - rhs
        with np.errstate(over="ignore"):
            if kind == "iso":
                violated = slack < -tol * (1.0 + lhs)
            else:
                violated = ~(slack >= -scaled_tol(lhs, rhs, tol, tol))
        violations += int(np.count_nonzero(violated))
        checked += len(slack)
        if len(slack):
            worst = min(worst, float(slack.min()))
    report = {"violations": violations, "min_slack": worst if checked else None}
    if kind == "bmgen":
        report["checked"] = checked
    return report


def _require_zonogon(v: Body, what: str) -> None:
    if not v.is_zonogon:
        raise UnsupportedRepresentationError(f"{what} requires a pure zonogon; polygonize the disc first")


def rotation_fn_E(u: Body, v: Body, phi: float) -> float:
    """Area of u + rotate(v, phi)."""
    _require_zonogon(v, "rotation_fn_E")
    return bodies.area(bodies.minkowski_add(u, bodies.rotate(v, phi)))


def rotation_fn_F(u: Body, v: Body, phi: float) -> float:
    """Sum over diangles of v of width(u, dir+phi) * half_length."""
    _require_zonogon(v, "rotation_fn_F")
    return float(_rotation_fn_F_many(u, v, np.array([phi]))[0])


def _rotation_fn_F_many(u: Body, v: Body, phis: np.ndarray) -> np.ndarray:
    angles = v._angles[None, :] + phis[:, None] + PI / 2
    widths = 2.0 * support_many(u, angles.ravel()).reshape(angles.shape)
    return widths @ v._lengths


def singular_candidates(u: Body, v: Body) -> np.ndarray:
    """Rotation angles aligning some diangle of v with some diangle of u."""
    diffs = np.mod(u._angles[:, None] - v._angles[None, :], PI).ravel()
    diffs[PI - diffs <= ANGLE_TOL] = 0.0
    cands = np.unique(diffs)
    if np.all(np.diff(cands) > ANGLE_TOL):
        return cands
    # Chained rule: each candidate is compared with the last one kept.
    keep = [0]
    for i in range(1, len(cands)):
        if cands[i] - cands[keep[-1]] > ANGLE_TOL:
            keep.append(i)
    return cands[keep]


def singular_min(u: Body, v: Body) -> tuple[float, float]:
    """Minimize F over the finite candidate set; ties go to the smallest angle.

    F is interval-wise concave with breakpoints exactly at the singular
    candidates, so the global minimum over [0, pi) lies in the set.
    """
    _require_zonogon(u, "singular_min")
    _require_zonogon(v, "singular_min")
    if u.is_origin or v.is_origin:
        raise DomainError("singular_min needs two nonempty zonogons")
    cands = singular_candidates(u, v)
    values = _rotation_fn_F_many(u, v, cands)
    best = int(np.argmin(values))
    return float(cands[best]), float(values[best])


@dataclass(frozen=True)
class ReductionStep:
    phi_star: float
    F_min: float
    cancelled_direction: Direction
    joint_sides_after: int
    perimeter_ext: float
    measure_ext: float

    def to_dict(self) -> dict:
        return {
            "phi_star": self.phi_star,
            "F_min": self.F_min,
            "cancelled_direction": self.cancelled_direction.angle,
            "joint_sides_after": self.joint_sides_after,
            "perimeter_ext": self.perimeter_ext,
            "measure_ext": self.measure_ext,
        }


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    witness: Body
    witness_sign: int = field(default=1)


def reduce_pair(u: Body, v: Body) -> ReductionTrace:
    """Reduce (u, v) to a single witness polygon.

    Each pass rotates v into the singular position minimizing F and cancels
    the shared directions; perimeter_ext is invariant and measure_ext can
    only grow.  Stops when one side has no diangles; the witness is the
    other side, with sign -1 when the surviving side is v.
    """
    _require_zonogon(u, "reduce_pair")
    _require_zonogon(v, "reduce_pair")
    steps: list[ReductionStep] = []
    while u.diangles and v.diangles:
        phi_star, f_min = singular_min(u, v)
        v = bodies.rotate(v, phi_star)
        u, v, cancelled = lifted.cancel_shared(u, v, near=NEAR_CANCEL)
        assert cancelled is not None
        steps.append(
            ReductionStep(
                phi_star=phi_star,
                F_min=f_min,
                cancelled_direction=cancelled,
                joint_sides_after=2 * (len(u.diangles) + len(v.diangles)),
                perimeter_ext=bodies.perimeter(u) - bodies.perimeter(v),
                measure_ext=measure_ext(LiftedVector(u, v)),
            )
        )
    if v.diangles:
        return ReductionTrace(tuple(steps), v, -1)
    return ReductionTrace(tuple(steps), u, 1)


def hyperbolic_witness(u: LiftedVector, v: LiftedVector) -> LiftedVector:
    """The combination u + t*v with zero perimeter; its measure is negative
    unless the combination is the zero vector."""
    ov = perimeter_ext(v)
    if abs(ov) <= 1e-14 * (1.0 + abs(perimeter_ext(u))):
        raise DegenerateDirectionError("second vector has zero perimeter")
    t = -perimeter_ext(u) / ov
    return lifted.add(u, lifted.scale_real(v, t))


def equality_case_check(x: LiftedVector, tol: float = 1e-10) -> bool:
    """Whether x attains isoperimetric equality, i.e. x is a disc multiple."""
    scale = 1.0 + abs(perimeter_ext(x))
    return deficit(x) <= tol * scale * scale


def is_disc_multiple(x: LiftedVector, tol: float = 1e-10) -> bool:
    """Structural counterpart of equality_case_check on the canonical form."""
    scale = 1.0 + abs(perimeter_ext(x))
    stray = sum(d.half_length for d in x.plus.diangles)
    stray += sum(d.half_length for d in x.minus.diangles)
    return stray <= tol * scale
