"""The inequality campaign and the singular-position reduction pipeline.

The generalized isoperimetric and Brunn-Minkowski inequalities are
theorems; the campaign exists to fuzz the implementation, and the reduction
pipeline replays the constructive proof: rotate one zonogon into singular
position, cancel the parallel pair, repeat until one side is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bodies, generators, lifted
from .bodies import PI, Body, atom_form, atoms_of, fold, group_starts, merge_atoms, perimeter
from .errors import DegenerateDirectionError, DomainError, UnsupportedRepresentationError
from .lifted import LiftedVector, perimeter_ext

TOL_ABS = 1e-9
# Relative half-length difference below which a reduction step cancels a
# shared direction completely.
NEAR_CANCEL = 1e-12


# --- batched campaigns ----------------------------------------------------

# Bodies drawn per trial, in draw order.  iso and bm draw (u, v); bmgen and
# schwarz draw x = [u, v] and then y = [u', v'].
CAMPAIGN_BODIES = {"iso": 2, "bm": 2, "bmgen": 4, "schwarz": 4}
# Bound on one batch's (n, k, k) sin·cos products; atom_form holds two at once.
CHUNK_ENTRIES = 1 << 22
# One trial's tensor has (2 * max_diangles)**2 entries and cannot be split.
MAX_DIANGLES = math.isqrt(CHUNK_ENTRIES) // 2
# Bound on the raw generator outputs of one chunk of trials.
DRAW_ENTRIES = 1 << 19


def _body(atoms, i: int):
    """Atoms of body i, per trial."""
    return tuple(t[:, i] for t in atoms)


def _values(kind: str, atoms):
    """Per-trial (lhs, rhs, checked) from the padded atoms of each trial's bodies."""
    all_checked = np.ones(len(atoms[2]), dtype=bool)
    u, v = _body(atoms, 0), _body(atoms, 1)
    if kind == "bm":
        s = np.concatenate([u[0], v[0]], axis=-1), np.concatenate([u[1], v[1]], axis=-1), u[2] + v[2]
        lhs = np.sqrt(atom_form(*s, *s))
        return lhs, np.sqrt(atom_form(*u, *u)) + np.sqrt(atom_form(*v, *v)), all_checked
    x = bodies.signed_atoms(u, v)
    ox, mx = perimeter(x), atom_form(*x, *x)
    if kind == "iso":
        return ox * ox, 4.0 * PI * mx, all_checked
    y = bodies.signed_atoms(_body(atoms, 2), _body(atoms, 3))
    oy, my, bxy = perimeter(y), atom_form(*y, *y), atom_form(*x, *y)
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

    Returns the violation count and the smallest slack lhs - rhs (None
    when nothing was checked), plus the number of checked trials for bmgen.
    iso (lhs = o^2) counts slack < -tol*(1 + lhs); bm, bmgen and schwarz
    count every slack that is not >= -(tol + tol*(1 + |lhs| + |rhs|)), a NaN
    slack included.  A tolerance so large that its bound overflows counts
    nothing.
    """
    step = max(1, DRAW_ENTRIES // (CAMPAIGN_BODIES[kind] * (2 * max_diangles + 3)))
    violations = checked = 0
    worst = math.inf
    for start in range(0, trials, step):
        lhs, rhs, ok = campaign_values(kind, seed, range(start, min(trials, start + step)), max_diangles)
        lhs, rhs = lhs[ok], rhs[ok]
        slack = lhs - rhs
        if kind == "iso":
            violated = slack < -tol * (1.0 + lhs)
        else:
            violated = ~(slack >= -(tol + tol * (1.0 + np.abs(lhs) + np.abs(rhs))))
        violations += int(np.count_nonzero(violated))
        checked += len(slack)
        if len(slack):
            worst = min(worst, float(slack.min()))
    report = {"violations": violations, "min_slack": worst if checked else None}
    if kind == "bmgen":
        report["checked"] = checked
    return report


def _require_zonogon(x, what: str) -> None:
    if atoms_of(x)[2]:
        raise UnsupportedRepresentationError(f"{what} requires a pure zonogon; polygonize the disc first")


def rotation_fn_F(u, v, phis) -> np.ndarray:
    """F at each phi: the mixed area B(u, v turned by phi), one atom_form call.

    u and v are Bodies or atom triples; v must be a zonogon.
    """
    _require_zonogon(v, "rotation_fn_F")
    v_angles, v_weights, _ = atoms_of(v)
    turned = v_angles + np.asarray(phis, dtype=float)[:, None]
    return atom_form(*atoms_of(u), turned, v_weights, 0.0)


def rotation_fn_E(u: Body, v: Body, phis) -> np.ndarray:
    """E at each phi: the area of u + rotate(v, phi), as area(u) + area(v) + 2 F."""
    return bodies.area(u) + bodies.area(v) + 2.0 * rotation_fn_F(u, v, phis)


def singular_candidates(u, v) -> np.ndarray:
    """Rotation angles aligning some diangle of v with some diangle of u (Bodies or atom triples)."""
    cands = np.unique(fold((atoms_of(u)[0][:, None] - atoms_of(v)[0][None, :]).ravel()))
    return cands[group_starts(cands)]


def singular_min(u, v) -> tuple[float, float]:
    """Minimize F over the finite candidate set; ties go to the smallest angle.

    u and v are Bodies or atom triples, both zonogons with some diangle.  F
    is interval-wise concave with breakpoints exactly at the singular
    candidates, so the global minimum over [0, pi) lies in the set.

    Each F is one atom_form value, off from the exact F at its candidate by
    at most E = (k_u + k_v + 24) ε Σ|w_u| Σ|w_v|: atom_form's bound, with k
    the atom counts and ε the machine epsilon, plus 2πε Σ|w_u| Σ|w_v| for
    the turned angles, each rounded by at most πε.  Every candidate whose F
    lies within 2E of the least F counts as a minimum, so which of a tie
    wins does not depend on the order of u's and v's atoms.
    """
    _require_zonogon(u, "singular_min")
    _require_zonogon(v, "singular_min")
    (_, wu, _), (_, wv, _) = atoms_of(u), atoms_of(v)
    if not (len(wu) and len(wv)):
        raise DomainError("singular_min needs two nonempty zonogons")
    cands = singular_candidates(u, v)
    values = rotation_fn_F(u, v, cands)
    tie = 2.0 * (len(wu) + len(wv) + 24) * np.finfo(float).eps * np.abs(wu).sum() * np.abs(wv).sum()
    best = int(np.argmax(values <= values.min() + tie))  # the first, as the candidates ascend
    return float(cands[best]), float(values[best])


@dataclass(frozen=True)
class ReductionStep:
    phi_star: float
    F_min: float
    cancelled_direction: float
    joint_sides_after: int
    perimeter_ext: float
    measure_ext: float

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    witness: Body
    witness_sign: int = 1


def reduce_pair(u: Body, v: Body) -> ReductionTrace:
    """Reduce (u, v) to a single witness polygon.

    Each pass rotates v into the singular position minimizing F and cancels
    the shared directions; perimeter_ext is invariant and measure_ext can
    only grow.  Stops when one side has no diangles; the witness is the
    other side, with sign -1 when the surviving side is v.

    The pair is one signed-atom triple, u's atoms then v's as
    bodies.signed_atoms orders them; only the witness is built as a Body.
    """
    _require_zonogon(u, "reduce_pair")
    _require_zonogon(v, "reduce_pair")
    angles, weights, _ = bodies.signed_atoms(u, v)
    k = len(u.angles)  # atoms [:k] are u's, [k:] are v's with weight -d
    steps: list[ReductionStep] = []
    while 0 < k < len(angles):
        phi_star, f_min = singular_min((angles[:k], weights[:k], 0.0), (angles[k:], -weights[k:], 0.0))
        # Rotate: v's atoms turned by phi_star and merged, as canonicalize merges them.
        turned, turned_weights, _ = merge_atoms(fold(angles[k:] + phi_star), weights[k:])
        angles, weights, cancelled = merge_atoms(
            np.concatenate([angles[:k], turned]), np.concatenate([weights[:k], turned_weights]), NEAR_CANCEL
        )
        assert cancelled is not None
        order = np.argsort(weights < 0.0, kind="stable")
        angles, weights, k = angles[order], weights[order], int(np.count_nonzero(weights > 0.0))
        x = angles, weights, 0.0
        steps.append(
            ReductionStep(phi_star, f_min, cancelled, 2 * len(angles), float(perimeter(x)), float(atom_form(*x, *x)))
        )
    if k < len(angles):
        return ReductionTrace(tuple(steps), Body(angles, -weights), -1)
    return ReductionTrace(tuple(steps), Body(angles, weights), 1)


def hyperbolic_witness(u: LiftedVector, v: LiftedVector) -> LiftedVector:
    """The combination u + t*v with zero perimeter; its measure is negative
    unless the combination is the zero vector."""
    ov = perimeter_ext(v)
    if abs(ov) <= 1e-14 * (1.0 + abs(perimeter_ext(u))):
        raise DegenerateDirectionError("second vector has zero perimeter")
    t = -perimeter_ext(u) / ov
    return lifted.add(u, lifted.scale_real(v, t))
