"""The inequality campaign and the singular-position reduction pipeline.

The generalized isoperimetric and Brunn-Minkowski inequalities are
theorems; the campaign exists to fuzz the implementation, and the reduction
pipeline replays the constructive proof: rotate one zonogon into singular
position, cancel the parallel pair, repeat until one side is trivial.  The
campaign takes all of a trial's mixed areas from one sorted sweep over its
atoms (bodies.sweep_form), the reduction's F from one over pairs of atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bodies, generators
from .bodies import EPS, PI, Body, _eps_scaled, atom_form, atoms_of, fold, group_starts, merge_atoms, perimeter, require_zonogon
from .errors import DomainError

TOL_ABS = 1e-9
# Relative half-length difference below which a reduction step cancels a
# shared direction completely.
NEAR_CANCEL = 1e-12


# --- batched campaigns ----------------------------------------------------

# Bodies drawn per trial, in draw order.  iso and bm draw (u, v); bmgen and
# schwarz draw x = [u, v] and then y = [u', v'].
CAMPAIGN_BODIES = {"iso": 2, "bm": 2, "bmgen": 4, "schwarz": 4}
# The largest --max-diangles (and --polygonize-disc N) the CLI takes.
MAX_DIANGLES = 1024
# Bound on the raw words draw_atoms hashes for one chunk of trials.
DRAW_ENTRIES = 1 << 19


def _values(kind: str, atoms):
    """Per-trial (lhs, rhs, checked) from the zero-padded atoms of each trial's bodies.

    bm's vectors are u and v, the others' x = [u, v] (and y = [u', v']).
    The draw lays the bodies out in the order bodies.signed_atoms joins
    them, so the trial's one atom list for bodies.sweep_form is a reshape
    view of the draw's angles.  Each vector's weights are zero off its own
    atoms; a minus body's are negated as signed_atoms negates them (zero
    padding to -0.0).  A perimeter sums its vector's full row, zeros
    included: numpy sums a row pairwise, so its own atoms alone could differ.
    """
    angles, lengths, radii = atoms
    trials, count, m = angles.shape
    per = 1 if kind == "bm" else 2  # bodies per vector
    weights = np.zeros((trials, count // per, count * m))
    joint = weights.reshape(trials, count // per, count, m)
    for i in range(count):  # body i is vector i // per's, negated when i % per
        (np.negative if i % per else np.positive)(lengths[:, i], out=joint[:, i // per, i])
    del atoms, lengths  # free before the sweep, unless the caller holds them
    x = angles.reshape(trials, count * m), weights, radii if per == 1 else radii[:, ::2] - radii[:, 1::2]
    b = bodies.sweep_form(*x)
    all_checked = np.ones(trials, dtype=bool)
    if kind == "bm":  # area(u + v) = area(u) + 2 B(u, v) + area(v)
        mu, mv = b[:, 0, 0], b[:, 1, 1]
        return np.sqrt(mu + 2.0 * b[:, 0, 1] + mv), np.sqrt(mu) + np.sqrt(mv), all_checked
    o = perimeter(x)
    if kind == "iso":
        return o[:, 0] * o[:, 0], 4.0 * PI * b[:, 0, 0], all_checked
    mx, my, bxy = b[:, 0, 0], b[:, 1, 1], b[:, 0, 1]
    if kind == "bmgen":
        return bxy * bxy, mx * my, (mx > 0) & (my > 0)
    ox, oy = o[:, 0], o[:, 1]
    dx, dy = ox * ox - 4.0 * PI * mx, oy * oy - 4.0 * PI * my
    return np.sqrt(np.maximum(dx, 0.0)) * np.sqrt(np.maximum(dy, 0.0)), ox * oy - 4.0 * PI * bxy, all_checked


def campaign_values(kind: str, seed: int, trials: range, max_diangles: int = 10):
    """Per-trial (lhs, rhs, checked) of a campaign over the given trials.

    The inequality is lhs >= rhs on the trials where `checked` holds (bmgen
    skips vectors of nonpositive measure).  Body b of trial t has the atoms
    of body b in trial t's row of generators.draw_atoms, which depends on
    (seed, t) alone; a trial index outside [0, 2**64) raises DomainError.
    Each trial's bodies stay zero-padded to max_diangles, and every sum runs
    within one trial's row, so a trial's values are the same bits alone or
    in any batch.
    """
    return _values(kind, generators.draw_atoms(seed, trials, CAMPAIGN_BODIES[kind], max_diangles)[1:])


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


def _pair_sweep(u, v, phis, phase=fold):
    """Sorted points, S(x) = Σ_ij w_i w'_j |sin(x - c_ij)| at each, and the sort order.

    The points are the phases c_ij = phase(a_i - b_j) in [0, pi], then the phis in [0, pi] at
    weight 0, swept once by bodies.sweep_at: O(M log M) time, O(M) memory.  To first order, with
    P = Σ|w_u|Σ|w_v| and sin, cos within 1 ulp (Higham 2002, §4.2): rounding the points (a - b, the
    PI fold or np.mod adds, 0.56ε below pi, np.mod for a phi in [-pi, pi]) moves S by under 6εP;
    the terms w w' cos c, w w' sin c are off by 2ε|w w'|, the running sums by (M + 3)·ε/2·P, and
    sin_sweep makes (6M + 27)·ε/2·P in all: |2S - 2S_exact| <= E_s, pair_sweep_bound at r_u = 0.
    Not counted, with the default phase only: fold's move of a phase within ANGLE_TOL below pi to
    0, which singular_min keeps, as for its candidates; rotation_fn_F takes the phases mod pi,
    which moves none."""
    (ua, uw, _), (va, vw, _) = atoms_of(u), atoms_of(v)
    return bodies.sweep_at(phase(np.subtract.outer(ua, va).ravel()), np.multiply.outer(uw, vw).ravel(), phis)


def pair_sweep_bound(wu, ru, wv, points):
    """E_s of _pair_sweep over `points` points, plus the rounding of rotation_fn_F's disc term
    2 r_u Σw_v: a sum of k_v weights, a product and the add to 2S (0 for r_u = 0)."""
    return _eps_scaled(6 * points + 48, wu, 0.0, wv, 0.0) + (len(wv) + 2) * EPS * abs(ru) * np.abs(wv).sum()


def rotation_fn_F(u, v, phis) -> np.ndarray:
    """F at each phi, B(u, v turned by phi) = 2 S(phi mod pi) + 2 r_u Σw_v, S as in _pair_sweep; v is a
    zonogon.  For phi in [-pi, pi], F is within pair_sweep_bound(w_u, r_u, w_v, k_u k_v + len(phis))."""
    require_zonogon("rotation_fn_F", v)
    _, swept, order = _pair_sweep(u, v, np.mod(phis, PI), lambda d: np.mod(d, PI))
    values = np.empty(len(order))
    values[order] = swept
    return 2.0 * values[len(order) - len(phis) :] + 2.0 * (atoms_of(u)[2] * atoms_of(v)[1].sum())


def rotation_fn_E(u: Body, v: Body, phis) -> np.ndarray:
    """E at each phi: the area of u + rotate(v, phi), as area(u) + area(v) + 2 F."""
    return bodies.area(u) + bodies.area(v) + 2.0 * rotation_fn_F(u, v, phis)


def singular_candidates(u, v) -> np.ndarray:
    """Rotation angles aligning a diangle of v with one of u (Bodies or atom triples), the first of each group."""
    cands = np.sort(fold((atoms_of(u)[0][:, None] - atoms_of(v)[0][None, :]).ravel()))
    return cands[group_starts(cands)]


def singular_min(u, v) -> tuple[float, float]:
    """Minimize F over the finite candidate set; ties go to the smallest angle.

    u and v: Bodies or atom triples, zonogons with some diangle.  F is concave
    between the candidates (each group's first phase), so its minimum over [0, pi)
    is one of them.  Candidates whose F = 2S (_pair_sweep) is within 2E_s of the
    least tie, so atom order picks no winner.  F_min is atom_form's: 0 at equal angles."""
    require_zonogon("singular_min", u, v)
    (_, wu, _), (va, wv, _) = atoms_of(u), atoms_of(v)
    if not (len(wu) and len(wv)):
        raise DomainError("singular_min needs two nonempty zonogons")
    phases, swept, _ = _pair_sweep(u, v, np.empty(0))
    starts = group_starts(phases)
    values = 2.0 * swept[starts]
    tie = 2.0 * pair_sweep_bound(wu, 0.0, wv, len(phases))
    phi_star = phases[starts][np.argmax(values <= values.min() + tie)]  # the first, as the candidates ascend
    return float(phi_star), float(atom_form(*atoms_of(u), va + phi_star, wv, 0.0))


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
    require_zonogon("reduce_pair", u, v)
    angles, weights, _ = bodies.signed_atoms(u, v)
    k = len(u.angles)  # atoms [:k] are u's, [k:] are v's with weight -d
    steps: list[ReductionStep] = []
    while 0 < k < len(angles):
        phi_star, f_min = singular_min((angles[:k], weights[:k], 0.0), (angles[k:], -weights[k:], 0.0))
        # Rotate v's atoms in place (the arrays are this step's own), then one merge cancels.
        angles[k:] = fold(angles[k:] + phi_star)
        angles, weights, cancelled = merge_atoms(angles, weights, NEAR_CANCEL)
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
