"""Centrally symmetric convex bodies in the plane.

A body is a finite Minkowski sum of centered segments ("diangles") plus an
exact disc component.  It is stored as atoms: sorted arrays of direction
angles and half-lengths, plus the disc radius.  The closed forms (support,
perimeter, mixed area, sup norm) are written once, on a signed-atom triple
(angles, weights, radius), which a Body and a lifted vector both expose as
`.atoms`; area, width and Hausdorff distance are calls on them.  One
tolerance merge (merge_atoms) makes atoms canonical for bodies, lifted
vectors and the reduction alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, UnsupportedRepresentationError

PI = math.pi
ANGLE_TOL = 1e-12


def frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Body:
    """Canonical body: atoms sorted by direction plus a disc radius.

    `angles` lie in [0, pi), each more than ANGLE_TOL above the one before,
    and `lengths` are > 0; both are read-only float arrays.  Use
    canonicalize() / the helper constructors rather than building the
    dataclass directly from unsorted input.  Equality is exact.
    """

    angles: np.ndarray = ()
    lengths: np.ndarray = ()
    disc_radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "angles", frozen_array(self.angles))
        object.__setattr__(self, "lengths", frozen_array(self.lengths))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Body):
            return NotImplemented
        return (
            self.disc_radius == other.disc_radius
            and np.array_equal(self.angles, other.angles)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __hash__(self) -> int:
        return hash((tuple(self.angles.tolist()), tuple(self.lengths.tolist()), self.disc_radius))

    @property
    def atoms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Atoms (angles, weights, radius): the half-lengths are the weights."""
        return self.angles, self.lengths, self.disc_radius

    @property
    def is_origin(self) -> bool:
        return not len(self.angles) and self.disc_radius == 0.0

    def __add__(self, other: "Body") -> "Body":
        return minkowski_add(self, other)

    def __rmul__(self, lam: float) -> "Body":
        return scale(self, lam)


def group_starts(angles: np.ndarray) -> np.ndarray:
    """Mask of the angles of a sorted array that open a group.

    An angle opens a new group when it lies more than ANGLE_TOL above the
    first angle of the current group (the chained rule), so a group spans at
    most ANGLE_TOL however many angles it holds.
    """
    starts = np.empty(len(angles), dtype=bool)
    starts[:1] = True
    np.greater(angles[1:] - angles[:-1], ANGLE_TOL, out=starts[1:])
    # Only a run of three or more close angles can hold one past its group's span.
    while np.count_nonzero(starts[:-1] | starts[1:]) < len(angles) - 1:
        first = np.maximum.accumulate(np.where(starts, np.arange(len(angles)), 0))
        far = angles - angles[first] > ANGLE_TOL
        if not np.count_nonzero(far):
            break
        # The far angles of a group form a run; the run's first opens a group.
        starts[1:] |= far[1:] & ~far[:-1]
    return starts


def merge_atoms(angles: np.ndarray, weights: np.ndarray, near: float = 0.0):
    """The tolerance merge of signed atoms (folded angle, finite weight).

    Sorts the atoms by (angle, weight), groups them by group_starts and sums
    each group's weights in that order.  Drops a group whose |sum| is at
    most `near` times its largest |weight| (for near = 0: a zero sum).  A
    kept group takes the angle of its first atom, or of its second when the
    first has the opposite sign of the sum; a group of one canonical body's
    atoms with + and another's with - holds at most one of each.  Returns
    the kept (angles, sums), sorted, and the angle of the positive atom
    where the weights first change sign in a group, or None.
    """
    order = np.lexsort((weights, angles))
    a, w = angles[order], weights[order]
    # Every gap apart (a NaN gap is not): each atom is its own group, and its |sum| is its peak.
    if (a[1:] - a[:-1] > ANGLE_TOL).all():
        keep = w != 0.0
        return a[keep], w[keep], None
    starts = group_starts(a)
    first = starts.nonzero()[0]
    sums = np.zeros(len(first))
    np.add.at(sums, np.add.accumulate(starts, dtype=np.intp) - 1, w)  # in order: (w1 + w2) + w3 ...
    if np.count_nonzero(np.isfinite(sums)) < len(sums):
        raise InvalidInputError("merged half_length overflows to inf")
    keep = np.abs(sums) > near * np.maximum.reduceat(np.abs(w), first)
    negative = w < 0.0
    pick = first + (negative[first] != (sums < 0.0))
    turn = ((negative[1:] != negative[:-1]) & ~starts[1:]).nonzero()[0]
    shared = float(a[turn[0] + negative[turn[0]]]) if len(turn) else None
    return a[pick[keep]], sums[keep], shared


def fold(angles: np.ndarray) -> np.ndarray:
    """Angles mod pi in [0, pi); within ANGLE_TOL below pi goes to 0, so no
    group wraps around, and -0.0 goes to +0.0."""
    folded = np.fmod(angles, PI)
    folded += np.where(folded < 0.0, PI, 0.0)  # -0.0 + 0.0 is +0.0
    folded[PI - folded <= ANGLE_TOL] = 0.0
    return folded


def canonicalize(angles, lengths, disc_radius: float = 0.0) -> Body:
    """Body from raw atoms: fold mod pi, merge parallel atoms, drop zero lengths, sort."""
    angles = np.asarray(angles, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    ok = np.isfinite(angles) & np.isfinite(lengths) & (lengths >= 0.0)
    if np.count_nonzero(ok) < len(ok):
        i = int(np.argmin(ok))
        raise InvalidInputError(f"diangle needs a finite angle and half_length >= 0, got ({angles[i]}, {lengths[i]})")
    if not math.isfinite(disc_radius) or disc_radius < 0.0:
        raise InvalidInputError(f"disc radius must be >= 0, got {disc_radius}")
    a, w, _ = merge_atoms(fold(angles), lengths)
    return Body(a, w, float(disc_radius))


def body(diangle_pairs: Sequence[tuple[float, float]], disc_radius: float = 0.0) -> Body:
    """Body from (angle, half_length) pairs."""
    atoms = np.asarray(diangle_pairs, dtype=float).reshape(-1, 2)
    return canonicalize(atoms[:, 0], atoms[:, 1], disc_radius)


def segment(angle: float, half_length: float) -> Body:
    return body([(angle, half_length)])


def disc(radius: float) -> Body:
    return canonicalize([], [], radius)


def disc_polygon(r: float, n: int) -> Body:
    """Circumscribed regular 2n-gon around the disc of radius r, as a Body."""
    if n < 2:
        raise InvalidInputError(f"disc_polygon needs n >= 2, got {n}")
    if r < 0:
        raise InvalidInputError(f"radius must be >= 0, got {r}")
    d = r * math.tan(PI / (2 * n))
    return body([(k * PI / n, d) for k in range(n)])


ORIGIN = Body()
UNIT_DISC = Body(disc_radius=1.0)
UNIT_SQUARE = body([(0.0, 0.5), (PI / 2, 0.5)])


def minkowski_add(a: Body, b: Body) -> Body:
    return canonicalize(
        np.concatenate([a.angles, b.angles]), np.concatenate([a.lengths, b.lengths]), a.disc_radius + b.disc_radius
    )


def scale(a: Body, lam: float) -> Body:
    if not math.isfinite(lam) or lam < 0.0:
        raise InvalidInputError(f"scale factor must be >= 0, got {lam} (negation lives in the lifted space)")
    return canonicalize(a.angles, lam * a.lengths, lam * a.disc_radius)


def rotate(a: Body, phi: float) -> Body:
    return canonicalize(a.angles + phi, a.lengths, a.disc_radius)


def support(a, theta: float) -> float:
    """h(theta) of a Body, a LiftedVector or an atom triple."""
    return float(support_many(a, np.array([theta]))[0])


def atoms_of(x) -> tuple:
    """The (angles, weights, radius) of a Body or LiftedVector; a triple as it is."""
    return x if isinstance(x, tuple) else x.atoms


def require_zonogon(what: str, *xs) -> None:
    """The one pure-zonogon check: UnsupportedRepresentationError if any of xs has a disc."""
    if any(atoms_of(x)[2] for x in xs):
        raise UnsupportedRepresentationError(f"{what} requires a pure zonogon; polygonize the disc first")


def signed_atoms(plus, minus) -> tuple[np.ndarray, np.ndarray, float]:
    """Signed atoms (angles, weights, radius) of [plus, minus]: plus's atoms
    with +, minus's with -, radius r_P - r_M.

    The one place the sign convention is written.  plus and minus are Bodies
    or atom triples, batched over leading axes; atoms are joined along the
    last axis.
    """
    (pa, pw, pr), (ma, mw, mr) = atoms_of(plus), atoms_of(minus)
    return np.concatenate([pa, ma], axis=-1), np.concatenate([pw, -mw], axis=-1), pr - mr


def support_many(a, thetas: np.ndarray) -> np.ndarray:
    """Support function sum(w_j |cos(theta - theta_j)|) + r at each theta.

    `a` is a Body, a LiftedVector (whose support is h_plus - h_minus) or an
    atom triple, batched over leading axes: angles and weights (..., k),
    radius (...), thetas (..., m) give (..., m).
    """
    angles, weights, radius = atoms_of(a)
    cosines = np.abs(np.cos(np.asarray(thetas, dtype=float)[..., :, None] - angles[..., None, :]))
    return (cosines @ weights[..., :, None])[..., 0] + np.asarray(radius)[..., None]


def width(a: Body, phi: float) -> float:
    """Distance between the two supporting lines parallel to direction phi."""
    return 2.0 * support(a, phi + PI / 2)


def atom_form(a1, w1, r1, a2, w2, r2):
    """Mixed area of two signed atom vectors, batched over leading axes.

    A vector is atoms (angle, weight) plus a disc radius, as `.atoms` gives
    them for a Body or a LiftedVector.  The form is

        B(x, y) = 2 w1ᵀ|sin(a1 - a2ᵀ)|w2 + 2 r1 Σw2 + 2 r2 Σw1 + π r1 r2,

    so area is B(x, x) and measure_ext is B(x, x) on the lifted atoms.
    Angles and weights have shape (..., k); radii have shape (...).  Each
    batch item gets its own matrix-vector products, so its value does not
    depend on the other items in the batch.  Each |sin(a - b)| is taken as
    |sin a cos b - cos a sin b|, one sin and cos per atom (per vector when
    a2 is a1).  With sin and cos within 1 ulp, B is off by at most
    (k1 + k2 + 16)·ε·(Σ|w1|Σ|w2| + |r1|Σ|w2| + |r2|Σ|w1| + |r1 r2|), k1 and
    k2 the atom counts and ε the machine epsilon, and equal angles give
    exactly 0.
    """
    a1, w1 = np.asarray(a1, dtype=float), np.asarray(w1, dtype=float)
    a2, w2 = np.asarray(a2, dtype=float), np.asarray(w2, dtype=float)
    s1, c1 = np.sin(a1), np.cos(a1)
    s2, c2 = (s1, c1) if a2 is a1 else (np.sin(a2), np.cos(a2))
    sines = s1[..., :, None] * c2[..., None, :]
    sines -= c1[..., :, None] * s2[..., None, :]
    cross = (w1[..., None, :] @ np.abs(sines, out=sines) @ w2[..., :, None])[..., 0, 0]
    return 2.0 * cross + 2.0 * (r1 * w2.sum(-1) + r2 * w1.sum(-1)) + PI * r1 * r2


def sin_sweep(angles, weights):
    """Σ_j w_j |sin(a_i - a_j)| at every a_i, in O(k) for sorted angles.

    The angles ascend in [0, pi) along the last axis; angles and weights are
    batched over leading axes.  |sin(a_i - a_j)| is sin a_i cos a_j - cos a_i
    sin a_j for j <= i and its negative for j > i, so each value is the
    running sums of w cos and w sin up to and including i, less the rest.
    """
    sin, cos = np.sin(angles), np.cos(angles)
    below_cos = np.cumsum(weights * cos, axis=-1)
    below_sin = np.cumsum(weights * sin, axis=-1)
    return sin * (2.0 * below_cos - below_cos[..., -1:]) + cos * (below_sin[..., -1:] - 2.0 * below_sin)


def sweep_form(angles, weights, radii):
    """Mixed areas B(x_p, x_q) of c signed atom vectors on one list of atoms,
    batched over leading axes, in O(c²k + k log k) time and O(ck) memory.

    The atoms have angles (..., k) in [0, pi), in any order, and k >= 1.
    Vector p gives atom i the weight weights[..., p, i] (0 where the atom is
    not one of its own) and has the disc radius radii[..., p].  Returns the
    (..., c, c) array of B(x_p, x_q), B as in atom_form; B(x_p, x_p) is the
    area or measure_ext of x_p.

    Each item's atoms are sorted once, stably.  A pair j, i with a_j before
    a_i is taken once, later angle first: sin(a_i - a_j) >= 0, so
    Σ_{j<i} w_j |sin(a_i - a_j)| = sin a_i C_i - cos a_i S_i, with C and S
    the running sums of w cos and w sin over the atoms before i.  These
    exclusive sums make a lone atom's B exactly 0.  Every sum runs one term
    at a time in sorted order, so atoms of weight 0 (zero padding) move no
    bit of a value.

    Error bound, to first order in ε, the machine epsilon, with sin and cos
    within 1 ulp (running sums as in Higham 2002, *Accuracy and Stability of
    Numerical Algorithms*, §4.2).  Let W_i be the Σ|w| of one vector's atoms
    before atom i.  Each running sum read at i is off by at most
    (i + 2)·ε/2·W_i, so a row sin a_i C_i - cos a_i S_i is off by at most
    (0.71 i + 3.5)·ε·W_i, and its product with w_i and the sum over the rows
    add k·ε/2·|w_i|·W_i more.  With the disc terms and π's rounding,

        |B - B_exact| <= (3k + 10)·ε·(Σ|w_p|Σ|w_q| + |r_p|Σ|w_q| + |r_q|Σ|w_p| + |r_p r_q|),

    k the number of atoms to which x_p or x_q gives a nonzero weight.  A
    row's error scales with the W_i before it, so when the weights are
    positive and any two angles lie more than (0.71k + 3.5)·ε apart mod pi,
    every row is nonnegative and so is the area, whatever the weights.

    The sums run down the atom axis: the sorted atoms lie along axis 0 and
    the flattened batch along the last, fast axis.  numpy sums pairwise
    only when the summed axis is the fast one, so here each running sum (a
    cumsum) and each total (an add.reduce from -0.0, so that a sum of -0.0
    keeps its sign) adds one atom at a time in sorted order: the bits of a
    loop over the atoms, in a few numpy calls per vector for the whole
    batch.  Every array has one more column on the fast axis, an atom of
    weight 0.  It keeps a lone item (an unbatched call, or one trial
    replayed alone) on the same path, where numpy would sum a single
    column's totals pairwise from 8 atoms, and every operand contiguous, so
    numpy's ufuncs take no buffers.  The vectors are swept one at a time in
    shared buffers, so no (c, c, k) array per item is built.
    """
    *batch, c, k = np.shape(weights)
    n = math.prod(batch)
    if not n:  # an empty batch: no atom for the last column to read
        return np.zeros((*batch, c, c))
    # (k, n + 1): the flat index of each item's sorted angles, atoms first, then atom 0 at weight 0
    at = np.zeros((k, n + 1), dtype=np.intp)
    at[:, :n] = np.argsort(np.reshape(angles, (n, k)), axis=-1, kind="stable").T + k * np.arange(n)
    a = np.ravel(angles)[at]
    w = np.empty((c, k, n + 1))
    at[:, :n] += (c - 1) * k * np.arange(n)  # now the flat index of its weight in vector 0
    for p in range(c):
        w[p] = np.ravel(weights)[at + p * k]
    w[..., n] = 0.0
    del at
    sin, cos = np.sin(a), np.cos(a, out=a)
    once = np.empty((c, c, n + 1))
    sums = np.empty((2, k, n + 1))
    for q in range(c):
        # C and S of x_q: the running sums of w cos and w sin over the atoms before each atom
        sums[:, 0] = 0.0
        np.multiply(w[q, :-1], cos[:-1], out=sums[0, 1:])
        np.multiply(w[q, :-1], sin[:-1], out=sums[1, 1:])
        np.cumsum(sums[:, 1:], axis=1, out=sums[:, 1:])
        below = np.multiply(sin, sums[0], out=sums[0])  # Σ_{j<i} w_j sin(a_i - a_j) over x_q's atoms j
        below -= np.multiply(cos, sums[1], out=sums[1])
        for p in range(c):
            # once[p, q]: the pairs of an atom of x_p with an earlier atom of x_q
            np.add.reduce(np.multiply(w[p], below, out=sums[1]), axis=0, out=once[p, q], initial=-0.0)
    once = once[..., :n]
    r = np.reshape(radii, (n, c)).T
    disc = r[:, None] * np.add.reduce(w, axis=1, initial=-0.0)[None, :, :n]
    pairs = PI * r[:, None] * r[None, :]
    b = 2.0 * (once + np.swapaxes(once, 0, 1)) + 2.0 * (disc + np.swapaxes(disc, 0, 1)) + pairs
    return np.moveaxis(b, -1, 0).reshape(*batch, c, c)


def area(a: Body) -> float:
    return float(atom_form(*a.atoms, *a.atoms))


def perimeter(a):
    """4 Σw + 2πr of a Body, a LiftedVector (perimeter_ext) or an atom triple, batched over leading axes."""
    _, weights, radius = atoms_of(a)
    return 4.0 * weights.sum(-1) + 2.0 * PI * radius


def mixed_area(a: Body, b: Body) -> float:
    """Bilinear polarization of area: (area(a+b) - area(a) - area(b)) / 2."""
    return float(atom_form(*a.atoms, *b.atoms))


def vertices(a: Body) -> np.ndarray:
    """Counterclockwise vertices of a pure zonogon, as read-only (n, 2) rows.

    The walk starts at minus the sum of the half-edges and adds the edges in
    order, each coordinate summed as its own 1-D array.
    """
    require_zonogon("vertices", a)
    if not len(a.angles):
        return frozen_array([[0.0, 0.0]])
    ux = a.lengths * np.cos(a.angles)
    uy = a.lengths * np.sin(a.angles)
    edges = 2.0 * np.column_stack([ux, uy])
    walk = np.concatenate([[[-ux.sum(), -uy.sum()]], edges, -edges[:-1]])
    verts = np.cumsum(walk, axis=0)
    verts.flags.writeable = False
    return verts


def sup_norm(a) -> float:
    """sup over directions of |h| for a Body, a LiftedVector or an atom triple; exact.

    Between consecutive kinks theta = angle + pi/2, h is
    A cos(theta) + B sin(theta) + r, whose |.| peaks at a kink or at
    atan2(B, A) mod pi (h is pi-periodic).  All intervals are done at once,
    so the sup is a max over finitely many angles, with no sampling grid.
    """
    angles, weights, _ = atoms_of(a)
    thetas = np.array([0.0])
    if len(angles):
        kinks = np.sort(np.mod(angles + PI / 2, PI))
        kinks = kinks[np.concatenate(([True], kinks[1:] != kinks[:-1]))]
        mids = 0.5 * (kinks + np.concatenate((kinks[1:], kinks[:1] + PI)))
        signs = np.sign(np.cos(mids[:, None] - angles))
        A = signs @ (weights * np.cos(angles))
        B = signs @ (weights * np.sin(angles))
        moving = (A != 0.0) | (B != 0.0)
        thetas = np.concatenate([kinks, np.mod(np.arctan2(B[moving], A[moving]), PI)])
    return float(np.abs(support_many(a, thetas)).max())


def hausdorff(a: Body, b: Body) -> float:
    """sup over directions of |h_a - h_b| (Hausdorff distance of convex bodies)."""
    return sup_norm(signed_atoms(a, b))
