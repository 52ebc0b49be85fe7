"""Reproducing-kernel structure on [0, pi].

Evaluation of a lifted vector at phi is the support-function difference at
the normal direction, E_phi(x) = h_plus(phi + pi/2) - h_minus(phi + pi/2);
with the normalized inner product this equals <x, k_phi> for the kernel
vector k_phi = [2B, (pi/2) I^phi], giving the kernel
K(phi, psi) = 2 - (pi/2) sin|phi - psi|.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import bodies, lifted
from .bodies import PI, Body, segment, support_many
from .errors import DomainError, InvalidInputError, NumericError
from .lifted import LiftedVector, lift

JACOBI_EPS = 1e-12


def _check_domain(phi: float) -> None:
    if not (0.0 <= phi <= PI):
        raise DomainError(f"angle {phi} outside [0, pi]; reduce mod pi first")


def kernel(phi: float, psi: float) -> float:
    """K(phi, psi) = 2 - (pi/2) sin|phi - psi|."""
    _check_domain(phi)
    _check_domain(psi)
    return 2.0 - (PI / 2.0) * math.sin(abs(phi - psi))


def kernel_vector(phi: float) -> LiftedVector:
    """The lifted vector [2B, (pi/2) I^phi] representing evaluation at phi."""
    _check_domain(phi)
    return lift(bodies.disc(2.0), segment(phi, PI / 2.0))


def evaluate(x: LiftedVector, phi: float) -> float:
    """Support difference at the normal of phi; equals inner(x, kernel_vector(phi))."""
    _check_domain(phi)
    theta = phi + PI / 2.0
    return bodies.support(x.plus, theta) - bodies.support(x.minus, theta)


def evaluate_many(x: LiftedVector, phis: np.ndarray) -> np.ndarray:
    thetas = np.asarray(phis, dtype=float) + PI / 2.0
    return support_many(x.plus, thetas) - support_many(x.minus, thetas)


@dataclass(frozen=True)
class WidthFunction:
    nodes: tuple[float, ...]
    values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes), "values": list(self.values)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(repr(n) for n in self.nodes) + "\n")
        buf.write(",".join(repr(v) for v in self.values) + "\n")
        return buf.getvalue()


def width_function_from_dict(obj: dict) -> WidthFunction:
    try:
        nodes = tuple(float(n) for n in obj["nodes"])
        values = tuple(float(v) for v in obj["values"])
    except KeyError as exc:
        raise InvalidInputError(f"width function JSON missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"width function JSON malformed: {exc}") from exc
    if len(nodes) != len(values):
        raise InvalidInputError("nodes and values must have equal length")
    return WidthFunction(nodes, values)


def sample(x: LiftedVector, n: int) -> WidthFunction:
    """Evaluate x on the uniform n-point grid over [0, pi]."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2 grid points, got {n}")
    nodes = np.linspace(0.0, PI, n)
    values = evaluate_many(x, nodes)
    return WidthFunction(tuple(map(float, nodes)), tuple(map(float, values)))


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel matrix of a node set; `nodes` and `entries` are read-only float arrays."""

    nodes: np.ndarray
    entries: np.ndarray

    @property
    def array(self) -> np.ndarray:
        return self.entries

    def to_csv(self) -> str:
        # Format each distinct double once. The key is the bit pattern, so 0.0
        # and -0.0 keep their own text.
        distinct, index = np.unique(self.entries.view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
        lines = [",".join(map(repr, self.nodes.tolist()))]
        lines += [",".join(row) for row in text[index.reshape(self.entries.shape)].tolist()]
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"nodes": self.nodes.tolist(), "entries": self.entries.tolist()}


def gram(nodes) -> GramMatrix:
    """Kernel matrix of a node set; positive semidefinite by construction."""
    arr = np.array(nodes, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError("gram nodes must be a flat sequence of angles")
    outside = ~((arr >= 0.0) & (arr <= PI))
    if outside.any():
        _check_domain(float(arr[outside][0]))
    if len(arr) >= 2:
        srt = np.sort(arr)
        if np.min(np.diff(srt)) <= 1e-12:
            raise InvalidInputError("gram nodes must be distinct (separation > 1e-12)")
    mat = 2.0 - (PI / 2.0) * np.sin(np.abs(arr[:, None] - arr[None, :]))
    arr.setflags(write=False)
    mat.setflags(write=False)
    return GramMatrix(arr, mat)


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


def psd_min_eig(g: GramMatrix | np.ndarray) -> float:
    """Smallest eigenvalue via round-robin Jacobi."""
    mat = g.array if isinstance(g, GramMatrix) else np.asarray(g, dtype=float)
    return float(jacobi_eigenvalues(mat)[0])


def interpolate(nodes, values, ridge: float = 0.0) -> np.ndarray:
    """Coefficients a solving (G + ridge*I) a = values; the fitted function
    is phi -> sum_i a_i * kernel(nodes_i, phi)."""
    if ridge < 0:
        raise InvalidInputError(f"ridge must be >= 0, got {ridge}")
    g = gram(nodes).array
    vals = np.asarray(list(values), dtype=float)
    if len(vals) != g.shape[0]:
        raise InvalidInputError("nodes and values must have equal length")
    system = g + ridge * np.eye(g.shape[0])
    try:
        chol = np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise NumericError("kernel system is singular; retry with ridge > 0") from exc
    y = np.linalg.solve(chol, vals)
    return np.linalg.solve(chol.T, y)


def interpolant(nodes, coeffs):
    """The fitted function phi -> sum_i a_i K(nodes_i, phi)."""
    arr = np.asarray(list(nodes), dtype=float)
    a = np.asarray(coeffs, dtype=float)

    def fitted(phi: float) -> float:
        return float(np.sum(a * (2.0 - (PI / 2.0) * np.sin(np.abs(arr - phi)))))

    return fitted
