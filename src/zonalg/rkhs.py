"""Reproducing-kernel structure on [0, pi].

Evaluation of a lifted vector at phi is the support-function difference at
the normal direction, E_phi(x) = h_plus(phi + pi/2) - h_minus(phi + pi/2);
with the normalized inner product this equals <x, k_phi> for the kernel
vector k_phi = [2B, (pi/2) I^phi], giving the kernel
K(phi, psi) = 2 - (pi/2) sin|phi - psi|.
"""

from __future__ import annotations

import numpy as np

from . import bodies
from .bodies import PI, frozen_array, json_number, segment, support_many
from .errors import DomainError, InvalidInputError, NumericError
from .lifted import LiftedVector, lift

# Most nodes the kernel commands take, on a grid or from a file; `kernel
# gram` at this size peaks near 0.35 GB, and it caps the bisection of
# `grid_eigenvalues` at (MAX_NODES / 2)**2 entries per step.
MAX_NODES = 2048


def _check_domain(phi) -> None:
    phi = np.asarray(phi, dtype=float)
    outside = phi[~((phi >= 0.0) & (phi <= PI))]
    if outside.size:
        raise DomainError(f"angle {float(outside[0])} outside [0, pi]; reduce mod pi first")


def kernel(phi, psi):
    """K(phi, psi) = 2 - (pi/2) sin|phi - psi|, broadcast over arrays; a float for two floats."""
    _check_domain(phi)
    _check_domain(psi)
    k = 2.0 - (PI / 2.0) * np.sin(np.abs(np.subtract(phi, psi, dtype=float)))
    return k if k.ndim else float(k)


def kernel_vector(phi: float) -> LiftedVector:
    """The lifted vector [2B, (pi/2) I^phi] representing evaluation at phi."""
    _check_domain(phi)
    return lift(bodies.disc(2.0), segment(phi, PI / 2.0))


def evaluate(x: LiftedVector, phi: float) -> float:
    """Support difference at the normal of phi; equals inner(x, kernel_vector(phi))."""
    _check_domain(phi)
    return bodies.support(x.atoms, phi + PI / 2.0)


def width_function_from_dict(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, values) of a width function's JSON, as read-only float arrays."""
    try:
        nodes = [json_number(n) for n in obj["nodes"]]
        values = [json_number(v) for v in obj["values"]]
    except KeyError as exc:
        raise InvalidInputError(f"width function JSON missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"width function JSON malformed: {exc}") from exc
    if len(nodes) != len(values):
        raise InvalidInputError("nodes and values must have equal length")
    return frozen_array(nodes), frozen_array(values)


def sample(x: LiftedVector, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, values) of x on the uniform n-point grid over [0, pi], read-only.

    The end node pi is the circle point 0, so it takes the first sample. (A
    second evaluation at 0 may round differently: the matrix-vector product
    need not sum every row in the same order.)
    """
    if n < 2:
        raise InvalidInputError(f"need n >= 2 grid points, got {n}")
    nodes = np.linspace(0.0, PI, n)
    values = support_many(x.atoms, nodes[:-1] + PI / 2.0)
    return frozen_array(nodes), frozen_array(np.append(values, values[0]))


def gram(nodes) -> np.ndarray:
    """Kernel matrix of at most MAX_NODES nodes, read-only; positive semidefinite by construction."""
    arr = np.array(nodes, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError("gram nodes must be a flat sequence of angles")
    if len(arr) > MAX_NODES:
        raise InvalidInputError(f"at most {MAX_NODES} kernel nodes, got {len(arr)}")
    mat = kernel(arr[:, None], arr[None, :])
    if len(arr) >= 2 and np.min(np.diff(np.sort(arr))) <= 1e-12:
        raise InvalidInputError("gram nodes must be distinct (separation > 1e-12)")
    mat.setflags(write=False)
    return mat


def grid_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues, ascending, of gram(linspace(0, pi, n)), without forming it.

    K is circulant on R/piZ, and the grid visits 0 = pi twice, so its Gram
    matrix is P C P^T: C is the circulant of c_k = K(0, k pi/m) on m = n - 1
    nodes and P repeats node 0. Its nonzero spectrum is that of
    C^(1/2) (I + e_0 e_0^T) C^(1/2), a rank-one update of C. In the Fourier
    basis C is diag(mu), mu = rfft(c), and the update has weight mu/m on each
    mode. So the spectrum is 0 (the repeated node), one copy of each doubled
    mu (the update meets one vector of its plane), and one root of
    1 + sum mult * mu / (m (mu - lam)) per distinct mu (Golub 1973).
    """
    if not 1 <= n <= MAX_NODES:
        raise InvalidInputError(f"grid size must be in [1, {MAX_NODES}], got {n}")
    if n == 1:
        return np.array([2.0])
    m = n - 1
    mu = np.fft.rfft(kernel(0.0, np.arange(m) * (PI / m))).real
    mult = np.full(len(mu), 2.0)
    mult[0] = 1.0
    if m % 2 == 0:
        mult[-1] = 1.0  # the Nyquist mode is real
    order = np.argsort(mu)
    poles, weights = mu[order], (mult * mu / m)[order]
    # The secular function rises from -inf to +inf between poles and to 1
    # above the last one, where sum(weights) bounds the root's distance.
    lo = poles.copy()
    hi = np.append(poles[1:], poles[-1] + weights.sum())
    while True:
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((lo < mid) & (mid < hi))
        if not live.size:
            break
        x = mid[live]
        below = 1.0 + (weights / (poles - x[:, None])).sum(axis=1) < 0.0
        lo[live[below]] = x[below]
        hi[live[~below]] = x[~below]
    return np.sort(np.concatenate([[0.0], mu[mult == 2.0], hi]))


def interpolate(nodes, values, ridge: float = 0.0) -> np.ndarray:
    """Coefficients a solving (G + ridge*I) a = values; the fitted function
    is phi -> sum_i a_i * kernel(nodes_i, phi)."""
    if ridge < 0:
        raise InvalidInputError(f"ridge must be >= 0, got {ridge}")
    g = gram(nodes)
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
