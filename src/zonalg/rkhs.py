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
from .bodies import PI, frozen_array, segment, sin_sweep, support_many
from .errors import DomainError, InvalidInputError, NumericError
from .lifted import LiftedVector, lift

# Most nodes the kernel commands take, on a grid or from a file; `kernel
# gram` at this size peaks at 384 MiB of RSS as JSON and 174 MiB as CSV
# (tracemalloc: 320 and 144 MiB), and it caps the bisection of
# `grid_eigenvalues` at (MAX_NODES / 2)**2 entries per step.
MAX_NODES = 2048

# The part of pi that PI rounds off. sin(x) of a float x near pi is exactly
# pi - x, so the gap from x across the wrap to 0 is (PI - x) + PI_TAIL.
PI_TAIL = 1.2246467991473532e-16
# Above this ridge G, with ||G||_inf <= 2 * MAX_NODES, is under 5e-6 of
# ridge * I, and interpolation starts from values / ridge (see _green_solver).
BIG_RIDGE = 1e9


def _check_domain(phi) -> None:
    phi = np.asarray(phi, dtype=float)
    outside = phi[~((phi >= 0.0) & (phi <= PI))]
    if outside.size:
        raise DomainError(f"angle {float(outside[0])} outside [0, pi]; reduce mod pi first")


def kernel(phi, psi):
    """K(phi, psi) = 2 - (pi/2) sin|phi - psi|, broadcast over arrays; a float for two floats."""
    _check_domain(phi)
    _check_domain(psi)
    k = np.asarray(np.subtract(phi, psi, dtype=float))  # one buffer; the steps below run in it
    np.abs(k, out=k)
    np.sin(k, out=k)
    np.multiply(PI / 2.0, k, out=k)
    np.subtract(2.0, k, out=k)
    return k if k.ndim else float(k)


def kernel_vector(phi: float) -> LiftedVector:
    """The lifted vector [2B, (pi/2) I^phi] representing evaluation at phi."""
    _check_domain(phi)
    return lift(bodies.disc(2.0), segment(phi, PI / 2.0))


def evaluate(x: LiftedVector, phi: float) -> float:
    """Support difference at the normal of phi, pi read as the circle point 0; equals inner(x, kernel_vector(phi))."""
    _check_domain(phi)
    return bodies.support(x.atoms, (0.0 if phi == PI else phi) + PI / 2.0)


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


def _nodes(nodes) -> np.ndarray:
    """Kernel nodes as a float array: flat, at most MAX_NODES, in [0, pi] and distinct on the line."""
    arr = np.array(nodes, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError("gram nodes must be a flat sequence of angles")
    if len(arr) > MAX_NODES:
        raise InvalidInputError(f"at most {MAX_NODES} kernel nodes, got {len(arr)}")
    _check_domain(arr)
    if len(arr) >= 2 and np.min(np.diff(np.sort(arr))) <= 1e-12:
        raise InvalidInputError("gram nodes must be distinct (separation > 1e-12)")
    return arr


def gram(nodes) -> np.ndarray:
    """Kernel matrix of at most MAX_NODES nodes, read-only; positive semidefinite by construction."""
    arr = _nodes(nodes)
    mat = kernel(arr[:, None], arr[None, :])
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


def _gram_apply(theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """G c for ascending circle points theta in [0, pi), by bodies.sin_sweep."""
    return 2.0 * c.sum() - (PI / 2.0) * sin_sweep(theta, c)


def _green_inverse(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weight, t1) with S^-1 = -L + diag(t1) for S = |sin(t_i - t_j)| on m >= 2
    distinct ascending circle points theta in [0, pi).

    L is the Laplacian of the cycle whose edge i, from point i to i + 1 (mod m)
    across the gap h_i, has weight 1/(2 sin h_i); t1 = S^-1 1 is
    (tan(h_(i-1)/2) + tan(h_i/2))/2. So S^-1 is cyclic tridiagonal,
    S^-1_(i,i+1) = 1/(2 sin h_i) and S^-1_ii = -(cot h_(i-1) + cot h_i)/2,
    the two entries of a pair adding up when m = 2.
    """
    gaps = np.empty(len(theta))
    gaps[:-1] = np.diff(theta)
    gaps[-1] = (PI - theta[-1]) + theta[0] + PI_TAIL
    half = 0.5 * np.tan(gaps / 2.0)
    return 0.5 / np.sin(gaps), half + np.roll(half, 1)


def _inverse_times(weight: np.ndarray, t1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S^-1 x from _green_inverse's parts, each edge's difference taken first."""
    lx = weight * (np.roll(x, -1) - x)
    return lx - np.roll(lx, 1) + t1 * x


def _green_solver(theta: np.ndarray, w: np.ndarray, ridge: float):
    """solve(vbar) -> b with (G + ridge W^-1) b = vbar, in O(m), on m distinct
    ascending circle points theta in [0, pi) of multiplicities w.

    (d^2/dphi^2 + 1)|sin phi| = 2 sum_k delta(phi - k pi): |sin|/2 is the
    Green's function of d^2/dphi^2 + 1 on R/piZ, so S = |sin(t_i - t_j)| has
    a cyclic tridiagonal inverse T = -L + diag(t1) (_green_inverse). Since
    G = 2 11^T - (pi/2) S, multiplying by T leaves M y = -T(vbar - 2 sigma 1)
    with b = W y, sigma = sum(b) and
    M = (pi/2) W - ridge T = ridge L + diag((pi/2) w - ridge t1),
    which _cycle_solver eliminates; a Sherman-Morrison step solves for sigma.

    Above BIG_RIDGE the first guess is b = W vbar / ridge instead: opening the
    cycle of M/ridge -> -T leaves a path matrix that tends to singular (any
    tridiagonal T with its corner removed is singular, as sin(t + c) solves
    each interior row), so that solve loses about eps * ridge.
    """
    m = len(theta)
    if m == 1:  # S = [0]; the system is the scalar (2 + ridge/w) b = vbar
        return lambda vbar: vbar / (2.0 + ridge / w)
    if ridge > BIG_RIDGE:
        return lambda vbar: w * vbar / ridge
    weight, t1 = _green_inverse(theta)
    if m == 2:
        # T = [[0, 1/sin h], [1/sin h, 0]], both edges joining the pair: M is a 2x2 solved outright.
        d, k = (PI / 2.0) * w, ridge * (weight[0] + weight[1])
        det = d[0] * d[1] - k * k

        def m_solve(r):
            return np.array([d[1] * r[0] + k * r[1], k * r[0] + d[0] * r[1]]) / det

    else:
        m_solve = _cycle_solver(ridge * weight, (PI / 2.0) * w - ridge * t1, int(np.argmin(weight)))
    q = -w * m_solve(t1)
    den = 1.0 + 2.0 * q.sum()

    def solve(vbar):
        p = -w * m_solve(_inverse_times(weight, t1, vbar))
        return p - (2.0 * p.sum() / den) * q

    return solve


def _cycle_solver(k: np.ndarray, excess: np.ndarray, cut: int):
    """x -> A^-1 x for A = (Laplacian of the cycle with edge weights k) + diag(excess).

    Edge i joins nodes i and i + 1 (mod m). The cycle is opened at edge `cut`
    (the weakest), the path eliminated with edge weights and row excesses kept
    apart, as series resistors combine (a pivot is k_i + carried excess, so a
    strong edge, a tight gap, loses nothing to cancellation), and the cut edge
    added back by Sherman-Morrison.
    """
    m = len(k)
    rot = np.roll(np.arange(m), -(cut + 1))
    k, excess = k[rot].tolist(), excess[rot].tolist()
    pivots, ratios = [], []
    carried = excess[0]
    for i in range(m - 1):
        pivot = k[i] + carried
        pivots.append(pivot)
        ratios.append(k[i] / pivot)
        carried = excess[i + 1] + ratios[i] * carried
    pivots.append(carried)

    def path_solve(r):
        g = [r[0]]
        for i in range(m - 1):
            g.append(r[i + 1] + ratios[i] * g[i])
        x = [g[-1] / pivots[-1]]
        for i in range(m - 2, -1, -1):
            x.append(g[i] / pivots[i] + ratios[i] * x[-1])
        return np.array(x[::-1])

    k_cut = k[-1]
    z = path_solve([1.0] + [0.0] * (m - 2) + [-1.0])
    z_den = 1.0 + k_cut * (z[0] - z[-1])
    back = np.empty(m, dtype=int)
    back[rot] = np.arange(m)

    def solve(r):
        x = path_solve(r[rot].tolist())
        return (x - (k_cut * (x[0] - x[-1]) / z_den) * z)[back]

    return solve


def interpolate(nodes, values, ridge: float = 0.0) -> np.ndarray:
    """Coefficients a solving (G + ridge*I) a = values, read-only; the fitted
    function is phi -> sum_i a_i * kernel(nodes_i, phi).

    O(n) time and memory: no n x n array is built. The nodes lie on the
    circle R/piZ, where pi is the point 0, so nodes 0 and pi are one point
    of multiplicity 2 (their rows of G are equal). The solve runs on the
    distinct points (see _green_solver). A merged pair's two coefficients
    split its group sum evenly and add +-(v_0 - v_pi)/(2 ridge); at ridge 0
    that needs v_0 = v_pi to 4 ulps, and otherwise the system is singular.
    Steps of iterative refinement follow, against the O(n log n) residual of
    _gram_apply: one always, and up to three in all while the residual
    exceeds 1e-9 * ((2n + ridge) * max|a| + max|values|), a bound on
    1e-9 * (||G + ridge I||_inf max|a| + max|values|). If it still does, or
    the solve breaks down, the solve is redone at ridge * (1 + 2^-20) and
    refined against the true ridge; NumericError if that fails too. No
    nodes, or a value that is not finite, is an InvalidInputError.
    """
    if ridge < 0:
        raise InvalidInputError(f"ridge must be >= 0, got {ridge}")
    phi = _nodes(nodes)
    vals = np.asarray(list(values), dtype=float)
    if len(vals) != len(phi):
        raise InvalidInputError("nodes and values must have equal length")
    n = len(phi)
    if n == 0:
        raise InvalidInputError("interpolation needs at least one node")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise InvalidInputError(f"values must be finite, got {vals[bad[0]]} at index {int(bad[0])}")
    theta = np.where(phi == PI, 0.0, phi)
    order = np.argsort(theta)
    theta, vals = theta[order], vals[order]
    merged = int(n >= 2 and theta[1] == 0.0)  # positions 0 and 1 hold nodes 0 and pi
    circle = theta[merged:]
    w = np.ones(len(circle))
    w[0] += merged
    if merged and ridge == 0 and abs(vals[0] - vals[1]) > 4 * np.finfo(float).eps * max(abs(vals[:2])):
        raise NumericError("kernel system is singular; retry with ridge > 0")

    def fit(v):
        if not merged:
            return solve(v)
        # the pair's half-difference comes from v_0 - v_pi itself, not from a rounded mean
        half = (v[0] - v[1]) / 2.0
        b = solve(np.concatenate([[v[1] + half], v[2:]]))
        split = half / ridge if ridge > 0 else 0.0
        return np.concatenate([[b[0] / 2.0 + split, b[0] / 2.0 - split], b[1:]])

    def residual(a):
        c = a[merged:].copy()
        if merged:
            c[0] += a[0]
        g = _gram_apply(circle, c)
        return vals - np.concatenate([g[:merged], g]) - ridge * a

    # M is singular at one ridge, and within about 1e-12 of it the first
    # solve fails; the solve at a ridge 2^-20 away then refines at that rate.
    for base in (ridge, ridge * (1.0 + 2.0**-20)):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                solve = _green_solver(circle, w, base)
                a = fit(vals)
                res = residual(a)
                for _ in range(3):
                    a = a + fit(res)
                    res = residual(a)
                    if np.abs(res).max() <= 1e-9 * ((2 * n + ridge) * np.abs(a).max() + np.abs(vals).max()):
                        out = np.empty(n)
                        out[order] = a
                        return frozen_array(out)
        except (ZeroDivisionError, FloatingPointError):
            pass
    raise NumericError("kernel solve did not converge; retry with another ridge")
