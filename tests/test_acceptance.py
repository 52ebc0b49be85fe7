"""Acceptance gate: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; each test is independent and uses fixed seeds throughout.  Fuzz
trial i of seed S is trial i of the campaigns' draw (conftest.drawn): a
lifted vector is lift(b0, b1) of a trial's bodies, a pair of vectors
lift(b0, b1), lift(b2, b3), as `check bmgen --seed S` and `check schwarz
--seed S` draw them.  Scalars besides the bodies come from
np.random.default_rng([S, i]).
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import zonalg as z
from zonalg import bodies, oracle
from zonalg.bodies import PI, UNIT_DISC, UNIT_SQUARE
from zonalg.cli import run
from zonalg.lifted import DISC_VECTOR, lift

from conftest import drawn, mixed_area_error

S = UNIT_SQUARE
B = UNIT_DISC
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        (a,) = drawn(101, i, 1, 12, zonogons=True)
        p = oracle.polygon(z.vertices(a))
        pairs = [
            (oracle.shoelace_area(p), z.area(a)),
            (oracle.poly_perimeter(p), z.perimeter(a)),
        ]
        theta = float(np.random.default_rng([101, i]).uniform(0, 2 * PI))
        pairs.append((oracle.poly_support(p, theta), z.support(a, theta)))
        for ref, ours in pairs:
            worst = max(worst, abs(ours - ref) / (abs(ref) or 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "oracle equivalence", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_02_generalized_isoperimetric():
    start = time.perf_counter()
    violations, worst = 0, math.inf
    for i in range(10_000):
        x = lift(*drawn(102, i, 2, 10))
        o = z.perimeter_ext(x)
        d = z.deficit(x)
        worst = min(worst, d)
        if d < -1e-9 * (1 + o * o):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(2, "generalized isoperimetric", ok, f"0/{10_000} violations expected, got {violations}; min deficit {worst:.2e}; {elapsed:.2f}s")


def test_03_equality_case():
    exact = all(z.deficit(z.scale_real(DISC_VECTOR, lam)) == 0.0 for lam in (-3.0, 0.0, 1.0, 2.5))
    positive = True
    checked = 0
    i = 0
    while checked < 1000:
        x = lift(*drawn(103, i, 2, 10))
        i += 1
        if not (len(x.plus.angles) or len(x.minus.angles)):
            continue  # a pure disc multiple attains equality by design
        checked += 1
        if z.deficit(x) <= 0.0:
            positive = False
    ok = exact and positive
    report(3, "equality case", ok, f"disc multiples exact: {exact}; {checked} non-disc vectors strictly positive: {positive}")


def test_04_worked_values():
    import mpmath

    x = z.lift(S, B)
    _, w, r = x.atoms
    d, n = abs(z.deficit(x) - (16 - 4 * PI)), abs(z.inner(DISC_VECTOR, DISC_VECTOR) - 1.0)
    m = mixed_area_error(z.measure_ext(x), x.atoms, x.atoms)  # against 50-digit B(x, x), π - 3 at x's doubles
    with mpmath.workdps(50):
        o = float(abs(z.perimeter_ext(x) - (4 - 2 * mpmath.pi)))
    ratios = m / bodies.atom_form_bound(w, r, w, r), o / bodies.perimeter_bound(w, r)
    errs = f"|measure err|={m:.1e} = {ratios[0]:.3f} atom_form_bound, |perimeter err|={o:.1e} = {ratios[1]:.3f} perimeter_bound"
    name = "worked values: deficit, disc norm against doubles of 16 - 4π, 1; measure, perimeter against 50 digits"
    report(4, name, max(d, n, m, o) <= 1e-12, f"|deficit err|={d:.1e}, |disc norm err|={n:.1e}, {errs}")


def test_05_kernel_gram():
    nodes = np.linspace(0.0, PI, 64)
    g = z.gram(nodes)
    expected = 2.0 - (PI / 2) * np.sin(np.abs(nodes[:, None] - nodes[None, :]))
    entry_err = float(np.max(np.abs(g - expected)))
    diag_exact = bool(np.all(g.diagonal() == 2.0))
    jacobi = oracle.jacobi_eigenvalues(g)
    min_eig = float(jacobi[0])
    spectrum_err = float(np.max(np.abs(z.grid_eigenvalues(64) - jacobi))) / jacobi[-1]
    ok = entry_err <= 1e-12 and diag_exact and min_eig >= -1e-9 and spectrum_err <= 1e-12
    detail = f"entry err {entry_err:.1e}, diag exact {diag_exact}, Jacobi min eig {min_eig:.2e}"
    report(5, "kernel gram", ok, f"{detail}, grid_eigenvalues vs Jacobi {spectrum_err:.1e} lam_max")


def test_06_reproducing_property():
    worst = 0.0
    for i in range(1000):
        x = lift(*drawn(106, i, 2, 10))
        phi = float(np.random.default_rng([106, i]).uniform(0, PI))
        err = abs(z.inner(x, z.kernel_vector(phi)) - z.evaluate(x, phi))
        worst = max(worst, err / (1 + z.norm(x)))
    ok = worst <= 1e-9
    report(6, "reproducing property", ok, f"max scaled err {worst:.2e} over 1000 trials")


def test_07_evaluation_and_norm_bounds():
    ok_eval = ok_norm = True
    for i in range(1000):
        x = lift(*drawn(106, i, 2, 10))  # same fuzz set as criterion 6
        phi = float(np.random.default_rng([106, i]).uniform(0, PI))
        bound = math.sqrt(2) * z.norm(x) * (1 + 1e-9)
        if abs(z.evaluate(x, phi)) > bound:
            ok_eval = False
        if z.norm_c(x) > bound:
            ok_norm = False
    ok = ok_eval and ok_norm
    report(7, "evaluation and norm bounds", ok, f"evaluation bound {ok_eval}, sup-norm bound {ok_norm}")


def test_08_reduction_pipeline():
    start = time.perf_counter()
    ok = True
    pairs = steps = 0
    drift, measure_step = 0.0, math.inf  # scaled by 1 + |o0| and its square
    for i in range(1000):
        u, v = drawn(108, i, 2, 8, zonogons=True)
        trace = z.reduce_pair(u, v)
        pairs += 1
        steps += len(trace.steps)
        o0 = z.perimeter(u) - z.perimeter(v)
        scale = 1 + abs(o0)
        m_prev = z.measure_ext(z.lift(u, v))
        if len(trace.steps) > len(u.angles) + len(v.angles):
            ok = False
        for step in trace.steps:
            drift = max(drift, abs(step.perimeter_ext - o0) / scale)
            measure_step = min(measure_step, (step.measure_ext - m_prev) / (scale * scale))
            m_prev = step.measure_ext
        w = trace.witness
        if z.perimeter(w) ** 2 < 4 * PI * z.area(w) - 1e-9 * scale * scale:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and drift <= 1e-9 and measure_step >= -1e-9 and elapsed < 30.0
    detail = f"{pairs} pairs, {steps} steps, max scaled perimeter drift {drift:.1e}"
    report(8, "reduction pipeline", ok, f"{detail}, min scaled measure step {measure_step:.1e}, {elapsed:.2f}s")


def test_09_generalized_brunn_minkowski():
    violations, checked = 0, 0
    for i in range(10_000):
        b = drawn(109, i, 4, 10)
        x, y = lift(b[0], b[1]), lift(b[2], b[3])
        mx, my = z.measure_ext(x), z.measure_ext(y)
        if mx <= 0 or my <= 0:
            continue
        checked += 1
        b = z.bilinear_M(x, y)
        if b * b < mx * my * (1 - 1e-9) - 1e-9:
            violations += 1
    # dependent pairs attain equality
    dep_ok = True
    for i in range(100):
        x = lift(*drawn(209, i, 2, 8))
        if z.measure_ext(x) <= 0:
            continue
        y = z.scale_real(x, 2.0)
        b = z.bilinear_M(x, y)
        slack = b * b - z.measure_ext(x) * z.measure_ext(y)
        if abs(slack) > 1e-10 * (1 + b * b):
            dep_ok = False
    ok = violations == 0 and dep_ok and checked > 0
    report(9, "generalized Brunn-Minkowski", ok, f"{checked} filtered pairs, {violations} violations, dependent-pair equality {dep_ok}")


def test_10_hyperbolicity():
    checked = 0
    i = 0
    perimeter, measure = 0.0, -math.inf  # largest scaled |o(w)|, largest m(w) of a nonzero w
    while checked < 1000:
        b = drawn(110, i, 4, 8)
        i += 1
        u, v = lift(b[0], b[1]), lift(b[2], b[3])
        if abs(z.perimeter_ext(v)) <= 1e-12 * (1 + z.norm(v)):
            continue
        checked += 1
        w = z.hyperbolic_witness(u, v)
        scale = 1 + z.norm(u) + z.norm(v)
        perimeter = max(perimeter, abs(z.perimeter_ext(w)) / scale)
        if z.norm(w) > 1e-8 * scale:
            measure = max(measure, z.measure_ext(w))
    ok = perimeter <= 1e-10 and measure < 0
    detail = f"{checked} pairs, max scaled |perimeter_ext(w)| {perimeter:.1e}"
    report(10, "hyperbolicity", ok, f"{detail}, max measure_ext(w) of a nonzero witness {measure:.2e} (< 0 expected)")


def test_11_schwarz_deficit():
    violations = 0
    for i in range(10_000):
        b = drawn(111, i, 4, 10)
        x, y = lift(b[0], b[1]), lift(b[2], b[3])
        lhs = math.sqrt(max(z.deficit(x), 0.0)) * math.sqrt(max(z.deficit(y), 0.0))
        e = z.eps_form(x, y)
        if e > lhs + 1e-9 * (1 + abs(lhs) + abs(e)):
            violations += 1
    disc_ok = True
    for i in range(100):
        x = lift(*drawn(211, i, 2, 8))
        scale = 1 + z.perimeter_ext(x) ** 2
        if abs(z.eps_form(x, DISC_VECTOR)) > 1e-10 * scale:
            disc_ok = False
    ok = violations == 0 and disc_ok
    report(11, "Schwarz-deficit", ok, f"{10_000} pairs, {violations} violations, disc annihilated {disc_ok}")


def test_12_cli_determinism_and_goldens(capsys):
    from test_cli import GOLDEN_CASES, resolve

    compared = identical = 0
    for argv, golden in GOLDEN_CASES:
        compared += 1
        code = run(resolve(argv))
        out = capsys.readouterr().out
        identical += code == 0 and out == (GOLDEN / golden).read_text()
    cmd = [
        sys.executable,
        "-c",
        "from zonalg.cli import main; main()",
        "check",
        "iso",
        "--trials",
        "200",
        "--seed",
        "7",
    ]
    r1 = subprocess.run(cmd, capture_output=True, check=True)
    r2 = subprocess.run(cmd, capture_output=True, check=True)
    det_ok = r1.stdout == r2.stdout and bool(r1.stdout)
    ok = identical == compared and det_ok
    with capsys.disabled():
        print()
        report(
            12,
            "CLI determinism and goldens",
            ok,
            f"{compared}/{len(GOLDEN_CASES)} golden outputs compared, {identical} byte-identical; "
            f"byte-identical reruns {det_ok}",
        )
