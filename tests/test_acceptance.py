"""Acceptance gate: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; each test is independent and uses fixed seeds throughout.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import zonalg as z
from zonalg import generators, inequalities, lifted, oracle, rkhs
from zonalg.bodies import PI, UNIT_DISC, UNIT_SQUARE
from zonalg.cli import run
from zonalg.lifted import DISC_VECTOR

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
        rng = generators.trial_rng(101, i)
        a = generators.random_zonogon(rng, max_diangles=12)
        if a.is_origin:
            continue
        p = oracle.polygon(z.vertices(a))
        pairs = [
            (oracle.shoelace_area(p), z.area(a)),
            (oracle.poly_perimeter(p), z.perimeter(a)),
        ]
        theta = float(rng.uniform(0, 2 * PI))
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
        x = generators.random_lifted(generators.trial_rng(102, i), 10)
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
        x = generators.random_lifted(generators.trial_rng(103, i), 10)
        i += 1
        if not (len(x.plus.angles) or len(x.minus.angles)):
            continue  # a pure disc multiple attains equality by design
        checked += 1
        if z.deficit(x) <= 0.0:
            positive = False
    ok = exact and positive
    report(3, "equality case", ok, f"disc multiples exact: {exact}; {checked} non-disc vectors strictly positive: {positive}")


def test_04_worked_values():
    x = z.lift(S, B)
    d = abs(z.deficit(x) - (16 - 4 * PI))
    m = abs(z.measure_ext(x) - (PI - 3))
    n = abs(z.inner(DISC_VECTOR, DISC_VECTOR) - 1.0)
    ok = d <= 1e-12 and m <= 1e-12 and n <= 1e-12
    report(4, "worked values", ok, f"|deficit err|={d:.1e}, |measure err|={m:.1e}, |disc norm err|={n:.1e}")


def test_05_kernel_gram():
    nodes = np.linspace(0.0, PI, 64)
    g = z.gram(nodes).array
    expected = 2.0 - (PI / 2) * np.sin(np.abs(nodes[:, None] - nodes[None, :]))
    entry_err = float(np.max(np.abs(g - expected)))
    diag_exact = bool(np.all(g.diagonal() == 2.0))
    min_eig = z.psd_min_eig(g)
    ok = entry_err <= 1e-12 and diag_exact and min_eig >= -1e-9
    report(5, "kernel gram", ok, f"entry err {entry_err:.1e}, diag exact {diag_exact}, min eig {min_eig:.2e}")


def test_06_reproducing_property():
    worst = 0.0
    for i in range(1000):
        rng = generators.trial_rng(106, i)
        x = generators.random_lifted(rng, 10)
        phi = float(rng.uniform(0, PI))
        err = abs(z.inner(x, z.kernel_vector(phi)) - z.evaluate(x, phi))
        worst = max(worst, err / (1 + z.norm(x)))
    ok = worst <= 1e-9
    report(6, "reproducing property", ok, f"max scaled err {worst:.2e} over 1000 trials")


def test_07_evaluation_and_norm_bounds():
    ok_eval = ok_norm = True
    for i in range(1000):
        rng = generators.trial_rng(106, i)  # same fuzz set as criterion 6
        x = generators.random_lifted(rng, 10)
        phi = float(rng.uniform(0, PI))
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
    for i in range(1000):
        rng = generators.trial_rng(108, i)
        u = generators.random_zonogon(rng, max_diangles=8)
        v = generators.random_zonogon(rng, max_diangles=8)
        if u.is_origin or v.is_origin:
            continue
        trace = z.reduce_pair(u, v)
        o0 = z.perimeter(u) - z.perimeter(v)
        scale = 1 + abs(o0)
        m_prev = z.measure_ext(z.lift(u, v))
        if len(trace.steps) > len(u.angles) + len(v.angles):
            ok = False
        for step in trace.steps:
            if abs(step.perimeter_ext - o0) > 1e-9 * scale:
                ok = False
            if step.measure_ext < m_prev - 1e-9 * scale * scale:
                ok = False
            m_prev = step.measure_ext
        w = trace.witness
        if z.perimeter(w) ** 2 < 4 * PI * z.area(w) - 1e-9 * scale * scale:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(8, "reduction pipeline", ok, f"1000 pairs, {elapsed:.2f}s")


def test_09_generalized_brunn_minkowski():
    violations, checked = 0, 0
    for i in range(10_000):
        rng = generators.trial_rng(109, i)
        x = generators.random_lifted(rng, 10)
        y = generators.random_lifted(rng, 10)
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
        x = generators.random_lifted(generators.trial_rng(209, i), 8)
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
    checked, ok = 0, True
    i = 0
    while checked < 1000:
        rng = generators.trial_rng(110, i)
        i += 1
        u = generators.random_lifted(rng, 8)
        v = generators.random_lifted(rng, 8)
        if abs(z.perimeter_ext(v)) <= 1e-12 * (1 + z.norm(v)):
            continue
        checked += 1
        w = z.hyperbolic_witness(u, v)
        scale = 1 + z.norm(u) + z.norm(v)
        if abs(z.perimeter_ext(w)) > 1e-10 * scale:
            ok = False
        if z.norm(w) > 1e-8 * scale and z.measure_ext(w) >= 0:
            ok = False
    report(10, "hyperbolicity", ok, f"{checked} pairs, zero-perimeter witness with negative measure")


def test_11_schwarz_deficit():
    violations = 0
    for i in range(10_000):
        rng = generators.trial_rng(111, i)
        x = generators.random_lifted(rng, 10)
        y = generators.random_lifted(rng, 10)
        lhs = math.sqrt(max(z.deficit(x), 0.0)) * math.sqrt(max(z.deficit(y), 0.0))
        e = z.eps_form(x, y)
        if e > lhs + 1e-9 * (1 + abs(lhs) + abs(e)):
            violations += 1
    disc_ok = True
    for i in range(100):
        x = generators.random_lifted(generators.trial_rng(211, i), 8)
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
