import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zonalg as z
from zonalg import oracle, rkhs
from zonalg.bodies import PI, UNIT_DISC, UNIT_SQUARE
from zonalg.cli import _csv, _read_lifted, _read_width_function, run
from zonalg.errors import DomainError, InvalidInputError, NumericError

from conftest import drawn, random_lifted

DATA = Path(__file__).parent / "data"
S = UNIT_SQUARE
B = UNIT_DISC


class TestKernel:
    def test_diagonal(self):
        for phi in (0.0, 0.3, PI / 2, PI):
            assert z.kernel(phi, phi) == 2.0

    def test_orthogonal_nodes(self):
        assert z.kernel(0.0, PI / 2) == pytest.approx(2 - PI / 2, abs=0)

    def test_endpoints(self):
        assert z.kernel(0.0, PI) == pytest.approx(2.0, abs=1e-15)

    def test_symmetry(self):
        assert z.kernel(0.2, 1.4) == z.kernel(1.4, 0.2)

    def test_domain(self):
        with pytest.raises(DomainError):
            z.kernel(-0.1, 0.5)
        with pytest.raises(DomainError):
            z.kernel(0.5, PI + 0.1)


class TestKernelVector:
    def test_norm_squared(self):
        k = z.kernel_vector(0.7)
        assert z.inner(k, k) == pytest.approx(2.0, rel=1e-13)
        assert z.perimeter_ext(k) == pytest.approx(2 * PI, rel=1e-14)

    def test_pairwise_inner_matches_kernel(self):
        k0, k1 = z.kernel_vector(0.0), z.kernel_vector(PI / 4)
        expected = 2 - (PI / 2) * math.sin(PI / 4)
        assert z.inner(k0, k1) == pytest.approx(expected, rel=1e-13)
        assert z.kernel(0.0, PI / 4) == pytest.approx(expected, abs=0)

    def test_components(self):
        k = z.kernel_vector(0.3)
        assert k.plus.disc_radius == 2.0
        assert not len(k.plus.angles)
        assert k.minus.lengths[0] == pytest.approx(PI / 2)


class TestEvaluate:
    def test_disc_constant(self):
        for phi in (0.0, 1.0, PI):
            assert z.evaluate(z.lift(B, z.ORIGIN), phi) == pytest.approx(1.0, abs=0)

    def test_square_half_widths(self):
        x = z.lift(S, z.ORIGIN)
        assert z.evaluate(x, 0.0) == pytest.approx(0.5)
        assert z.evaluate(x, PI / 4) == pytest.approx(math.sqrt(2) / 2, rel=1e-14)

    def test_segment_sine_profile(self):
        x = z.lift(z.segment(0.0, 1.0), z.ORIGIN)
        for phi in (0.0, 0.4, 1.1, PI / 2):
            assert z.evaluate(x, phi) == pytest.approx(abs(math.sin(phi)), rel=1e-12, abs=1e-15)

    def test_linearity(self, rng):
        x, y = random_lifted(rng, 5), random_lifted(rng, 5)
        phi = float(rng.uniform(0, PI))
        lhs = z.evaluate(z.add(x, y), phi)
        assert lhs == pytest.approx(z.evaluate(x, phi) + z.evaluate(y, phi), rel=1e-11, abs=1e-11)

    def test_pi_is_the_point_zero(self, capsys):
        # 0 and pi are one circle point, so both give the same bits
        for t in range(200):
            x = z.lift(*drawn(7, t, 2, 12))
            assert z.evaluate(x, PI).hex() == z.evaluate(x, 0.0).hex()
        printed = []
        for value in ("0", "3.141592653589793"):
            assert run(["lift", "eval", str(DATA / "lifted_sb.json"), "--value", value]) == 0
            printed.append(json.loads(capsys.readouterr().out)["value"])
        assert printed[0].hex() == printed[1].hex()


class TestReproducingProperty:
    def test_worked(self):
        x = z.lift(S, B)
        for phi in (0.0, 0.25, PI / 2, 2.5):
            assert z.inner(x, z.kernel_vector(phi)) == pytest.approx(
                z.evaluate(x, phi), rel=1e-12, abs=1e-12
            )

    def test_fuzz(self, rng):
        for _ in range(500):
            x = random_lifted(rng, 8)
            phi = float(rng.uniform(0, PI))
            lhs = z.inner(x, z.kernel_vector(phi))
            rhs = z.evaluate(x, phi)
            assert abs(lhs - rhs) <= 1e-9 * (1 + z.norm(x))

    def test_evaluation_bound(self, rng):
        for _ in range(500):
            x = random_lifted(rng, 8)
            phi = float(rng.uniform(0, PI))
            assert abs(z.evaluate(x, phi)) <= math.sqrt(2) * z.norm(x) * (1 + 1e-9) + 1e-12

    def test_injectivity_witness(self):
        # distinct vectors with distinct width functions
        x, y = z.from_body(S), z.from_body(z.rotate(S, PI / 4))
        diffs = [abs(z.evaluate(x, p) - z.evaluate(y, p)) for p in np.linspace(0, PI, 64)]
        assert max(diffs) > 0.1


class TestGram:
    def test_two_nodes(self):
        g = z.gram([0.0, PI / 2])
        assert g == pytest.approx(np.array([[2, 2 - PI / 2], [2 - PI / 2, 2]]), abs=0)

    def test_diagonal_exact(self):
        g = z.gram(np.linspace(0, PI, 32))
        assert all(g[i][i] == 2.0 for i in range(32))

    def test_entrywise_from_inner(self, rng):
        nodes = np.sort(rng.uniform(0, PI, 6))
        g = z.gram(nodes)
        for i, p in enumerate(nodes):
            for j, q in enumerate(nodes):
                assert g[i, j] == pytest.approx(
                    z.inner(z.kernel_vector(float(p)), z.kernel_vector(float(q))), abs=1e-12
                )

    def test_psd(self):
        assert oracle.jacobi_eigenvalues(z.gram(np.linspace(0, PI, 48)))[0] >= -1e-9

    def test_too_many_nodes_rejected(self, monkeypatch):
        def no_matrix(*_):
            raise AssertionError("the matrix is built")

        monkeypatch.setattr(rkhs, "kernel", no_matrix)
        with pytest.raises(InvalidInputError, match="at most"):
            z.gram(np.linspace(0, PI, rkhs.MAX_NODES + 1))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InvalidInputError):
            z.gram([0.3, 0.3])

    def test_nested_nodes_rejected(self):
        with pytest.raises(InvalidInputError, match="flat sequence"):
            z.gram([[0.1, 0.2]])

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            z.gram([0.1, 4.0])

    def test_read_only_array(self):
        g = z.gram(np.linspace(0, PI, 5))
        assert isinstance(g, np.ndarray) and g.dtype == float and g.shape == (5, 5)
        with pytest.raises(ValueError):
            g[0, 0] = 1.0


class TestJacobi:
    def test_one_by_one(self):
        assert oracle.jacobi_eigenvalues(np.array([[2.0]])) == pytest.approx([2.0])

    def test_two_node_gram(self):
        eigs = oracle.jacobi_eigenvalues(z.gram([0.0, PI / 2]))
        assert eigs == pytest.approx([PI / 2, 4 - PI / 2], abs=1e-12)

    def test_matches_numpy_oracle(self, rng):
        # odd n runs with a padding index
        for n in (2, 3, 5, 16, 33):
            m = rng.standard_normal((n, n))
            sym = (m + m.T) / 2
            ours = oracle.jacobi_eigenvalues(sym)
            ref = np.linalg.eigvalsh(sym)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref)), n

    def test_uniform_gram_oracle(self):
        # max_sweeps=20 also shows that no size is near the default cap of 100
        for n in range(8, 129, 8):
            g = z.gram(np.linspace(0, PI, n))
            ours = oracle.jacobi_eigenvalues(g, max_sweeps=20)
            ref = np.linalg.eigvalsh(g)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * ref[-1], n

    def test_unconverged_raises(self, rng):
        m = rng.standard_normal((16, 16))
        with pytest.raises(NumericError, match="1 sweeps: off-diagonal norm"):
            oracle.jacobi_eigenvalues(m + m.T, max_sweeps=1)

    def test_stopping_test_sees_small_off_diagonal(self):
        # ||A||^2 - ||diag A||^2 rounds these off-diagonal entries away
        a = np.diag(1e8 + np.arange(4.0)) + (np.ones((4, 4)) - np.eye(4))
        with pytest.raises(NumericError, match="0 sweeps"):
            oracle.jacobi_eigenvalues(a, max_sweeps=0)

    def test_round_robin_meets_every_pair_once(self):
        for m in (2, 4, 6, 34):
            layout, step = oracle._round_robin(m)
            current, met = layout, set()
            for _ in range(m - 1):
                met.update(frozenset(pair) for pair in current.reshape(-1, 2).tolist())
                current = current[step]
            assert len(met) == m * (m - 1) // 2
            assert np.array_equal(current, layout)

    def test_gram_oracle(self, rng):
        g = z.gram(np.sort(rng.uniform(0, PI, 12)))
        assert oracle.jacobi_eigenvalues(g) == pytest.approx(np.linalg.eigvalsh(g), abs=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            oracle.jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            oracle.jacobi_eigenvalues(np.array([[1.0, np.inf], [np.inf, 1.0]]))


GRID_SIZES = [*range(1, 41), 64, 128, 257, 1000]


class TestGridEigenvalues:
    def test_matches_eigvalsh(self):
        for n in GRID_SIZES:
            ours = z.grid_eigenvalues(n)
            ref = np.linalg.eigvalsh(z.gram(np.linspace(0, PI, n)))
            assert np.max(np.abs(ours - ref)) <= 1e-14 * ref[-1], n

    def test_matches_mpmath(self):
        # 50-digit eigenvalues of the float64 Gram matrix itself
        mpmath = pytest.importorskip("mpmath")
        for n in (8, 16, 33):
            g = z.gram(np.linspace(0, PI, n))
            with mpmath.workdps(50):
                ref = np.sort([float(e) for e in mpmath.eigsy(mpmath.matrix(g.tolist()), eigvals_only=True)])
            assert np.max(np.abs(z.grid_eigenvalues(n) - ref)) <= 1e-15 * ref[-1], n

    def test_trace(self):
        for n in GRID_SIZES:
            assert abs(float(np.sum(z.grid_eigenvalues(n))) - 2.0 * n) <= 1e-13 * n, n

    def test_one_null_eigenvalue(self):
        # the grid visits the circle point 0 = pi twice
        for n in GRID_SIZES[1:]:
            eigs = z.grid_eigenvalues(n)
            assert np.count_nonzero(eigs == 0.0) == 1 and eigs[0] == 0.0, n

    def test_small_grids_exact(self):
        assert z.grid_eigenvalues(1).tolist() == [2.0]
        assert z.grid_eigenvalues(2).tolist() == [0.0, 4.0]

    def test_size_bounds(self):
        for n in (0, rkhs.MAX_NODES + 1):
            with pytest.raises(InvalidInputError):
                z.grid_eigenvalues(n)


class TestInterpolate:
    def test_single_node(self):
        coeffs = z.interpolate([0.4], [2.0])
        assert coeffs == pytest.approx([1.0], abs=1e-14)

    def test_exact_on_nodes(self, rng):
        nodes = np.sort(rng.uniform(0, PI, 8))
        values = rng.standard_normal(8)
        fitted = z.kernel(nodes[:, None], nodes[None, :]) @ z.interpolate(nodes, values)
        assert fitted == pytest.approx(values, rel=1e-8, abs=1e-8)

    def test_representer_recovered(self):
        # interpolating samples of K(0.9, .) recovers the unit coefficient
        nodes = [0.2, 0.9, 2.0]
        values = [z.kernel(0.9, n) for n in nodes]
        coeffs = z.interpolate(nodes, values)
        assert coeffs == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)

    def test_constant_function_fit(self):
        nodes = np.linspace(0, PI, 24)
        coeffs = z.interpolate(nodes, np.ones(24), ridge=1e-10)
        off = np.linspace(0.01, PI - 0.01, 100)
        residual = np.max(np.abs(z.kernel(off[:, None], nodes[None, :]) @ coeffs - 1.0))
        assert residual <= 0.05

    def test_singular_advice(self):
        # 0 and pi are one circle point: at ridge 0 their two values must agree
        with pytest.raises(NumericError, match="ridge > 0"):
            z.interpolate([0.0, PI], [1.0, 2.0])

    def test_negative_ridge_rejected(self):
        with pytest.raises(InvalidInputError):
            z.interpolate([0.1, 0.2], [1.0, 1.0], ridge=-1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, float("1e400")])
    @pytest.mark.parametrize("ridge", [0.0, 1e-10])
    def test_nonfinite_values_rejected(self, bad, ridge):
        # named before any solve, not reported as a solve that did not converge
        with pytest.raises(InvalidInputError, match=f"^values must be finite, got {bad} at index 1$"):
            z.interpolate([0.0, 1.0, 2.0], [1.0, bad, 2.0], ridge=ridge)

    def test_no_nodes_rejected(self):
        with pytest.raises(InvalidInputError, match="^interpolation needs at least one node$"):
            z.interpolate([], [])

    def test_unconverged_solve_raises(self, monkeypatch, capsys):
        # a solver that returns zeros refines at neither ridge, so the last resort runs
        monkeypatch.setattr(rkhs, "_green_solver", lambda circle, w, ridge: np.zeros_like)
        with pytest.raises(NumericError, match="^kernel solve did not converge; retry with another ridge$"):
            z.interpolate([0.2, 0.9, 2.0], [1.0, 2.0, 3.0], ridge=1e-10)
        assert run(["kernel", "interp", str(DATA / "widthfn.json"), "--ridge", "1e-10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: kernel solve did not converge; retry with another ridge\n"


def within_residual_bound(nodes, values, coeffs, ridge):
    """The benchmark's acceptance test for an interpolation, on the float Gram."""
    system = z.gram(nodes) + ridge * np.eye(len(nodes))
    residual = np.max(np.abs(system @ coeffs - values))
    bound = 1e-8 * (np.abs(system).sum(axis=1).max() * np.abs(coeffs).max() + np.abs(values).max())
    return residual <= bound


def random_fit_data(n):
    rng = np.random.default_rng(n)
    return np.sort(rng.uniform(0.0, PI, n)), rng.standard_normal(n)


class TestGreenSolve:
    @pytest.mark.parametrize("m", range(2, 41))
    def test_closed_form_inverse(self, m):
        rng = np.random.default_rng(m)
        theta = np.sort(rng.uniform(0.0, PI, m))
        weight, t1 = rkhs._green_inverse(theta)
        t = np.column_stack([rkhs._inverse_times(weight, t1, e) for e in np.eye(m)])
        gaps = np.append(np.diff(theta), theta[0] + PI - theta[-1])
        if m == 2:
            assert t[0, 0] == pytest.approx(0.0, abs=1e-12 / np.sin(gaps[0]))
            assert t[0, 1] == pytest.approx(1.0 / np.sin(gaps[0]), rel=1e-12)
        else:
            for i in range(m):
                j = (i + 1) % m
                assert t[i, j] == pytest.approx(1.0 / (2.0 * np.sin(gaps[i])), rel=1e-12)
                assert t[i, i] == pytest.approx(-(1.0 / np.tan(gaps[i - 1]) + 1.0 / np.tan(gaps[i])) / 2.0, rel=1e-9)
            assert np.count_nonzero(t) <= 3 * m
        s = np.abs(np.sin(theta[:, None] - theta[None, :]))
        assert np.max(np.abs(t @ s - np.eye(m))) <= 1e-9
        assert np.max(np.abs(t - np.linalg.inv(s))) <= 1e-7 * np.max(np.abs(t))

    @pytest.mark.parametrize("ridge", [0.0, 1e-10, 1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 512, 2048])
    def test_matches_dense_solve(self, n, ridge):
        nodes, values = random_fit_data(n)
        coeffs = z.interpolate(nodes, values, ridge=ridge)
        assert within_residual_bound(nodes, values, coeffs, ridge)
        if ridge >= 1e-3:  # condition number at most (2n + ridge) / ridge
            dense = np.linalg.solve(z.gram(nodes) + ridge * np.eye(n), values)
            assert np.max(np.abs(coeffs - dense)) <= 1e-8 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 512])
    def test_ridge_where_tridiagonal_part_is_singular(self, n):
        # (pi/2) W - ridge S^-1 is singular at ridge = (pi/2) * (largest eigenvalue of S)
        nodes, values = random_fit_data(n)
        critical = (PI / 2.0) * np.linalg.eigvalsh(np.abs(np.sin(nodes[:, None] - nodes[None, :])))[-1]
        for ridge in (critical, np.nextafter(critical, np.inf)):
            assert within_residual_bound(nodes, values, z.interpolate(nodes, values, ridge=ridge), ridge)

    @pytest.mark.parametrize("ridge", [1e12, 1e308])
    def test_huge_ridge(self, ridge):
        # above rkhs.BIG_RIDGE the solve starts from values / ridge
        nodes, values = random_fit_data(64)
        coeffs = z.interpolate(nodes, values, ridge=ridge)
        assert within_residual_bound(nodes, values, coeffs, ridge)
        assert coeffs * ridge == pytest.approx(values, rel=1e-9, abs=1e-9 * 128 * np.abs(values).max())

    def test_gram_apply_matches_dense_product(self):
        nodes, _ = random_fit_data(2048)
        c = np.random.default_rng(1).standard_normal(2048)
        assert np.max(np.abs(rkhs._gram_apply(nodes, c) - z.gram(nodes) @ c)) <= 1e-14 * np.abs(c).sum()

    @pytest.mark.parametrize("ridge", [0.0, 1e-10, 1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("gap", [1e-13, 1e-9])
    def test_near_wrap(self, gap, ridge):
        # 0 and pi - gap are gap apart on the circle, not on the line
        rng = np.random.default_rng(7)
        for n in (2, 3, 8, 64):
            nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.1, PI - 0.1, n - 2)), [PI - gap]])
            values = rng.standard_normal(n)
            assert within_residual_bound(nodes, values, z.interpolate(nodes, values, ridge=ridge), ridge)

    def test_ends_one_ulp_apart(self, rng):
        # the benchmark's grid: 512 samples whose values at 0 and pi differ by 1 ulp
        nodes = np.linspace(0.0, PI, 512)
        values = z.sample(random_lifted(rng, 24), 512)[1].copy()
        values[-1] = np.nextafter(values[0], np.inf)
        for ridge in (1e-10, 1e-3):
            coeffs = z.interpolate(nodes, values, ridge=ridge)
            assert within_residual_bound(nodes, values, coeffs, ridge)
            assert coeffs[0] - coeffs[-1] == pytest.approx((values[0] - values[-1]) / ridge, rel=1e-6)
        # at ridge 0 the pair agrees to rounding and splits evenly
        coeffs = z.interpolate(nodes, values)
        assert coeffs[0] == coeffs[-1]
        assert within_residual_bound(nodes, values, coeffs, 0.0)

    def test_merged_pair_is_minimum_norm(self):
        # G = 2 11^T on the one circle point: a_0 + a_pi = 1/2, split evenly
        assert z.interpolate([0.0, PI], [1.0, 1.0]).tolist() == [0.25, 0.25]
        assert z.interpolate([PI, 0.0], [1.0, 1.0], ridge=1.0).tolist() == pytest.approx([0.2, 0.2], rel=1e-15)

    def test_line_duplicates_rejected(self):
        with pytest.raises(InvalidInputError, match="distinct"):
            z.interpolate([0.3, 0.3 + 1e-13], [1.0, 1.0], ridge=1.0)

    def test_builds_no_square_array(self, monkeypatch):
        def no_matrix(*_):
            raise AssertionError("the kernel matrix is built")

        monkeypatch.setattr(rkhs, "kernel", no_matrix)
        nodes, values = random_fit_data(2048)
        tracemalloc.start()
        try:
            z.interpolate(nodes, values, ridge=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 2048 * 8 / 16  # a 2048 x 2048 float array is 32 MiB

    def test_read_only(self):
        with pytest.raises(ValueError):
            z.interpolate([0.1, 0.9], [1.0, 2.0])[0] = 0.0


class TestRepresenter:
    """The fitted function is a lifted vector: the paper's last step."""

    @staticmethod
    def representer(nodes, coeffs):
        """sum_i a_i k_(phi_i) with k_phi = [2B, (pi/2) I^phi]: signed atoms (phi_i, -(pi/2) a_i), disc 2 sum a."""
        atoms = -(PI / 2.0) * np.asarray(coeffs)
        radius = 2.0 * float(np.sum(coeffs))
        plus = z.canonicalize(nodes[atoms > 0], atoms[atoms > 0], max(radius, 0.0))
        minus = z.canonicalize(nodes[atoms < 0], -atoms[atoms < 0], max(-radius, 0.0))
        return z.lift(plus, minus)

    @pytest.mark.parametrize("ridge", [1e-3, 1.0])
    def test_interpolant_is_lifted_vector(self, rng, ridge):
        nodes = np.sort(rng.uniform(0.0, PI, 12))
        coeffs = z.interpolate(nodes, rng.standard_normal(12), ridge=ridge)
        x = self.representer(nodes, coeffs)
        for psi in np.linspace(0.0, PI, 37):
            want = float(z.kernel(nodes, psi) @ coeffs)
            assert z.evaluate(x, float(psi)) == pytest.approx(want, rel=1e-12, abs=1e-12 * np.abs(coeffs).sum())
        assert z.inner(x, x) == pytest.approx(coeffs @ z.gram(nodes) @ coeffs, rel=1e-13)


class TestSample:
    def test_disc(self):
        _, values = z.sample(z.lift(B, z.ORIGIN), 5)
        assert values == pytest.approx([1.0] * 5, abs=0)

    def test_zero_vector(self):
        _, values = z.sample(z.lift(S, S), 4)
        assert values == pytest.approx([0.0] * 4, abs=0)

    def test_sup_matches_norm_c(self, rng):
        for _ in range(20):
            x = random_lifted(rng, 6)
            _, values = z.sample(x, 4096)
            sup = max(abs(v) for v in values)
            assert sup <= z.norm_c(x) + 1e-12
            # first-order error at kinks: slope is bounded by the total
            # half-length mass, grid spacing is pi/4095
            slope = float(x.plus.lengths.sum() + x.minus.lengths.sum())
            assert sup >= z.norm_c(x) - (PI / 4095) * (slope + 1.0)

    def test_read_only_arrays(self):
        for arr in z.sample(z.lift(S, B), 5):
            assert isinstance(arr, np.ndarray) and arr.dtype == float
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_end_sample_repeats_first(self, rng):
        # phi = pi is the circle point phi = 0
        for _ in range(50):
            _, values = z.sample(random_lifted(rng, 6), int(rng.integers(2, 300)))
            assert values[0] == values[-1]

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            z.sample(z.from_body(S), 1)


class TestSerialization:
    def test_width_function_json_roundtrip(self, capsys, tmp_path):
        # kernel eval's JSON reads back as the samples it wrote
        path = str(DATA / "lifted_sb.json")
        assert run(["kernel", "eval", path, "--nodes", "8"]) == 0
        (tmp_path / "wf.json").write_text(capsys.readouterr().out)
        nodes, values = _read_width_function(str(tmp_path / "wf.json"))
        want = z.sample(_read_lifted(path), 8)
        assert np.array(nodes).tobytes() == want[0].tobytes() and np.array(values).tobytes() == want[1].tobytes()

    def test_width_function_csv(self):
        assert _csv([(0.0, 1.0), (2.0, 3.0)]) == ["0.0,1.0\n", "2.0,3.0\n"]

    def test_gram_csv_and_dict(self, capsys):
        assert run(["kernel", "gram", "--nodes", "2", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert run(["kernel", "gram", "--nodes", "2"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["nodes"] == [0.0, PI]
        assert len(d["entries"]) == 2

    def test_gram_csv_matches_per_entry_repr(self, rng):
        tiny, huge = 5e-324, 1e308
        cases = [np.vstack([nodes, z.gram(nodes)]) for nodes in (np.linspace(0, PI, 64), np.sort(rng.uniform(0, PI, 50)))]
        cases += [
            np.array([[tiny, -tiny, huge, -huge, -0.0, 0.0, 1.0]]),
            np.array([[tiny, huge], [-0.0, -tiny], [-huge, 0.0]]),
            np.array([[-0.0]]),
            np.array([[tiny]]),
            rng.standard_normal((1, 17)),
            rng.standard_normal((300, 300)),
            np.round(rng.standard_normal((300, 300)), 1),  # many repeats
        ]
        for rows in cases:
            assert _csv(rows) == [",".join(map(repr, row)) + "\n" for row in rows.tolist()]

    def test_gram_csv_keeps_signed_zero(self):
        assert _csv([[0.0, -0.0]]) == ["0.0,-0.0\n"]
        assert _csv([[0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]]) == ["0.0,1.0\n", "0.0,-0.0\n", "-0.0,0.0\n"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_csv_rejects_nonfinite(self, bad):
        with pytest.raises(NumericError):
            _csv([[0.0, bad]])

    def test_width_function_bad_dict(self, tmp_path):
        path = tmp_path / "wf.json"
        path.write_text('{"nodes": [0.0]}')
        with pytest.raises(InvalidInputError, match="^width function JSON missing field 'values'$"):
            _read_width_function(str(path))
        path.write_text('{"nodes": [0.0], "values": [1.0, 2.0]}')
        with pytest.raises(InvalidInputError, match="^nodes and values must have equal length$"):
            z.interpolate(*_read_width_function(str(path)))
