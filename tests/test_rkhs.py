import json
import math

import numpy as np
import pytest

import zonalg as z
from zonalg import rkhs
from zonalg.bodies import PI, UNIT_DISC, UNIT_SQUARE
from zonalg.errors import DomainError, InvalidInputError, NumericError

from conftest import random_lifted

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
        assert g.array == pytest.approx(np.array([[2, 2 - PI / 2], [2 - PI / 2, 2]]), abs=0)

    def test_diagonal_exact(self):
        g = z.gram(np.linspace(0, PI, 32))
        assert all(g.entries[i][i] == 2.0 for i in range(32))

    def test_entrywise_from_inner(self, rng):
        nodes = np.sort(rng.uniform(0, PI, 6))
        g = z.gram(nodes).array
        for i, p in enumerate(nodes):
            for j, q in enumerate(nodes):
                assert g[i, j] == pytest.approx(
                    z.inner(z.kernel_vector(float(p)), z.kernel_vector(float(q))), abs=1e-12
                )

    def test_psd(self):
        assert z.psd_min_eig(z.gram(np.linspace(0, PI, 48))) >= -1e-9

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InvalidInputError):
            z.gram([0.3, 0.3])

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            z.gram([0.1, 4.0])


class TestJacobi:
    def test_one_by_one(self):
        assert rkhs.jacobi_eigenvalues(np.array([[2.0]])) == pytest.approx([2.0])

    def test_two_node_gram(self):
        eigs = rkhs.jacobi_eigenvalues(z.gram([0.0, PI / 2]).array)
        assert eigs == pytest.approx([PI / 2, 4 - PI / 2], abs=1e-12)

    def test_matches_numpy_oracle(self, rng):
        # odd n runs with a padding index
        for n in (2, 3, 5, 16, 33):
            m = rng.standard_normal((n, n))
            sym = (m + m.T) / 2
            ours = rkhs.jacobi_eigenvalues(sym)
            ref = np.linalg.eigvalsh(sym)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref)), n

    def test_uniform_gram_oracle(self):
        # max_sweeps=20 also shows that no size is near the default cap of 100
        for n in range(8, 129, 8):
            g = z.gram(np.linspace(0, PI, n)).array
            ours = rkhs.jacobi_eigenvalues(g, max_sweeps=20)
            ref = np.linalg.eigvalsh(g)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * ref[-1], n

    def test_unconverged_raises(self, rng):
        m = rng.standard_normal((16, 16))
        with pytest.raises(NumericError, match="1 sweeps: off-diagonal norm"):
            rkhs.jacobi_eigenvalues(m + m.T, max_sweeps=1)

    def test_stopping_test_sees_small_off_diagonal(self):
        # ||A||^2 - ||diag A||^2 rounds these off-diagonal entries away
        a = np.diag(1e8 + np.arange(4.0)) + (np.ones((4, 4)) - np.eye(4))
        with pytest.raises(NumericError, match="0 sweeps"):
            rkhs.jacobi_eigenvalues(a, max_sweeps=0)

    def test_round_robin_meets_every_pair_once(self):
        for m in (2, 4, 6, 34):
            layout, step = rkhs._round_robin(m)
            current, met = layout, set()
            for _ in range(m - 1):
                met.update(frozenset(pair) for pair in current.reshape(-1, 2).tolist())
                current = current[step]
            assert len(met) == m * (m - 1) // 2
            assert np.array_equal(current, layout)

    def test_gram_oracle(self, rng):
        g = z.gram(np.sort(rng.uniform(0, PI, 12))).array
        assert rkhs.jacobi_eigenvalues(g) == pytest.approx(np.linalg.eigvalsh(g), abs=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            rkhs.jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            rkhs.jacobi_eigenvalues(np.array([[1.0, np.inf], [np.inf, 1.0]]))


class TestInterpolate:
    def test_single_node(self):
        coeffs = z.interpolate([0.4], [2.0])
        assert coeffs == pytest.approx([1.0], abs=1e-14)

    def test_exact_on_nodes(self, rng):
        nodes = np.sort(rng.uniform(0, PI, 8))
        values = rng.standard_normal(8)
        fitted = rkhs.interpolant(nodes, z.interpolate(nodes, values))
        for n, v in zip(nodes, values):
            assert fitted(float(n)) == pytest.approx(float(v), rel=1e-8, abs=1e-8)

    def test_representer_recovered(self):
        # interpolating samples of K(0.9, .) recovers the unit coefficient
        nodes = [0.2, 0.9, 2.0]
        values = [z.kernel(0.9, n) for n in nodes]
        coeffs = z.interpolate(nodes, values)
        assert coeffs == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)

    def test_constant_function_fit(self):
        nodes = np.linspace(0, PI, 24)
        fitted = rkhs.interpolant(nodes, z.interpolate(nodes, np.ones(24), ridge=1e-10))
        off = np.linspace(0.01, PI - 0.01, 100)
        residual = max(abs(fitted(float(p)) - 1.0) for p in off)
        assert residual <= 0.05

    def test_singular_advice(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(NumericError, match="ridge"):
            z.interpolate([0.1, 0.9], [1.0, 2.0])

    def test_negative_ridge_rejected(self):
        with pytest.raises(InvalidInputError):
            z.interpolate([0.1, 0.2], [1.0, 1.0], ridge=-1e-3)


class TestSample:
    def test_disc(self):
        wf = z.sample(z.lift(B, z.ORIGIN), 5)
        assert wf.values == pytest.approx([1.0] * 5, abs=0)

    def test_zero_vector(self):
        wf = z.sample(z.lift(S, S), 4)
        assert wf.values == pytest.approx([0.0] * 4, abs=0)

    def test_sup_matches_norm_c(self, rng):
        for _ in range(20):
            x = random_lifted(rng, 6)
            wf = z.sample(x, 4096)
            sup = max(abs(v) for v in wf.values)
            assert sup <= z.norm_c(x) + 1e-12
            # first-order error at kinks: slope is bounded by the total
            # half-length mass, grid spacing is pi/4095
            slope = float(x.plus.lengths.sum() + x.minus.lengths.sum())
            assert sup >= z.norm_c(x) - (PI / 4095) * (slope + 1.0)

    def test_read_only_arrays(self):
        wf = z.sample(z.lift(S, B), 5)
        for arr in (wf.nodes, wf.values):
            assert isinstance(arr, np.ndarray) and arr.dtype == float
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the constructor copies its input
        nodes = np.array([0.0, 1.0])
        assert rkhs.WidthFunction(nodes, [2.0, 3.0]).nodes is not nodes

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            z.sample(z.from_body(S), 1)


class TestSerialization:
    def test_width_function_json_roundtrip(self):
        wf = z.sample(z.lift(S, B), 8)
        again = rkhs.width_function_from_dict(json.loads(wf.to_json()))
        assert again == wf

    def test_width_function_csv(self):
        wf = rkhs.WidthFunction((0.0, 1.0), (2.0, 3.0))
        lines = wf.to_csv().strip().split("\n")
        assert lines[0] == "0.0,1.0"
        assert lines[1] == "2.0,3.0"

    def test_gram_csv_and_dict(self):
        g = z.gram([0.0, PI / 2])
        lines = g.to_csv().strip().split("\n")
        assert len(lines) == 3
        d = g.to_dict()
        assert d["nodes"] == [0.0, PI / 2]
        assert len(d["entries"]) == 2

    def test_gram_csv_matches_per_entry_repr(self, rng):
        for nodes in (np.linspace(0, PI, 64), np.sort(rng.uniform(0, PI, 50))):
            g = z.gram(nodes)
            rows = [nodes.tolist()] + g.entries.tolist()
            assert g.to_csv() == "".join(",".join(repr(v) for v in row) + "\n" for row in rows)

    def test_gram_csv_keeps_signed_zero(self):
        g = rkhs.GramMatrix(np.array([0.0, 1.0]), np.array([[0.0, -0.0], [-0.0, 0.0]]))
        assert g.to_csv() == "0.0,1.0\n0.0,-0.0\n-0.0,0.0\n"

    def test_width_function_bad_dict(self):
        with pytest.raises(InvalidInputError):
            rkhs.width_function_from_dict({"nodes": [0.0]})
        with pytest.raises(InvalidInputError):
            rkhs.width_function_from_dict({"nodes": [0.0], "values": [1.0, 2.0]})
