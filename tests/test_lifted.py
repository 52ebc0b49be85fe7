import math

import numpy as np
import pytest

import zonalg as z
from zonalg import cli
from zonalg.bodies import ANGLE_TOL, PI, UNIT_DISC, UNIT_SQUARE
from zonalg.errors import InvalidInputError
from zonalg.lifted import DISC_VECTOR, ZERO, LiftedVector

from conftest import random_body, random_lifted

S = UNIT_SQUARE
B = UNIT_DISC
SB = z.lift(S, B)


class TestLift:
    def test_common_disc_cancels(self):
        x = z.lift(S + B, B)
        assert x.plus == S
        assert x.minus.is_origin

    def test_self_is_zero(self):
        assert z.lift(S, S).is_zero

    def test_per_direction_cancellation(self):
        x = z.lift(z.segment(0, 1) + z.segment(PI / 2, 1), z.segment(0, 0.4))
        assert x.minus.is_origin
        assert list(zip(x.plus.angles.tolist(), x.plus.lengths.tolist())) == [
            (0.0, 0.6),
            (PI / 2, 1.0),
        ]

    @staticmethod
    def assert_idempotent(x):
        assert z.lift(x.plus, x.minus) == x
        assert z.add(x, ZERO) == x
        assert not np.any(np.diff(np.sort(x.atoms[0])) <= ANGLE_TOL)

    def test_chained_shared_directions_idempotent(self):
        # u's two atoms are 1.1e-12 apart, v's lies between them: the first
        # merge keeps +1 and -1 only 6e-13 apart, and they cancel.
        u = z.body([(1 - 5e-13, 1.0), (1 + 6e-13, 1.0)])
        x = z.lift(u, z.body([(1.0, 2.0)]))
        self.assert_idempotent(x)
        assert x.is_zero

    def test_clustered_angles_idempotent(self):
        rng = np.random.default_rng(20261018)
        for _ in range(2000):
            centers = rng.uniform(0, PI, 2)

            def clustered():
                k = int(rng.integers(1, 5))
                angles = rng.choice(centers, k) + rng.uniform(-3, 3, k) * ANGLE_TOL
                return z.body(np.column_stack([angles, rng.choice([0.5, 1.0, 2.0], k)]))

            self.assert_idempotent(z.lift(clustered(), clustered()))

    def test_canonical_invariants(self, rng):
        for _ in range(100):
            x = random_lifted(rng)
            assert min(x.plus.disc_radius, x.minus.disc_radius) == 0.0
            gaps = np.abs(x.plus.angles[:, None] - x.minus.angles[None, :])
            assert not np.any(np.minimum(gaps, PI - gaps) <= ANGLE_TOL)


def same_class(p1, p2, tol=1e-12):
    """Whether (u1, v1) and (u2, v2) represent one vector: u1 + v2 = v1 + u2 as sets."""
    left, right = p1[0] + p2[1], p1[1] + p2[0]
    return z.hausdorff(left, right) <= tol * (1.0 + z.perimeter(left) + z.perimeter(right))


class TestEquivalent:
    def test_shared_disc(self):
        assert same_class((S + B, B), (S, z.ORIGIN))

    def test_swapped_not_equivalent(self):
        assert not same_class((S, B), (B, S))

    def test_common_summand_property(self, rng):
        for _ in range(300):
            u, v, w = random_body(rng, 5), random_body(rng, 5), random_body(rng, 5)
            assert same_class((u + w, v + w), (u, v))

    def test_lift_is_equivalent_to_input(self, rng):
        for _ in range(100):
            u, v = random_body(rng, 5), random_body(rng, 5)
            x = z.lift(u, v)
            assert same_class((u, v), (x.plus, x.minus))


class TestVectorOps:
    def test_group_law(self, rng):
        for _ in range(50):
            x = random_lifted(rng, 5)
            assert z.add(x, z.neg(x)).is_zero

    def test_scale_minus_one(self):
        assert z.scale_real(DISC_VECTOR, -1.0) == LiftedVector(z.ORIGIN, B)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_scale_by_nonfinite_rejected(self, lam):
        # a negative factor is valid here, so the message is about finiteness only
        with pytest.raises(InvalidInputError, match=f"^scale factor must be finite, got {lam}$"):
            z.scale_real(DISC_VECTOR, lam)

    def test_add_embedded(self):
        assert z.add(z.from_body(S), DISC_VECTOR) == z.from_body(S + B)

    def test_distributivity(self, rng):
        for _ in range(30):
            x, y = random_lifted(rng, 4), random_lifted(rng, 4)
            lam = float(rng.uniform(-3, 3))
            lhs = z.scale_real(z.add(x, y), lam)
            rhs = z.add(z.scale_real(x, lam), z.scale_real(y, lam))
            scale = 1.0 + abs(z.perimeter_ext(lhs)) + abs(z.perimeter_ext(rhs))
            assert z.norm_c(lhs - rhs) <= 1e-12 * scale


U = z.body([(0.3, 1.0), (1.2, 0.5)], 0.25)
X, Y = z.lift(S + B, z.segment(0.7, 0.4)), z.lift(z.segment(2.0, 1.5), B)


@pytest.mark.parametrize(
    "operator,function",
    [
        pytest.param(lambda: 2.0 * U, lambda: z.scale(U, 2.0), id="Body.__rmul__"),
        pytest.param(lambda: hash(U), lambda: hash(z.body([(1.2, 0.5), (0.3, 1.0)], 0.25)), id="Body.__hash__"),
        pytest.param(lambda: X + Y, lambda: z.add(X, Y), id="LiftedVector.__add__"),
        pytest.param(lambda: -X, lambda: z.neg(X), id="LiftedVector.__neg__"),
        pytest.param(lambda: 2.0 * X, lambda: z.scale_real(X, 2.0), id="LiftedVector.__rmul__"),
    ],
)
def test_operator_is_its_function(operator, function):
    assert operator() == function()


class TestMeasureExt:
    def test_square_minus_disc(self):
        assert z.measure_ext(SB) == pytest.approx(PI - 3, rel=1e-14)

    def test_disc(self):
        assert z.measure_ext(DISC_VECTOR) == pytest.approx(PI, abs=0)

    def test_even_quadratic(self):
        assert z.measure_ext(z.lift(z.ORIGIN, S)) == pytest.approx(1.0, abs=0)

    def test_equals_bilinear_diagonal(self, rng):
        for _ in range(100):
            x = random_lifted(rng)
            assert z.measure_ext(x) == pytest.approx(z.bilinear_M(x, x), rel=1e-11, abs=1e-11)


class TestBilinearM:
    def test_worked_value(self):
        x = z.lift(z.disc(2.0), S)
        assert z.bilinear_M(x, DISC_VECTOR) == pytest.approx(2 * PI - 2, rel=1e-14)

    def test_zero(self, rng):
        x = random_lifted(rng)
        assert z.bilinear_M(x, ZERO) == 0.0

    def test_disc_diagonal(self):
        assert z.bilinear_M(DISC_VECTOR, DISC_VECTOR) == pytest.approx(PI, abs=0)

    def test_symmetric_bilinear(self, rng):
        for _ in range(50):
            x, y = random_lifted(rng, 5), random_lifted(rng, 5)
            assert z.bilinear_M(x, y) == pytest.approx(z.bilinear_M(y, x), rel=1e-12)
            w = random_lifted(rng, 5)
            lhs = z.bilinear_M(z.add(x, w), y)
            rhs = z.bilinear_M(x, y) + z.bilinear_M(w, y)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestSignedAtoms:
    def test_atoms(self):
        angles, weights, radius = SB.atoms
        assert list(angles) == [0.0, PI / 2]
        assert list(weights) == [0.5, 0.5]
        assert radius == -1.0
        assert list(z.lift(B, S).atoms[1]) == [-0.5, -0.5]

    def test_measure_ext_matches_area_polarization(self, rng):
        for _ in range(200):
            x = random_lifted(rng)
            p, m = x.plus, x.minus
            want = 2 * z.area(p) + 2 * z.area(m) - z.area(z.minkowski_add(p, m))
            assert z.measure_ext(x) == pytest.approx(want, rel=1e-12, abs=1e-12 * (1 + z.area(z.minkowski_add(p, m))))

    def test_bilinear_M_matches_four_mixed_areas(self, rng):
        for _ in range(200):
            x, y = random_lifted(rng), random_lifted(rng)
            terms = [
                z.mixed_area(x.plus, y.plus),
                z.mixed_area(x.minus, y.minus),
                -z.mixed_area(x.plus, y.minus),
                -z.mixed_area(x.minus, y.plus),
            ]
            scale = 1 + sum(abs(t) for t in terms)
            assert z.bilinear_M(x, y) == pytest.approx(sum(terms), abs=1e-12 * scale)


class TestPerimeterExt:
    def test_square_minus_disc(self):
        assert z.perimeter_ext(SB) == pytest.approx(4 - 2 * PI, abs=0)

    def test_zero(self):
        assert z.perimeter_ext(ZERO) == 0.0

    def test_linearity(self):
        assert z.perimeter_ext(z.scale_real(DISC_VECTOR, -2.0)) == pytest.approx(-4 * PI)

    def test_equals_mixed_with_disc(self, rng):
        # o(x) = 2 * M(x, disc)
        for _ in range(100):
            x = random_lifted(rng)
            assert z.perimeter_ext(x) == pytest.approx(
                2 * z.bilinear_M(x, DISC_VECTOR), rel=1e-12, abs=1e-12
            )


class TestDeficit:
    def test_disc_zero(self):
        assert z.deficit(DISC_VECTOR) == 0.0

    def test_square_minus_disc(self):
        assert z.deficit(SB) == pytest.approx(16 - 4 * PI, rel=1e-14)

    def test_square(self):
        assert z.deficit(z.from_body(S)) == pytest.approx(16 - 4 * PI, rel=1e-14)


class TestEpsForm:
    def test_disc_annihilates(self, rng):
        for _ in range(100):
            x = random_lifted(rng)
            scale = 1.0 + z.perimeter_ext(x) ** 2
            assert abs(z.eps_form(x, DISC_VECTOR)) <= 1e-10 * scale

    def test_diagonal_is_deficit(self, rng):
        for _ in range(100):
            x = random_lifted(rng)
            assert z.eps_form(x, x) == pytest.approx(z.deficit(x), rel=1e-12, abs=1e-12)

    def test_square_diagonal(self):
        x = z.from_body(S)
        assert z.eps_form(x, x) == pytest.approx(16 - 4 * PI, rel=1e-14)


class TestInner:
    def test_disc_norm_one(self):
        assert z.inner(DISC_VECTOR, DISC_VECTOR) == pytest.approx(1.0, abs=0)

    def test_zero(self, rng):
        assert z.inner(random_lifted(rng), ZERO) == 0.0

    def test_kernel_value(self):
        k0, k1 = z.kernel_vector(0.0), z.kernel_vector(PI / 2)
        assert z.inner(k0, k1) == pytest.approx(2 - PI / 2, rel=1e-12)

    def test_normalization(self, rng):
        x, y = random_lifted(rng, 5), random_lifted(rng, 5)
        unnormalized = 2 * z.perimeter_ext(x) * z.perimeter_ext(y) - 4 * PI * z.bilinear_M(x, y)
        assert 4 * PI * PI * z.inner(x, y) == pytest.approx(unnormalized, rel=1e-15)


class TestNorms:
    def test_disc_norm(self):
        assert z.norm(DISC_VECTOR) == pytest.approx(1.0, abs=0)

    def test_norm_c_square(self):
        assert z.norm_c(z.from_body(S)) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_norm_bp_square_disc(self):
        assert z.norm_bp(SB) == pytest.approx(math.sqrt(2) / 2 + 1, abs=1e-12)

    def test_norm_c_bounded_by_norm(self, rng):
        for _ in range(200):
            x = random_lifted(rng)
            assert z.norm_c(x) <= math.sqrt(2) * z.norm(x) * (1 + 1e-10) + 1e-12

    def test_norm_bp_dominates_norm_c(self, rng):
        for _ in range(200):
            x = random_lifted(rng)
            assert z.norm_bp(x) >= z.norm_c(x) - 1e-12


class TestRepresentativeIndependence:
    def test_all_functionals(self, rng):
        for _ in range(100):
            u, v, w = random_body(rng, 5), random_body(rng, 5), random_body(rng, 5)
            x = z.lift(u, v)
            x_shift = LiftedVector(u + w, v + w)  # non-canonical representative
            y = random_lifted(rng, 5)
            assert z.measure_ext(x_shift) == pytest.approx(z.measure_ext(x), rel=1e-10, abs=1e-9)
            assert z.bilinear_M(x_shift, y) == pytest.approx(z.bilinear_M(x, y), rel=1e-10, abs=1e-9)
            assert z.perimeter_ext(x_shift) == pytest.approx(z.perimeter_ext(x), rel=1e-10, abs=1e-10)
            assert z.deficit(x_shift) == pytest.approx(z.deficit(x), rel=1e-10, abs=1e-8)
            assert z.inner(x_shift, y) == pytest.approx(z.inner(x, y), rel=1e-10, abs=1e-9)


class TestHilbertGeometry:
    def test_parallelogram_law(self, rng):
        for _ in range(100):
            x, y = random_lifted(rng, 5), random_lifted(rng, 5)
            lhs = z.norm(z.add(x, y)) ** 2 + z.norm(z.add(x, z.neg(y))) ** 2
            rhs = 2 * z.norm(x) ** 2 + 2 * z.norm(y) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_positive_definiteness(self, rng):
        for _ in range(100):
            x = random_lifted(rng)
            if z.norm(x) == 0.0:
                assert x.is_zero

    def test_cauchy_schwarz(self, rng):
        for _ in range(200):
            x, y = random_lifted(rng, 5), random_lifted(rng, 5)
            assert abs(z.inner(x, y)) <= z.norm(x) * z.norm(y) * (1 + 1e-10) + 1e-12


def test_lifted_json_roundtrip(rng, tmp_path):
    # cli's writer and reader are inverse: a lifted vector reads back bit for bit
    path = tmp_path / "lifted.json"
    for _ in range(20):
        x = random_lifted(rng)
        path.write_text(cli._dumps(cli._lifted_dict(x)))
        assert cli._read_lifted(str(path)) == x
