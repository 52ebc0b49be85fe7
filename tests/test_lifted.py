import math

import numpy as np
import pytest

import zonalg as z
from zonalg import bodies, lifted
from zonalg.bodies import ANGLE_TOL, PI, UNIT_DISC, UNIT_SQUARE
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

    def test_canonical_invariants(self, rng):
        for _ in range(100):
            x = random_lifted(rng)
            assert min(x.plus.disc_radius, x.minus.disc_radius) == 0.0
            gaps = np.abs(x.plus.angles[:, None] - x.minus.angles[None, :])
            assert not np.any(np.minimum(gaps, PI - gaps) <= ANGLE_TOL)


class TestEquivalent:
    def test_shared_disc(self):
        assert z.equivalent((S + B, B), (S, z.ORIGIN))

    def test_swapped_not_equivalent(self):
        assert not z.equivalent((S, B), (B, S))

    def test_common_summand_property(self, rng):
        for _ in range(300):
            u, v, w = random_body(rng, 5), random_body(rng, 5), random_body(rng, 5)
            assert z.equivalent((u + w, v + w), (u, v))

    def test_lift_is_equivalent_to_input(self, rng):
        for _ in range(100):
            u, v = random_body(rng, 5), random_body(rng, 5)
            x = z.lift(u, v)
            assert z.equivalent((u, v), (x.plus, x.minus))


class TestVectorOps:
    def test_group_law(self, rng):
        for _ in range(50):
            x = random_lifted(rng, 5)
            assert z.add(x, z.neg(x)).is_zero

    def test_scale_minus_one(self):
        assert z.scale_real(DISC_VECTOR, -1.0) == LiftedVector(z.ORIGIN, B)

    def test_add_embedded(self):
        assert z.add(z.from_body(S), DISC_VECTOR) == z.from_body(S + B)

    def test_distributivity(self, rng):
        for _ in range(30):
            x, y = random_lifted(rng, 4), random_lifted(rng, 4)
            lam = float(rng.uniform(-3, 3))
            lhs = z.scale_real(z.add(x, y), lam)
            rhs = z.add(z.scale_real(x, lam), z.scale_real(y, lam))
            assert lifted.vectors_close(lhs, rhs, 1e-12)


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

    def test_inner_raw_scaling(self, rng):
        x, y = random_lifted(rng, 5), random_lifted(rng, 5)
        assert z.inner_raw(x, y) == pytest.approx(4 * PI * PI * z.inner(x, y), rel=1e-15)


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


def test_lifted_json_roundtrip(rng):
    for _ in range(20):
        x = random_lifted(rng)
        assert lifted.lifted_from_json(lifted.lifted_to_json(x)) == x
