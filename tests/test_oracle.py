import math

import numpy as np
import pytest

import zonalg as z
from zonalg import oracle
from zonalg.bodies import PI
from zonalg.errors import InvalidInputError

from conftest import random_zonogon


def square(side):
    h = side / 2
    return oracle.polygon([(-h, -h), (h, -h), (h, h), (-h, h)])


class TestPolySum:
    def test_square_plus_square(self):
        s = oracle.poly_sum(square(1.0), square(1.0))
        assert oracle.shoelace_area(s) == pytest.approx(4.0)
        assert oracle.poly_perimeter(s) == pytest.approx(8.0)

    def test_square_plus_segment(self):
        seg = oracle.polygon([(-0.5, 0.0), (0.5, 0.0)])
        s = oracle.poly_sum(square(1.0), seg)
        assert oracle.shoelace_area(s) == pytest.approx(2.0)

    def test_plus_origin_identity(self):
        origin = oracle.polygon([(0.0, 0.0)])
        s = oracle.poly_sum(square(1.0), origin)
        assert oracle.shoelace_area(s) == pytest.approx(1.0)
        assert oracle.poly_perimeter(s) == pytest.approx(4.0)

    def test_vertex_count_bound(self, rng):
        for _ in range(50):
            a = oracle.polygon(z.vertices(random_zonogon(rng, 6)))
            b = oracle.polygon(z.vertices(random_zonogon(rng, 6)))
            s = oracle.poly_sum(a, b)
            assert len(s.verts) <= len(a.verts) + len(b.verts)


class TestScalars:
    def test_unit_square(self):
        p = square(1.0)
        assert oracle.shoelace_area(p) == pytest.approx(1.0)
        assert oracle.poly_perimeter(p) == pytest.approx(4.0)

    def test_regular_4096gon(self):
        n = 4096
        pts = [(math.cos(2 * PI * k / n), math.sin(2 * PI * k / n)) for k in range(n)]
        p = oracle.polygon(pts)
        exact = 0.5 * n * math.sin(2 * PI / n)
        assert oracle.shoelace_area(p) == pytest.approx(exact, rel=1e-12)
        assert oracle.shoelace_area(p) == pytest.approx(PI, abs=1e-5)

    def test_square_support(self):
        assert oracle.poly_support(square(1.0), 0.0) == pytest.approx(0.5)

    def test_invalid_polygon(self):
        with pytest.raises(InvalidInputError):
            oracle.polygon([(0.0, 0.0), (1.0, 0.0)])  # not centrally symmetric


class TestDiscPolygon:
    def test_n2_is_square(self):
        a = z.bodies.disc_polygon(1.0, 2)
        assert a.angles.tolist() == [0.0, PI / 2]
        assert all(h == pytest.approx(1.0) for h in a.lengths)
        assert z.area(a) == pytest.approx(4.0)

    def test_area_converges(self):
        assert z.area(z.bodies.disc_polygon(1.0, 512)) == pytest.approx(PI, abs=2e-5)

    def test_perimeter_converges(self):
        assert z.perimeter(z.bodies.disc_polygon(1.0, 512)) == pytest.approx(2 * PI, abs=2e-5)

    def test_hausdorff_bound(self):
        for n in (2, 8, 64):
            a = z.bodies.disc_polygon(1.5, n)
            bound = 1.5 * (1 / math.cos(PI / (2 * n)) - 1)
            assert z.hausdorff(a, z.disc(1.5)) <= bound + 1e-12

    def test_bad_n(self):
        with pytest.raises(InvalidInputError):
            z.bodies.disc_polygon(1.0, 1)

    def test_negative_radius(self):
        with pytest.raises(InvalidInputError, match="radius must be >= 0"):
            z.bodies.disc_polygon(-1.0, 4)


class TestCrossValidation:
    def test_closed_forms_match_oracle(self, rng):
        for _ in range(200):
            a = random_zonogon(rng, 12)
            p = oracle.polygon(z.vertices(a))
            assert oracle.shoelace_area(p) == pytest.approx(z.area(a), rel=1e-9)
            assert oracle.poly_perimeter(p) == pytest.approx(z.perimeter(a), rel=1e-9)
            theta = float(rng.uniform(0, 2 * PI))
            assert oracle.poly_support(p, theta) == pytest.approx(z.support(a, theta), rel=1e-9)

    def test_sum_homomorphism(self, rng):
        for _ in range(50):
            a, b = random_zonogon(rng, 5), random_zonogon(rng, 5)
            direct = oracle.poly_sum(oracle.polygon(z.vertices(a)), oracle.polygon(z.vertices(b)))
            via_body = oracle.polygon(z.vertices(a + b))
            # same vertex sets up to cyclic order
            da, db = direct.array, via_body.array
            scale = 1.0 + np.abs(da).max()
            for v in db:
                assert np.min(np.linalg.norm(da - v, axis=1)) <= 1e-9 * scale
            for v in da:
                assert np.min(np.linalg.norm(db - v, axis=1)) <= 1e-9 * scale
