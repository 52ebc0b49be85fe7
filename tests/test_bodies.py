import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zonalg as z
from zonalg import bodies, cli, oracle
from zonalg.bodies import ANGLE_TOL, PI, UNIT_DISC, UNIT_SQUARE
from zonalg.errors import InvalidInputError, UnsupportedRepresentationError

from conftest import mixed_area_error, random_body, random_zonogon

S = UNIT_SQUARE
B = UNIT_DISC
SEG = z.segment(0.0, 1.0)


class TestCanonicalize:
    def test_merges_parallel_mod_pi(self):
        a = z.body([(0.0, 0.25), (PI, 0.25)])
        assert len(a.angles) == 1
        assert a.lengths[0] == pytest.approx(0.5, abs=0)
        assert a.angles[0] == 0.0

    def test_empty_with_disc_is_disc(self):
        a = z.body([], 1.0)
        assert a == B

    def test_equality_with_a_non_body(self):
        assert UNIT_SQUARE.__eq__(1) is NotImplemented
        assert UNIT_SQUARE != "square"

    def test_drops_zero_length(self):
        a = z.body([(0.0, 0.5), (PI / 2, 0.0)])
        assert len(a.angles) == 1

    def test_sorted_by_direction(self):
        a = z.body([(1.2, 1.0), (0.3, 2.0), (2.9, 0.5)])
        angles = a.angles.tolist()
        assert angles == sorted(angles)

    def test_wraparound_merge(self):
        a = z.body([(1e-13, 1.0), (PI - 1e-13, 2.0)])
        assert len(a.angles) == 1
        assert a.lengths[0] == pytest.approx(3.0)

    def test_negative_half_length_rejected(self):
        with pytest.raises(InvalidInputError):
            z.body([(0.0, -1.0)])

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            z.body([], -0.1)


class TestMinkowskiAdd:
    def test_square_plus_disc(self):
        a = S + B
        assert len(a.angles) == 2
        assert a.disc_radius == 1.0

    def test_square_plus_square_merges(self):
        a = S + S
        assert a.lengths.tolist() == [1.0, 1.0]

    def test_area_square_plus_disc(self):
        # independent check: vertex oracle on the polygonized disc
        approx = oracle.polygon(z.vertices(S + bodies.disc_polygon(1.0, 4096)))
        assert oracle.shoelace_area(approx) == pytest.approx(5 + PI, abs=1e-5)
        assert z.area(S + B) == pytest.approx(5 + PI, rel=1e-14)
        # Steiner cross-check m + o + pi
        assert z.area(S + B) == pytest.approx(z.area(S) + z.perimeter(S) + PI, rel=1e-14)


class TestScaleRotate:
    def test_scale_disc(self):
        a = z.scale(B, 2.0)
        assert a.disc_radius == 2.0
        assert z.area(a) == pytest.approx(4 * PI, rel=1e-15)

    def test_scale_to_origin(self):
        assert z.scale(S, 0.0).is_origin

    def test_perimeter_scaled(self):
        assert z.perimeter(z.scale(S, 3.0)) == pytest.approx(12.0, rel=1e-15)

    def test_negative_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            z.scale(S, -1.0)

    def test_rotate_disc_invariant(self):
        for phi in (0.1, 1.0, 3.0):
            assert z.rotate(B, phi) == B

    def test_rotate_square_symmetry(self):
        assert z.hausdorff(z.rotate(S, PI / 2), S) <= 1e-14 * (1 + 2 * z.perimeter(S))

    def test_rotate_preserves_area(self):
        assert z.area(z.rotate(S, 0.3)) == pytest.approx(1.0, rel=1e-12)
        # oracle check on the rotated vertices
        p = oracle.polygon(z.vertices(z.rotate(S, 0.3)))
        assert oracle.shoelace_area(p) == pytest.approx(1.0, rel=1e-12)


class TestSupportWidth:
    def test_disc_support_constant(self):
        for theta in np.linspace(0, 2 * PI, 17):
            assert z.support(B, theta) == pytest.approx(1.0, abs=0)

    def test_square_support(self):
        p = oracle.polygon(z.vertices(S))
        assert z.support(S, 0.0) == pytest.approx(oracle.poly_support(p, 0.0), rel=1e-15)
        assert z.support(S, 0.0) == pytest.approx(0.5)

    def test_segment_no_vertical_extent(self):
        assert z.support(SEG, PI / 2) == pytest.approx(0.0, abs=1e-15)

    def test_disc_width(self):
        assert z.width(B, 0.7) == pytest.approx(2.0)

    def test_square_width(self):
        p = oracle.polygon(z.vertices(S))
        assert z.width(S, 0.0) == pytest.approx(oracle.poly_width(p, 0.0), rel=1e-14)
        assert z.width(S, 0.0) == pytest.approx(1.0)

    def test_segment_width_formula(self):
        for psi, d, phi in [(0.3, 2.0, 1.1), (1.4, 0.5, 0.2), (0.0, 1.0, PI / 3)]:
            seg = z.segment(psi, d)
            expected = 2 * d * abs(math.sin(psi - phi))
            assert z.width(seg, phi) == pytest.approx(expected, rel=1e-12)
            # endpoint-projection oracle
            p = oracle.polygon(z.vertices(seg))
            assert z.width(seg, phi) == pytest.approx(oracle.poly_width(p, phi), rel=1e-12)


class TestAreaPerimeterMixed:
    def test_square_area(self):
        assert z.area(S) == pytest.approx(oracle.shoelace_area(oracle.polygon(z.vertices(S))))
        assert z.area(S) == pytest.approx(1.0, abs=0)

    def test_disc_area(self):
        assert z.area(B) == pytest.approx(PI, abs=0)

    def test_segment_area_zero(self):
        assert z.area(SEG) == 0.0
        # atoms all along one direction, merged by body() and as raw atoms
        assert z.area(z.body([(2.9, 0.5), (2.9 - PI, 0.25), (2.9, 2.0)])) == 0.0
        assert bodies.atom_form([2.9] * 3, [0.5, -0.25, 2.0], 0.0, [2.9] * 3, [0.5, -0.25, 2.0], 0.0) == 0.0

    def test_disc_perimeter(self):
        assert z.perimeter(B) == pytest.approx(2 * PI, abs=0)

    def test_square_perimeter(self):
        assert z.perimeter(S) == pytest.approx(
            oracle.poly_perimeter(oracle.polygon(z.vertices(S)))
        )

    def test_segment_perimeter_limit_quotient(self):
        t = 1e-6
        quotient = (z.area(SEG + z.disc(t)) - z.area(SEG) - z.area(z.disc(t))) / t
        assert z.perimeter(SEG) == pytest.approx(quotient, abs=1e-4)
        assert z.perimeter(SEG) == 4.0

    def test_mixed_area_square_disc(self):
        # definitional oracle via area(S + B)
        expected = (z.area(S + B) - z.area(S) - z.area(B)) / 2
        assert z.mixed_area(S, B) == pytest.approx(expected, rel=1e-14)
        assert z.mixed_area(S, B) == pytest.approx(2.0, rel=1e-14)
        assert z.mixed_area(S, B) == pytest.approx(z.perimeter(S) / 2, rel=1e-14)

    def test_mixed_area_crossed_segments(self):
        assert z.mixed_area(z.segment(0, 1), z.segment(PI / 2, 1)) == pytest.approx(2.0)

    def test_mixed_area_disc_self(self):
        assert z.mixed_area(B, B) == pytest.approx(PI, abs=0)


class TestAtomForm:
    def test_area_matches_shoelace(self, rng):
        for _ in range(100):
            a = random_zonogon(rng, 12)
            got = bodies.atom_form(a.angles, a.lengths, 0.0, a.angles, a.lengths, 0.0)
            assert got == pytest.approx(oracle.shoelace_area(oracle.polygon(z.vertices(a))), rel=1e-9)

    def test_mixed_area_matches_shoelace(self, rng):
        for _ in range(100):
            a, b = random_zonogon(rng, 6), random_zonogon(rng, 6)
            pa, pb = oracle.polygon(z.vertices(a)), oracle.polygon(z.vertices(b))
            want = (oracle.shoelace_area(oracle.poly_sum(pa, pb)) - oracle.shoelace_area(pa) - oracle.shoelace_area(pb)) / 2
            got = bodies.atom_form(a.angles, a.lengths, 0.0, b.angles, b.lengths, 0.0)
            assert got == pytest.approx(want, rel=1e-9)

    def test_disc_terms(self):
        # square (perimeter 4) against a disc of radius 2: 2 * (2 * 2) + 0
        got = bodies.atom_form(S.angles, S.lengths, 0.0, [], [], 2.0)
        assert got == pytest.approx(z.mixed_area(S, z.disc(2.0)), rel=1e-15)
        assert bodies.atom_form([], [], 2.0, [], [], 3.0) == pytest.approx(6 * PI, rel=1e-15)

    def test_batch_rows_equal_single_calls(self, rng):
        k = 7
        angles = rng.uniform(0, PI, (2, 3, k))
        weights = rng.uniform(-1, 1, (2, 3, k)) * (rng.random((2, 3, k)) < 0.7)
        radii = rng.uniform(-1, 1, (2, 3))
        batch = bodies.atom_form(angles, weights, radii, angles[::-1], weights[::-1], radii[::-1])
        assert batch.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one = bodies.atom_form(angles[i, j], weights[i, j], radii[i, j], angles[1 - i, j], weights[1 - i, j], radii[1 - i, j])
                assert batch[i, j].tobytes() == np.float64(one).tobytes()
        # x·x reuses x's sin and cos; copies of x take them again, to the same bits
        shared = bodies.atom_form(angles, weights, radii, angles, weights, radii)
        assert shared.tobytes() == bodies.atom_form(angles, weights, radii, angles.copy(), weights.copy(), radii).tobytes()

    def test_matches_mpmath(self, rng):
        # Within 8ε times atom_form_bound's sum Σ|w1|Σ|w2| + |r1|Σ|w2| + |r2|Σ|w1| + |r1 r2|,
        # far inside the bound (k1, k2 >= 1), near-parallel atoms (gaps 1e-13 .. 1e-6) included.
        def gaps(shape):
            return 10.0 ** rng.uniform(-13, -6, shape) * rng.choice([-1, 1], shape)

        def vector(k, batch):
            angles = rng.uniform(0, PI, (*batch, k))
            angles = np.where(rng.random(angles.shape) < 0.4, np.roll(angles, 1, axis=-1) + gaps(angles.shape), angles)
            return angles, rng.uniform(-1, 1, (*batch, k)), rng.uniform(-1, 1, batch)

        def check(x, y):
            got = np.ravel(bodies.atom_form(*x, *y))
            rows = [[t.reshape(len(got), -1), w.reshape(len(got), -1), np.ravel(r)] for t, w, r in (x, y)]
            for i in range(len(got)):
                (a1, w1, r1), (a2, w2, r2) = ((a[i], w[i], r[i]) for a, w, r in rows)
                assert mixed_area_error(got[i], (a1, w1, r1), (a2, w2, r2)) <= bodies._eps_scaled(8, w1, r1, w2, r2)

        for k in range(1, 25):
            for batch in ((), (), (), (4,)):
                x, y = vector(k, batch), vector(k, batch)
                # y's atoms each near x's, or exactly parallel to them
                y = (x[0] + gaps(x[0].shape) * (rng.random(x[0].shape) < 0.5), *y[1:])
                check(x, x)
                check(x, y)

    def test_support_and_perimeter_batch_rows_equal_single_calls(self, rng):
        k, m = 6, 5
        angles = rng.uniform(0, PI, (2, 3, k))
        weights = rng.uniform(-1, 1, (2, 3, k))
        radii = rng.uniform(-1, 1, (2, 3))
        thetas = rng.uniform(0, 2 * PI, (2, 3, m))
        support = bodies.support_many((angles, weights, radii), thetas)
        perimeter = bodies.perimeter((angles, weights, radii))
        assert support.shape == (2, 3, m) and perimeter.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one = (angles[i, j], weights[i, j], radii[i, j])
                assert support[i, j].tobytes() == bodies.support_many(one, thetas[i, j]).tobytes()
                assert perimeter[i, j].tobytes() == np.float64(bodies.perimeter(one)).tobytes()

    def test_perimeter_within_bound(self, rng):
        # perimeter_bound against 50-digit 4Σw + 2πr: weights of mixed sign over 16 decades, some 0,
        # and k = 1 .. 1024, past numpy's 8-term pairwise blocks; three rows a call
        mpmath = pytest.importorskip("mpmath")
        for k in [*range(1, 41), *rng.integers(41, 1024, 30).tolist(), 1024]:
            weights = 10.0 ** rng.uniform(-8, 8, (3, k)) * rng.choice([-1.0, 0.0, 1.0], (3, k), p=[0.45, 0.1, 0.45])
            radii = rng.uniform(-2, 2, 3) * (rng.random(3) < 0.7)
            got, bound = bodies.perimeter((np.zeros((3, k)), weights, radii)), bodies.perimeter_bound(weights, radii)
            for w, r, g, b in zip(weights.tolist(), radii.tolist(), got.tolist(), bound.tolist()):
                with mpmath.workdps(50):
                    assert abs(mpmath.mpf(g) - (4 * mpmath.fsum(w) + 2 * mpmath.pi * r)) <= b, k

    def test_body_triple_and_lifted_agree(self, rng):
        # A Body, its atom triple and [body, origin] give the same bits.
        thetas = np.linspace(0.0, 2 * PI, 17)
        for _ in range(20):
            a = random_body(rng)
            for x in (a.atoms, z.from_body(a)):
                assert bodies.support_many(x, thetas).tobytes() == bodies.support_many(a, thetas).tobytes()
                assert bodies.perimeter(x) == bodies.perimeter(a)
                assert bodies.sup_norm(x) == bodies.sup_norm(a)


def sweep_vectors(rng, sizes, gaps):
    """Angles, weights (2, k) and radii of two vectors with sizes[0] and sizes[1] atoms on one list.

    About half the atoms sit within a gap of 10**gaps of the atom before
    them, of either vector, or of π across the wrap.
    """
    k = sum(sizes)
    angles = rng.uniform(0, PI, k)
    near = rng.random(k) < 0.5
    angles[near] = np.roll(angles, 1)[near] + 10.0 ** rng.uniform(*gaps, np.count_nonzero(near)) * rng.choice([-1, 1], np.count_nonzero(near))
    angles = bodies.fold(angles)
    owner = rng.permutation(np.repeat([0, 1], sizes))
    weights = np.where(owner == np.arange(2)[:, None], rng.uniform(-1, 1, k), 0.0)
    return angles, weights, rng.uniform(-1, 1, 2) * (rng.random(2) < 0.5)


class TestSweepForm:
    def test_sin_sweep_matches_dense_rows(self, rng):
        angles = np.sort(rng.uniform(0, PI, (3, 2, 9)), axis=-1)
        weights = rng.uniform(-1, 1, (3, 2, 9))
        dense = (np.abs(np.sin(angles[..., :, None] - angles[..., None, :])) @ weights[..., :, None])[..., 0]
        got = bodies.sin_sweep(angles, weights)
        assert got.shape == (3, 2, 9)
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.abs(weights).sum()
        assert got[1, 0].tobytes() == bodies.sin_sweep(angles[1, 0], weights[1, 0]).tobytes()

    def test_matches_mpmath_within_documented_bound(self, rng):
        # 1-40 atoms a side, near-parallel gaps 1e-13 .. 1e-6: x·x, y·y and x·y
        # from one call, each held to sweep_form_bound.
        for k in range(1, 41):
            for sizes in ((k, k), (k, int(rng.integers(1, 41)))):
                angles, weights, radii = sweep_vectors(rng, sizes, (-13, -6))
                got, bound = bodies.sweep_form(angles, weights, radii), bodies.sweep_form_bound(weights, radii)
                for p, q in np.ndindex(2, 2):
                    x, y = ((angles, weights[t], radii[t]) for t in (p, q))
                    assert mixed_area_error(got[p, q], x, y) <= bound[p, q], (k, p, q)

    def test_lone_atom_is_exactly_zero(self, rng):
        for _ in range(200):
            angle, weight = rng.uniform(0, PI), rng.uniform(-4, 4)
            assert bodies.sweep_form(np.array([angle]), np.array([[weight]]), np.zeros(1))[0, 0] == 0.0

    def test_near_parallel_positive_atoms_have_nonnegative_area(self, rng):
        # Each row's error scales with the weights before it, so no weight ratio can flip its sign.
        for k in [2] * 200 + list(range(3, 41)):
            for start in (rng.uniform(0, PI), 0.0, PI - 1e-9):
                gaps = 10.0 ** rng.uniform(-13, -6, k - 1)
                angles = np.mod(start + np.concatenate([[0.0], np.cumsum(gaps)]), PI)
                weights = 10.0 ** rng.uniform(-6, 3, (1, k))
                assert bodies.sweep_form(angles, weights, np.zeros(1))[0, 0] >= 0.0

    def test_zero_atoms_move_no_bit(self, rng):
        for k in range(1, 30):
            angles, weights, radii = sweep_vectors(rng, (k, int(rng.integers(1, 30))), (-13, -1))
            want = bodies.sweep_form(angles, weights, radii).tobytes()
            for pad in (1, 5, 40):
                # zero atoms anywhere in the list, two of them at angle 0; the atoms keep their order
                zero = rng.permutation(np.repeat([False, True], [len(angles), pad + 2]))
                padded_angles, padded_weights = np.zeros(len(zero)), np.zeros((2, len(zero)))
                padded_angles[~zero], padded_weights[:, ~zero] = angles, weights
                padded_angles[zero] = np.concatenate([rng.uniform(0, PI, pad), [0.0, 0.0]])
                assert bodies.sweep_form(padded_angles, padded_weights, radii).tobytes() == want

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 40])
    def test_batch_rows_equal_single_calls(self, rng, c, k):
        # k on both sides of numpy's 8-term pairwise block: a lone item's
        # totals must be summed one atom at a time, as a batch row's are
        angles = rng.uniform(0, PI, (2, 3, k))
        weights = rng.uniform(-1, 1, (2, 3, c, k)) * (rng.random((2, 3, c, k)) < 0.7)
        radii = rng.uniform(-1, 1, (2, 3, c))
        batch = bodies.sweep_form(angles, weights, radii)
        assert batch.shape == (2, 3, c, c)
        for i in range(2):
            for j in range(3):
                assert batch[i, j].tobytes() == bodies.sweep_form(angles[i, j], weights[i, j], radii[i, j]).tobytes()


def two_loop_vertices(a):
    """Vertices by the walk written as two loops of scalar steps, the reference for z.vertices."""
    if not len(a.angles):
        return [[0.0, 0.0]]
    ux = a.lengths * np.cos(a.angles)
    uy = a.lengths * np.sin(a.angles)
    x, y = -ux.sum(), -uy.sum()
    pts = [[float(x), float(y)]]
    for dx, dy in zip(2.0 * ux, 2.0 * uy):
        x += dx
        y += dy
        pts.append([float(x), float(y)])
    for dx, dy in zip(2.0 * ux[:-1], 2.0 * uy[:-1]):
        x -= dx
        y -= dy
        pts.append([float(x), float(y)])
    return pts


class TestVertices:
    def test_square_vertices(self):
        pts = {(round(x, 9), round(y, 9)) for x, y in z.vertices(S).tolist()}
        assert pts == {(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)}
        # cross-check via support equality at 100 angles
        p = oracle.polygon(z.vertices(S))
        for theta in np.linspace(0, 2 * PI, 100):
            assert oracle.poly_support(p, theta) == pytest.approx(z.support(S, theta), abs=1e-12)

    def test_origin(self):
        v = z.vertices(z.ORIGIN)
        assert v.tolist() == [[0.0, 0.0]]
        assert not np.signbit(v).any()  # 0.0, not -0.0

    def test_segment(self):
        pts = {(x, y) for x, y in z.vertices(SEG).tolist()}
        assert pts == {(1.0, 0.0), (-1.0, 0.0)}

    def test_read_only_rows(self):
        for a in (z.ORIGIN, S):
            v = z.vertices(a)
            assert v.dtype == float and v.shape == (max(1, 2 * len(a.angles)), 2)
            with pytest.raises(ValueError):
                v[0, 0] = 1.0

    def test_matches_two_loop_walk_bit_for_bit(self, rng):
        for k in list(range(13)) * 20:
            a = z.body(np.column_stack([rng.uniform(0, PI, k), rng.exponential(1.0, k)]))
            want = np.array(two_loop_vertices(a)).reshape(-1, 2)
            assert z.vertices(a).tobytes() == want.tobytes(), k

    def test_disc_rejected(self):
        with pytest.raises(UnsupportedRepresentationError):
            z.vertices(B)


class TestHausdorff:
    def test_identical(self):
        assert z.hausdorff(B, B) == 0.0

    def test_is_sup_norm_of_the_difference(self, rng):
        # hausdorff(a, b) is the sup norm of [a, b]'s signed atoms, and
        # canonical lifting (cancelling the shared part) does not change it.
        for _ in range(50):
            a, b = random_body(rng), random_body(rng)
            d = z.hausdorff(a, b)
            assert d == bodies.sup_norm(z.LiftedVector(a, b))
            assert z.norm_c(z.lift(a, b)) == pytest.approx(d, rel=1e-12, abs=1e-12)

    def test_square_vs_disc(self):
        assert z.hausdorff(S, B) == pytest.approx(0.5, abs=1e-12)

    def test_square_vs_origin(self):
        assert z.hausdorff(S, z.ORIGIN) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = random_body(rng), random_body(rng)
            assert z.hausdorff(a, b) == pytest.approx(z.hausdorff(b, a), rel=1e-12)

    @staticmethod
    def _pairs(rng):
        """Random pairs, plus discs, empty bodies, shared directions and near-copies."""
        for _ in range(100):
            a, b = random_body(rng, 12), random_body(rng, 12)
            r = float(rng.uniform(0.0, 3.0))
            yield a, b
            yield a, z.ORIGIN
            yield a, z.disc(r)
            yield z.disc(r), z.ORIGIN
            # parallel directions: b shares a's directions, once with the same
            # half-lengths (plus an extra diangle), once with other lengths
            yield a, z.body([*zip(a.angles, a.lengths), (1.0, 0.5)], a.disc_radius)
            yield a, z.body([(t, float(rng.uniform(0.01, 5.0))) for t in a.angles], r)
            yield a, z.rotate(a, 1e-13)
            yield a, z.scale(a, 1.0 + 1e-15)
        yield z.ORIGIN, z.ORIGIN

    def test_matches_grid_oracle(self, rng):
        # The sup over a 4096-point grid is a lower bound, and the sup lies
        # within half a grid step of a grid point, where |h_a - h_b| moves by
        # at most L per radian (L = total half-length).
        thetas = np.linspace(0.0, PI, 4096, endpoint=False)
        for a, b in self._pairs(rng):
            total = float(a.lengths.sum() + b.lengths.sum())
            grid_max = float(np.max(np.abs(bodies.support_many(a, thetas) - bodies.support_many(b, thetas))))
            h = z.hausdorff(a, b)
            assert h >= grid_max - 1e-13 * (1.0 + total), (a, b)
            assert h <= grid_max + total * PI / 8192, (a, b)
            assert h == pytest.approx(z.hausdorff(b, a), rel=0, abs=1e-13 * (1.0 + total)), (a, b)


class TestInvariants:
    def test_support_additivity(self, rng):
        a, b = random_body(rng), random_body(rng)
        c = a + b
        thetas = rng.uniform(0, 2 * PI, 1000)
        lhs = bodies.support_many(c, thetas)
        rhs = bodies.support_many(a, thetas) + bodies.support_many(b, thetas)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)

    def test_valuation_consistency(self, rng):
        for _ in range(100):
            a, b = random_body(rng), random_body(rng)
            lhs = z.area(a + b)
            rhs = z.area(a) + z.area(b) + 2 * z.mixed_area(a, b)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_steiner(self, rng, lam):
        for _ in range(20):
            a = random_body(rng)
            lhs = z.area(a + z.scale(B, lam))
            rhs = z.area(a) + lam * z.perimeter(a) + PI * lam * lam
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rotation_invariance(self, rng):
        for _ in range(50):
            a = random_body(rng)
            phi = float(rng.uniform(0, PI))
            r = z.rotate(a, phi)
            assert z.area(r) == pytest.approx(z.area(a), rel=1e-12)
            assert z.perimeter(r) == pytest.approx(z.perimeter(a), rel=1e-12)
            theta = float(rng.uniform(0, 2 * PI))
            assert z.support(r, theta) == pytest.approx(z.support(a, theta - phi), rel=1e-11)

    def test_cavalieri_sweep(self, rng):
        for _ in range(100):
            u = random_body(rng)
            psi, d = float(rng.uniform(0, PI)), float(rng.uniform(0.01, 5.0))
            lhs = z.area(u + z.segment(psi, d)) - z.area(u)
            assert lhs == pytest.approx(2 * d * z.width(u, psi), rel=1e-10)

    def test_scale_area_quadratic(self, rng):
        for _ in range(20):
            a = random_body(rng)
            lam = float(rng.uniform(0, 4))
            assert z.area(z.scale(a, lam)) == pytest.approx(lam * lam * z.area(a), rel=1e-12)


ANGLES = st.floats(-10.0, 10.0, allow_nan=False)
LENGTHS = st.floats(0.0, 10.0, allow_nan=False)
# The merge's tolerance edges: angles 0 to 3*ANGLE_TOL apart around a
# direction or around pi (which folds to 0), and 9 or more copies of one.
CLUSTER = st.tuples(
    st.sampled_from([0.0, 1.0, PI]), st.lists(st.tuples(st.floats(-3 * ANGLE_TOL, 3 * ANGLE_TOL), LENGTHS), max_size=8)
).map(lambda c: [(c[0] + offset, d) for offset, d in c[1]])
COPIES = st.tuples(ANGLES, st.lists(LENGTHS, min_size=9, max_size=12)).map(lambda c: [(c[0], d) for d in c[1]])


@given(
    pairs=st.lists(st.tuples(ANGLES, LENGTHS), max_size=8),
    edge=st.one_of(st.just([]), CLUSTER, COPIES),
    r=st.floats(0.0, 5.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent_and_support_preserving(pairs, edge, r):
    pairs = pairs + edge
    a = z.body(pairs, r)
    again = z.canonicalize(a.angles, a.lengths, a.disc_radius)
    assert again == a
    assert all(0 <= ang < PI for ang in a.angles)
    assert np.all(np.diff(a.angles) > ANGLE_TOL)
    assert all(d > 0 for d in a.lengths)
    # a group spans at most ANGLE_TOL: each atom lies that close to its kept angle, mod pi
    for ang, d in pairs:
        if d > 0:
            assert np.abs((ang - a.angles + PI / 2) % PI - PI / 2).min() <= ANGLE_TOL + 1e-14
    # canonical form represents the same set
    for theta in (0.0, 0.7, 2.1):
        raw = sum(d * abs(math.cos(theta - ang)) for ang, d in pairs) + r
        assert z.support(a, theta) == pytest.approx(raw, rel=1e-9, abs=1e-9)


def test_json_roundtrip(rng, tmp_path):
    # cli's writer and reader are inverse: a body reads back bit for bit
    path = tmp_path / "body.json"
    for _ in range(20):
        a = random_body(rng)
        path.write_text(cli._dumps(cli._body_dict(a)))
        assert cli._read_body(str(path)) == a


def test_json_errors(tmp_path):
    path = tmp_path / "body.json"
    for text, message in [
        ("{not json", "invalid JSON: "),
        ("[" * 100_000 + "]" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        ('{"diangles": []}', "body JSON missing field 'disc'"),
        ('{"diangles": [{"angle": "0.5", "d": 1}], "disc": 0}', "body JSON malformed: expected a number, got str"),
        ('{"diangles": [{"angle": 1' + "0" * 400 + ', "d": 1}], "disc": 0}', "body JSON malformed: int too large"),
    ]:
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            cli._read_body(str(path))


# The previous forms of rewritten primitives, kept as references: the
# rewrites take fewer numpy calls and must keep every bit.


def reference_fold(angles):
    folded = np.fmod(angles, PI)
    folded[folded < 0.0] += PI
    folded[(folded == 0.0) | (PI - folded <= ANGLE_TOL)] = 0.0
    return folded


def reference_sup_norm(a):
    angles, weights, _ = bodies.atoms_of(a)
    thetas = np.array([0.0])
    if len(angles):
        kinks = np.unique(np.mod(angles + PI / 2, PI))
        mids = 0.5 * (kinks + np.append(kinks[1:], kinks[0] + PI))
        signs = np.sign(np.cos(mids[:, None] - angles))
        A = signs @ (weights * np.cos(angles))
        B = signs @ (weights * np.sin(angles))
        moving = (A != 0.0) | (B != 0.0)
        thetas = np.concatenate([kinks, np.mod(np.arctan2(B[moving], A[moving]), PI)])
    return float(np.max(np.abs(bodies.support_many(a, thetas))))


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestRewrittenPrimitives:
    def test_fold_keeps_its_bits(self, rng):
        multiples = np.arange(-318_310, 318_310, 97) * PI  # multiples of pi up to 1e6
        values = np.concatenate(
            [
                [-0.0, 0.0, PI, -PI, PI - 1e-13, -PI + 1e-13, -1e-300, 1e-300, np.nan],
                multiples,
                np.nextafter(multiples, np.inf),
                np.nextafter(multiples, -np.inf),
                rng.uniform(-4.0, 4.0, 10_000),
            ]
        )
        assert bits(bodies.fold(values.copy())) == bits(reference_fold(values.copy()))
        assert bits(bodies.fold(np.array([-0.0]))) == bits([0.0])

    def test_merge_keeps_one_atom_per_group(self, rng):
        # merge_atoms skips group_starts when every sorted gap is over
        # ANGLE_TOL, a NaN gap not; the rest of the merge is as before, so its
        # bits stay when it keeps as many atoms as group_starts opens groups.
        for _ in range(2000):
            k = int(rng.integers(0, 8))
            gaps = rng.choice([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 1e3], size=k) * ANGLE_TOL
            a = (0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0))) + np.cumsum(gaps)  # from 0.0, exact gaps
            if k and rng.random() < 0.1:
                a[int(rng.integers(k))] = np.nan
            kept, _, _ = bodies.merge_atoms(a, rng.uniform(0.5, 2.0, k))
            assert len(kept) == np.count_nonzero(bodies.group_starts(np.sort(a))), a

    def test_sup_norm_keeps_its_bits(self, rng):
        # coinciding kinks: shared directions, repeated angles and exact
        # multiples of pi/8, with weights of both signs
        for _ in range(500):
            k = int(rng.integers(0, 12))
            angles = rng.integers(0, 8, k) * (PI / 8)
            weights = rng.uniform(-2.0, 2.0, k)
            triple = (angles, weights, float(rng.uniform(-1.0, 1.0)))
            assert bits(bodies.sup_norm(triple)) == bits(reference_sup_norm(triple))
            a = random_body(rng, 12)
            shared = z.body([(t, float(rng.uniform(0.01, 5.0))) for t in a.angles[: int(rng.integers(0, 13))]])
            for x in (a, bodies.signed_atoms(a, shared), bodies.signed_atoms(a, z.scale(a, 2.0))):
                assert bits(bodies.sup_norm(x)) == bits(reference_sup_norm(x))
