import math

import numpy as np
import pytest

import zonalg as z
from zonalg import bodies, cli, lifted
from zonalg.bodies import ANGLE_TOL, PI, UNIT_DISC, UNIT_SQUARE
from zonalg.errors import InvalidInputError
from zonalg.lifted import DISC_VECTOR, ZERO, LiftedVector

from conftest import mixed_area_50, random_body, random_lifted

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


def eps_form_error(got, x, y):
    """|got - eps_form(x, y)|, the form 16·Σw·Σw' - 4π·B₀ taken to 50 digits at the atoms' doubles."""
    mpmath = pytest.importorskip("mpmath")
    (ax, wx, _), (ay, wy, _) = x.atoms, y.atoms
    with mpmath.workdps(50):
        sums = [mpmath.fsum(mpmath.mpf(w) for w in ws.tolist()) for ws in (wx, wy)]
        exact = 16 * sums[0] * sums[1] - 4 * mpmath.pi * mixed_area_50((ax, wx, 0.0), (ay, wy, 0.0))
        return float(abs(mpmath.mpf(got) - exact))


def near_disc(rng, radius, k, half_length=1e-8):
    """disc(radius) plus k segments of half-length about half_length in random directions."""
    return z.from_body(bodies.canonicalize(rng.uniform(0, PI, k), half_length * rng.uniform(0.5, 1.5, k), radius))


class TestDeficit:
    def test_disc_zero(self):
        assert z.deficit(DISC_VECTOR) == 0.0

    def test_every_disc_multiple_is_exactly_zero(self, rng):
        # No disc term is formed, so nothing is left to cancel.
        radii = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 10_000))
        assert [r for r in radii.tolist() if z.deficit(z.from_body(z.disc(r))) != 0.0] == []
        for lam in (-3.0, -1e-3, 7.5):
            assert z.deficit(z.scale_real(DISC_VECTOR, lam)) == 0.0

    def test_near_disc_is_positive(self, rng):
        # The disc adds nothing to the form, so a polygon of size 1e-8 on a disc
        # of radius 100 keeps its own deficit: > 0 unless its atoms are parallel.
        for _ in range(2000):
            x = near_disc(rng, 100.0, int(rng.integers(1, 13)))
            assert z.deficit(x) > 0.0, x

    def test_square_minus_disc(self):
        assert z.deficit(SB) == pytest.approx(16 - 4 * PI, rel=1e-14)

    def test_square(self):
        assert z.deficit(z.from_body(S)) == pytest.approx(16 - 4 * PI, rel=1e-14)


class TestEpsForm:
    def test_disc_annihilates(self, rng):
        for _ in range(100):
            assert z.eps_form(random_lifted(rng), DISC_VECTOR) == 0.0

    def test_diagonal_is_deficit(self, rng):
        for _ in range(100):
            x = random_lifted(rng)
            fresh = LiftedVector(x.plus, x.minus)
            assert np.float64(z.eps_form(x, x)).tobytes() == np.float64(z.deficit(fresh)).tobytes()

    def test_square_diagonal(self):
        x = z.from_body(S)
        assert z.eps_form(x, x) == pytest.approx(16 - 4 * PI, rel=1e-14)

    def test_within_bound_of_exact(self, rng):
        # Random pairs in both orders and with themselves, disc multiples among them,
        # and disc(R) + δ·P, whose deficit is δ² times P's: each value is within
        # eps_form_bound of the 50-digit form at its doubles.
        pairs = []
        for _ in range(60):
            x, y = random_lifted(rng, 6), random_lifted(rng, 6)
            pairs += [(x, y), (y, x), (x, x)]
        for radius in (0.0, 1.0, 3.0, 100.0):
            d = z.scale_real(DISC_VECTOR, radius)
            x = random_lifted(rng, 6)
            pairs += [(d, d), (x, d), (d, x)]
        for radius in (1.0, 100.0):
            p = near_disc(rng, 0.0, 12, 1.0)
            for delta in (1e-2, 1e-4, 1e-6, 1e-8):
                x = z.add(z.scale_real(DISC_VECTOR, radius), z.scale_real(p, delta))
                assert z.deficit(x) > 0.0
                pairs.append((x, x))
        for x, y in pairs:
            assert eps_form_error(z.eps_form(x, y), x, y) <= lifted.eps_form_bound(x, y), (x, y)


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


def reference_lift(u, v):
    """lift's full merge-and-split path, which it skips when nothing merges."""
    angles, weights, _ = bodies.merge_atoms(*bodies.signed_atoms(u, v)[:2])
    while np.count_nonzero(np.diff(angles) <= ANGLE_TOL):
        angles, weights, _ = bodies.merge_atoms(angles, weights)
    plus = weights > 0.0
    r = min(u.disc_radius, v.disc_radius)
    return LiftedVector(
        bodies.Body(angles[plus], weights[plus], u.disc_radius - r), bodies.Body(angles[~plus], -weights[~plus], v.disc_radius - r)
    )


def body_bits(a) -> tuple[bytes, bytes, bytes]:
    return a.angles.tobytes(), a.lengths.tobytes(), np.float64(a.disc_radius).tobytes()


def lift_pairs(rng, count):
    """Random canonical pairs: v's atoms lie at fresh angles, at u's angles
    exactly (once with u's lengths) or 0.5-2 ANGLE_TOL from them; either side
    may be empty, and the discs are 0.0, -0.0, drawn or equal."""
    for _ in range(count):
        ku, kv = (int(k) for k in rng.integers(0, 8, 2))
        ua = rng.uniform(0.0, PI, ku)
        u = bodies.canonicalize(ua, np.exp(rng.uniform(-3.0, 2.0, ku)))
        how = rng.choice(["fresh", "shared", "same", "near"], size=kv)
        anchors = u.angles[rng.integers(0, len(u.angles), kv)] if len(u.angles) else rng.uniform(0.0, PI, kv)
        offsets = rng.choice([-1.0, 1.0], kv) * rng.uniform(0.5, 2.0, kv) * ANGLE_TOL
        va = np.where(how == "fresh", rng.uniform(0.0, PI, kv), anchors + np.where(how == "near", offsets, 0.0))
        vw = np.exp(rng.uniform(-3.0, 2.0, kv))
        if len(u.angles):
            same = how == "same"
            vw[same] = u.lengths[np.searchsorted(u.angles, va[same])]
        v = bodies.canonicalize(va, vw)
        discs = [0.0, -0.0, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0))]
        du, dv = (discs[int(i)] for i in rng.integers(0, 4, 2))
        if rng.random() < 0.1:
            dv = du
        yield bodies.Body(u.angles, u.lengths, du), bodies.Body(v.angles, v.lengths, dv)


class TestLiftKeepsItsBits:
    def test_lift_is_the_merge_and_split(self, rng):
        kept = 0
        for u, v in lift_pairs(rng, 2500):
            x, want = z.lift(u, v), reference_lift(u, v)
            assert (body_bits(x.plus), body_bits(x.minus)) == (body_bits(want.plus), body_bits(want.minus)), (u, v)
            assert z.lift(x.plus, x.minus) == x
            kept += x.plus is u and x.minus is v
        assert 200 <= kept <= 2300, kept  # both paths ran

    def test_lift_stats_is_each_form_on_its_own(self, rng):
        # _lift_stats reads each form once; its values are those of the forms
        # called one by one on fresh vectors, and of their formulas written out.
        for u, v in lift_pairs(rng, 300):
            x = z.lift(u, v)
            got = cli._lift_stats(x)

            def fresh():
                return LiftedVector(x.plus, x.minus)

            one_by_one = {
                "measure": z.measure_ext(fresh()),
                "perimeter": z.perimeter_ext(fresh()),
                "deficit": z.deficit(fresh()),
                "norm": z.norm(fresh()),
                "norm_c": z.norm_c(fresh()),
                "norm_bp": z.norm_bp(fresh()),
            }
            a, w, _ = x.atoms
            m = float(bodies.atom_form(*x.atoms, *x.atoms))
            o = float(bodies.perimeter(x.atoms))
            d = float(16.0 * (w.sum() * w.sum()) - 4.0 * PI * bodies.atom_form(a, w, 0.0, a, w, 0.0))
            written = {
                "measure": m,
                "perimeter": o,
                "deficit": d,
                "norm": math.sqrt(max((o * o + d) / (4.0 * PI * PI), 0.0)),
                "norm_c": bodies.sup_norm(x.atoms),
                "norm_bp": bodies.sup_norm(x.plus) + bodies.sup_norm(x.minus),
            }
            for want in (one_by_one, written):
                assert {k: np.float64(g).tobytes() for k, g in got.items()} == {
                    k: np.float64(w).tobytes() for k, w in want.items()
                }
            assert np.float64(z.bilinear_M(x, x)).tobytes() == np.float64(z.bilinear_M(x, fresh())).tobytes()


def vector_bits(x) -> tuple:
    return body_bits(x.plus), body_bits(x.minus)


# The factors of the arithmetic tests: signed zeros, ±1, and tiny factors whose products underflow to subnormals or 0.
FACTORS = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300, -1e-300, 1e-320]


def arithmetic_pairs(seed, count):
    """Lifted pairs from sides of 0-13 atoms, a third of them on multiples of
    pi/8, 30% of them with a disc; every seventh y takes x's plus angles with
    scaled lengths, so x and y share directions exactly."""
    rng = np.random.default_rng(seed)

    def side(angles=None):
        if angles is None:
            k = int(rng.integers(0, 14))
            angles = rng.integers(0, 8, k) * (PI / 8) if rng.random() < 1 / 3 else rng.uniform(0.0, PI, k)
        radius = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.3 else 0.0
        return bodies.canonicalize(angles, np.exp(rng.uniform(-3.0, 2.0, len(angles))), radius)

    for i in range(count):
        x = z.lift(side(), side())
        y = z.lift(side(x.plus.angles if i % 7 == 0 else None), side())
        yield x, y, float(rng.uniform(-3.0, 3.0))


class TestArithmeticIsOneLift:
    """add, - and scale_real merge the atoms once, with no intermediate Body,
    and give the bits of the Body arithmetic lifted afterwards."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_bits_as_body_arithmetic(self, seed):
        for x, y, drawn_factor in arithmetic_pairs(seed, 1000):
            assert vector_bits(z.add(x, y)) == vector_bits(z.lift(x.plus + y.plus, x.minus + y.minus))
            assert vector_bits(x - y) == vector_bits(z.lift(x.plus + y.minus, x.minus + y.plus))
            for lam in [*FACTORS, drawn_factor]:
                if lam < 0:
                    want = z.neg(z.lift(z.scale(x.plus, -lam), z.scale(x.minus, -lam)))
                else:
                    want = z.lift(z.scale(x.plus, lam), z.scale(x.minus, lam))
                assert vector_bits(z.scale_real(x, lam)) == vector_bits(want), lam

    def test_no_canonicalize(self, rng, monkeypatch):
        x, y = random_lifted(rng), random_lifted(rng)
        calls = []
        canonicalize = bodies.canonicalize
        monkeypatch.setattr(bodies, "canonicalize", lambda *args: calls.append(args) or canonicalize(*args))
        z.add(x, y)
        x - y
        z.scale_real(x, -2.5)
        assert len(calls) == 0

    def test_lift_takes_any_atom_holder(self, rng):
        for _ in range(2000):
            x, y = random_lifted(rng), random_lifted(rng)
            assert vector_bits(z.lift(x, y)) == vector_bits(x - y)
            assert vector_bits(z.lift(x.atoms, z.ORIGIN)) == vector_bits(x)


def test_forms_symmetric_bit_for_bit():
    # each form takes its operands in one order, fixed by their bytes
    rng = np.random.default_rng(0)
    for _ in range(2000):
        x, y = random_lifted(rng), random_lifted(rng)
        for form in (z.eps_form, z.bilinear_M, z.inner):
            assert np.float64(form(x, y)).tobytes() == np.float64(form(y, x)).tobytes(), form.__name__
