import math
import tracemalloc

import numpy as np
import pytest

import zonalg as z
from zonalg import bodies, inequalities, lifted
from zonalg.bodies import PI, UNIT_DISC, UNIT_SQUARE
from zonalg.errors import (
    DegenerateDirectionError,
    DomainError,
    UnsupportedRepresentationError,
)
from zonalg.lifted import DISC_VECTOR, LiftedVector

from conftest import drawn, random_body, random_lifted, random_zonogon, reference_atoms

S = UNIT_SQUARE
B = UNIT_DISC


def trial_values(kind, *trial_bodies):
    """The campaign's (lhs, rhs, checked) for one trial that drew the given bodies."""
    width = max(1, *(len(b.angles) for b in trial_bodies))
    angles, lengths = np.zeros((2, 1, len(trial_bodies), width))
    for i, b in enumerate(trial_bodies):
        angles[0, i, : len(b.angles)], lengths[0, i, : len(b.angles)] = b.angles, b.lengths
    radii = np.array([[b.disc_radius for b in trial_bodies]])
    lhs, rhs, checked = inequalities._values(kind, (angles, lengths, radii))
    return float(lhs[0]), float(rhs[0]), bool(checked[0])


class TestCheckReports:
    # Worked values of the campaign's (lhs, rhs), the pair `check` reports on.
    def test_iso_square_minus_disc(self):
        lhs, rhs, _ = trial_values("iso", S, B)
        assert lhs == pytest.approx((4 - 2 * PI) ** 2, rel=1e-14)
        assert rhs == pytest.approx(4 * PI * (PI - 3), rel=1e-13)
        assert lhs > rhs

    def test_iso_disc_equality(self):
        lhs, rhs, _ = trial_values("iso", B, z.ORIGIN)
        assert lhs - rhs == 0.0

    def test_bm_classical_square_disc(self):
        lhs, rhs, _ = trial_values("bm", S, B)
        expected = math.sqrt(5 + PI) - (1 + math.sqrt(PI))
        assert lhs - rhs == pytest.approx(expected, rel=1e-12)
        assert lhs - rhs > 0.05

    def test_bm_generalized_worked(self):
        lhs, rhs, checked = trial_values("bmgen", z.disc(2.0), S, B, z.ORIGIN)
        assert checked
        assert lhs == pytest.approx((2 * PI - 2) ** 2, rel=1e-13)
        assert rhs == pytest.approx((4 * PI - 7) * PI, rel=1e-13)

    def test_bm_generalized_domain_errors(self):
        # A segment has measure zero: bmgen leaves the trial unchecked, either side.
        seg = z.segment(0.0, 1.0)
        assert not trial_values("bmgen", seg, z.ORIGIN, B, z.ORIGIN)[2]
        assert not trial_values("bmgen", B, z.ORIGIN, seg, z.ORIGIN)[2]

    def test_schwarz_disc_annihilated(self):
        x = random_lifted(np.random.default_rng(7))
        lhs, rhs, _ = trial_values("schwarz", x.plus, x.minus, B, z.ORIGIN)
        assert abs(rhs) <= 1e-10 * (1 + abs(lhs))

    def test_to_dict(self):
        assert set(inequalities.campaign("iso", 3, 0)) == {"violations", "min_slack"}
        assert set(inequalities.campaign("bmgen", 3, 0)) == {"violations", "min_slack", "checked"}


class TestFuzz:
    # Each inequality on canonical lifted vectors, with the campaign's tolerance rules.
    def test_iso_random(self, rng):
        for _ in range(500):
            x = random_lifted(rng)
            assert z.deficit(x) >= -1e-9 * (1 + z.perimeter_ext(x) ** 2)

    def test_bm_generalized_random(self, rng):
        checked = 0
        while checked < 300:
            x, y = random_lifted(rng, 6), random_lifted(rng, 6)
            mx, my = z.measure_ext(x), z.measure_ext(y)
            if mx <= 0 or my <= 0:
                continue
            b2 = z.bilinear_M(x, y) ** 2
            assert b2 - mx * my >= -(1e-9 + 1e-9 * (1 + b2 + mx * my))
            checked += 1

    def test_schwarz_random(self, rng):
        for _ in range(300):
            x, y = random_lifted(rng, 6), random_lifted(rng, 6)
            lhs = math.sqrt(max(z.deficit(x), 0.0)) * math.sqrt(max(z.deficit(y), 0.0))
            e = z.eps_form(x, y)
            assert lhs - e >= -(1e-9 + 1e-9 * (1 + abs(lhs) + abs(e)))


class TestRotationFns:
    def test_E_square_segment(self):
        seg = z.segment(0.0, 0.5)
        # u + rotated segment sweeps width(u) extra area
        assert z.rotation_fn_E(S, seg, [PI / 2])[0] == pytest.approx(2.0, rel=1e-13)

    def test_F_matches_mixed_area(self, rng):
        for _ in range(100):
            u = random_body(rng, 6)
            v = random_zonogon(rng, 6)
            phis = rng.uniform(0, PI, 3)
            expected = [z.mixed_area(u, z.rotate(v, float(phi))) for phi in phis]
            assert z.rotation_fn_F(u, v, phis) == pytest.approx(expected, rel=1e-11)

    def test_E_minus_2F_constant(self, rng):
        # E is written as area(u) + area(v) + 2F; the area of the rotated sum checks that.
        for _ in range(50):
            u = random_zonogon(rng, 6)
            v = random_zonogon(rng, 6)
            const = z.area(u) + z.area(v)
            phis = rng.uniform(0, PI, 5)
            areas = [z.area(u + z.rotate(v, float(phi))) for phi in phis]
            assert np.array(areas) - 2 * z.rotation_fn_F(u, v, phis) == pytest.approx([const] * 5, rel=1e-10)
            assert z.rotation_fn_E(u, v, phis) == pytest.approx(areas, rel=1e-10)

    def test_E_pi_periodic(self, rng):
        u, v = random_zonogon(rng, 6), random_zonogon(rng, 6)
        phis = np.array([0.0, 0.4, 1.3])
        assert z.rotation_fn_E(u, v, phis) == pytest.approx(
            z.rotation_fn_E(u, v, phis + PI), rel=1e-12
        )

    def test_requires_zonogon(self):
        with pytest.raises(UnsupportedRepresentationError):
            z.rotation_fn_E(S, B, [0.1])
        with pytest.raises(UnsupportedRepresentationError):
            z.rotation_fn_F(S, B.atoms, [0.1])


def dense_singular_min(u, v):
    """singular_min by atom_form at every candidate: the first F within 2E
    of the least, E = (k_u + k_v + 24) ε Σ|w_u| Σ|w_v| atom_form's bound."""
    (ua, uw, _), (va, vw, _) = bodies.atoms_of(u), bodies.atoms_of(v)
    cands = inequalities.singular_candidates(u, v)
    values = bodies.atom_form(ua, uw, 0.0, va + cands[:, None], vw, 0.0)
    tie = 2.0 * (len(uw) + len(vw) + 24) * np.finfo(float).eps * np.abs(uw).sum() * np.abs(vw).sum()
    best = int(np.argmax(values <= values.min() + tie))
    return float(cands[best]), float(values[best])


def exact_cross(u, v, phis):
    """50-digit 2 Σ w_i w'_j |sin(a_i - b_j - phi)| at each float phi: F without u's disc term."""
    import mpmath

    with mpmath.workdps(50):
        su = [(mpmath.sin(a), mpmath.cos(a), w) for a, w in zip(map(mpmath.mpf, u.angles.tolist()), u.lengths.tolist())]
        out = []
        for phi in phis:
            turned = [(mpmath.mpf(b) + phi, w) for b, w in zip(v.angles.tolist(), v.lengths.tolist())]
            sv = [(mpmath.sin(t), mpmath.cos(t), w) for t, w in turned]
            out.append(2 * mpmath.fsum(wa * wb * abs(sa * cb - ca * sb) for sa, ca, wa in su for sb, cb, wb in sv))
        return out


class TestSingularMin:
    def test_square_axis_segment(self):
        phi, f = z.singular_min(S, z.segment(0.0, 0.5))
        assert phi == 0.0  # tie with pi/2 broken toward the smaller angle
        assert f == pytest.approx(0.5, abs=1e-14)

    def test_square_diagonal_segment(self):
        phi, f = z.singular_min(S, z.segment(PI / 4, 1.0))
        assert phi == pytest.approx(PI / 4, abs=1e-14)
        assert f == pytest.approx(1.0, rel=1e-14)

    def test_candidates_cover_alignments(self):
        u = z.body([(0.1, 1.0), (1.2, 2.0)])
        v = z.body([(0.4, 1.0), (2.0, 1.0)])
        cands = inequalities.singular_candidates(u, v)
        for ti in (0.1, 1.2):
            for pj in (0.4, 2.0):
                d = (ti - pj) % PI
                assert np.min(np.abs(cands - d)) <= 1e-12

    def test_candidate_beats_dense_grid(self, rng):
        grid = np.linspace(0, PI, 10001)
        for _ in range(200):
            u = random_zonogon(rng, 5)
            v = random_zonogon(rng, 5)
            phi, f = z.singular_min(u, v)
            vals = z.rotation_fn_F(u, v, grid)
            assert vals.min() >= f - 1e-6 * (1 + f)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            z.singular_min(S, z.ORIGIN)

    def test_atom_triples_as_bodies(self, rng):
        for _ in range(50):
            u, v = random_zonogon(rng, 5), random_zonogon(rng, 5)
            if not (len(u.angles) and len(v.angles)):
                continue
            assert z.singular_min(u.atoms, v.atoms) == z.singular_min(u, v)

    def test_triple_checks(self):
        with pytest.raises(UnsupportedRepresentationError):
            z.singular_min(S.atoms, (np.array([0.3]), np.array([1.0]), 0.5))
        with pytest.raises(DomainError):
            z.singular_min((np.array([]), np.array([]), 0.0), S.atoms)

    def test_candidates_of_empty_body(self):
        assert len(inequalities.singular_candidates(B, S)) == 0
        assert len(inequalities.singular_candidates(S, z.ORIGIN)) == 0

    def test_matches_dense_search(self, rng):
        # the sweep picks the candidate and F_min bits of atom_form at every candidate
        pairs = [(random_zonogon(rng, 12), random_zonogon(rng, 12)) for _ in range(500)]
        pairs += [self.regular_tie(k) for k in range(2, 16)]
        for u, v in pairs:
            got, want = z.singular_min(u, v), dense_singular_min(u, v)
            assert [x.hex() for x in got] == [x.hex() for x in want], (u, v)

    def test_atom_form_calls(self, rng, monkeypatch):
        # rotation_fn_F is one sweep; singular_min takes F_min from one atom_form call at one angle
        calls, form = [], inequalities.atom_form

        def spy(*args):
            calls.append(np.shape(args[3]))
            return form(*args)

        monkeypatch.setattr(inequalities, "atom_form", spy)
        monkeypatch.setattr(bodies, "atom_form", spy)
        for _ in range(20):
            u, v = random_zonogon(rng, 12), random_zonogon(rng, 12)
            z.rotation_fn_F(u + z.disc(0.5), v, np.linspace(-PI, PI, 33))
            assert calls == []
            z.singular_min(u, v)
            assert calls == [(1, len(v.angles))]
            calls.clear()

    def test_memory_is_bounded(self, rng):
        # 300+300 atoms: 90,000 candidates, and one (90000, 300, 300) array would take 60 GiB
        u, v = (z.body(np.column_stack([rng.uniform(0, PI, 300), rng.uniform(0.1, 2.0, 300)])) for _ in range(2))
        tracemalloc.start()
        try:
            z.singular_min(u, v)
            z.rotation_fn_F(u, v, np.linspace(0.0, PI, z.rkhs.MAX_NODES, endpoint=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @staticmethod
    def regular_tie(k):
        # u: k unit atoms at j pi/k; v: one at pi/2k.  All k candidates give the same F.
        return (np.arange(k) * (PI / k), np.ones(k), 0.0), (np.array([PI / (2 * k)]), np.ones(1), 0.0)

    def test_regular_ties_pick_the_first_candidate(self):
        for k in range(2, 16):
            u, v = self.regular_tie(k)
            cands = inequalities.singular_candidates(u, v)
            assert len(cands) == k
            assert z.singular_min(u, v)[0] == cands[0], k

    def test_tie_ignores_atom_order(self, rng):
        for k in range(3, 16):
            u, v = self.regular_tie(k)
            want = z.singular_min(u, v)[0]
            for _ in range(24):
                order = rng.permutation(k)
                assert z.singular_min((u[0][order], u[1][order], 0.0), v)[0] == want, (k, order)

    def test_F_within_tie_bound_of_exact(self, rng):
        # F from the sweep at its own phases (singular_min's values) and from
        # rotation_fn_F at every candidate and at angles in [-pi, pi], each
        # within E_s = (6M + 48) ε Σ|w_u| Σ|w_v| of 50-digit F for M sweep
        # points, plus (k_v + 2) ε r_u Σ|w_v| in rotation_fn_F for u's disc.
        mpmath = pytest.importorskip("mpmath")
        eps, grid = np.finfo(float).eps, np.append(np.linspace(-PI, PI, 17), [-1e-13, PI - 1e-13])
        pairs = [(random_body(rng, 6), random_zonogon(rng, 6)) for _ in range(200)]
        for _ in range(10):  # 144 phases each
            u, v = (z.body(np.column_stack([rng.uniform(0, PI, 12), np.exp(rng.uniform(-4, 2, 12))])) for _ in "uv")
            pairs.append((u + z.disc(float(rng.uniform(0.0, 2.0))), v))
        for u, v in pairs:
            n, scale, disc = len(u.angles) * len(v.angles), u.lengths.sum() * v.lengths.sum(), u.disc_radius * v.lengths.sum()
            with mpmath.workdps(50):
                disc_term = 2 * mpmath.mpf(u.disc_radius) * mpmath.fsum(v.lengths.tolist())
            phases, swept, _ = inequalities._pair_sweep(u, v, np.empty(0))
            at = np.concatenate([inequalities.singular_candidates(u, v), grid])
            checks = [
                (phases, 2.0 * swept, 0, (6 * n + 48) * eps * scale),
                (at, z.rotation_fn_F(u, v, at), disc_term, (6 * (n + len(at)) + 48) * eps * scale + (len(v.angles) + 2) * eps * disc),
            ]
            for phis, got, plus, bound in checks:
                for phi, f, want in zip(phis.tolist(), got.tolist(), exact_cross(u, v, phis.tolist())):
                    assert abs(f - (want + plus)) <= bound, (u, v, phi)


class TestReducePair:
    def test_square_vs_segment(self):
        trace = z.reduce_pair(S, z.segment(0.0, 0.5))
        assert len(trace.steps) == 1
        assert trace.witness_sign == 1
        assert trace.witness == z.segment(PI / 2, 0.5)
        assert trace.steps[0].phi_star == 0.0

    def test_hexagon_vs_segment(self):
        hexagon = z.body([(0.0, 1.0), (PI / 3, 1.0), (2 * PI / 3, 1.0)])
        trace = z.reduce_pair(hexagon, z.segment(PI / 6, 1.0))
        assert len(trace.steps) <= 4
        assert trace.witness_sign == 1
        assert len(trace.witness.angles) == 2

    def test_symmetric_pair_reduces_to_origin(self):
        trace = z.reduce_pair(S, z.rotate(S, 0.7))
        assert trace.witness.is_origin
        # half-lengths within NEAR_CANCEL relative cancel completely, no sliver
        near = z.rotate(z.scale(S, 1.0 + 0.3 * inequalities.NEAR_CANCEL), 0.7)
        trace = z.reduce_pair(S, near)
        assert trace.witness.is_origin
        assert [step.joint_sides_after for step in trace.steps] == [0]

    def test_builds_only_the_witness(self, monkeypatch):
        # The loop runs on atom arrays: however many steps, one Body (the
        # witness) and no LiftedVector are built.
        built = {"Body": 0, "LiftedVector": 0}
        body_post_init, lifted_init = bodies.Body.__post_init__, LiftedVector.__init__

        def count_body(self):
            built["Body"] += 1
            body_post_init(self)

        def count_lifted(self, *args):
            built["LiftedVector"] += 1
            lifted_init(self, *args)

        u = z.body([(0.1, 1.0), (0.9, 0.6), (1.7, 1.1), (2.5, 0.3)])
        v = z.body([(0.4, 0.8), (1.3, 0.5), (2.2, 0.7)])
        monkeypatch.setattr(bodies.Body, "__post_init__", count_body)
        monkeypatch.setattr(LiftedVector, "__init__", count_lifted)
        trace = z.reduce_pair(u, v)
        assert len(trace.steps) == 3
        assert built == {"Body": 1, "LiftedVector": 0}

    def test_one_search_per_step(self, monkeypatch):
        calls = []
        search = inequalities.singular_min

        def counted(u, v):
            calls.append((u, v))
            return search(u, v)

        monkeypatch.setattr(inequalities, "singular_min", counted)
        trace = z.reduce_pair(z.body([(0.1, 1.0), (0.9, 0.6), (1.7, 1.1)]), z.body([(0.4, 0.8), (1.3, 0.5)]))
        assert len(calls) == len(trace.steps) > 0

    def test_trace_invariants(self, rng):
        for _ in range(200):
            u = random_zonogon(rng, 6)
            v = random_zonogon(rng, 6)
            if u.is_origin or v.is_origin:
                continue
            trace = z.reduce_pair(u, v)
            assert len(trace.steps) <= len(u.angles) + len(v.angles)
            o0 = z.perimeter(u) - z.perimeter(v)
            m_prev = z.area(u) - 2 * z.mixed_area(u, v) + z.area(v)
            sides_prev = 2 * (len(u.angles) + len(v.angles))
            scale = 1 + abs(o0)
            for step in trace.steps:
                assert step.joint_sides_after < sides_prev
                sides_prev = step.joint_sides_after
                assert step.perimeter_ext == pytest.approx(o0, rel=1e-10, abs=1e-10)
                assert step.measure_ext >= m_prev - 1e-9 * scale * scale
                m_prev = step.measure_ext
            # final witness carries the invariant perimeter difference
            wo = trace.witness_sign * z.perimeter(trace.witness)
            assert wo == pytest.approx(o0, rel=1e-10, abs=1e-9)

    def test_witness_deficit_dominated(self, rng):
        # measure grows along the reduction while perimeter is invariant, so
        # the witness deficit is squeezed between 0 and the initial deficit
        for _ in range(100):
            u = random_zonogon(rng, 5)
            v = random_zonogon(rng, 5)
            if u.is_origin or v.is_origin:
                continue
            trace = z.reduce_pair(u, v)
            d0 = z.deficit(z.lift(u, v))
            dw = z.deficit(z.from_body(trace.witness))
            assert 0.0 <= dw <= d0 + 1e-8 * (1 + d0)

    def test_disc_rejected(self):
        with pytest.raises(UnsupportedRepresentationError):
            z.reduce_pair(S, B)


class TestHyperbolicWitness:
    def test_square_vs_disc(self):
        w = z.hyperbolic_witness(z.from_body(S), DISC_VECTOR)
        assert z.perimeter_ext(w) == pytest.approx(0.0, abs=1e-14)
        assert z.measure_ext(w) == pytest.approx(1 - 4 / PI, rel=1e-13)

    def test_degenerate(self):
        with pytest.raises(DegenerateDirectionError):
            z.hyperbolic_witness(z.from_body(S), lifted.ZERO)

    def test_fuzz_nonpositive_measure(self, rng):
        trials = 0
        while trials < 500:
            u, v = random_lifted(rng, 6), random_lifted(rng, 6)
            try:
                w = z.hyperbolic_witness(u, v)
            except DegenerateDirectionError:
                continue
            trials += 1
            scale = 1 + z.norm(u) + z.norm(v)
            assert z.measure_ext(w) <= 1e-9 * scale * scale


def deficit_vanishes(x, tol=1e-10):
    scale = 1.0 + abs(z.perimeter_ext(x))
    return z.deficit(x) <= tol * scale * scale


class TestEqualityCase:
    def test_disc_translates(self):
        assert deficit_vanishes(z.lift(S + B, S))
        assert deficit_vanishes(z.scale_real(DISC_VECTOR, -3.0))
        assert deficit_vanishes(lifted.ZERO)

    def test_non_disc(self):
        assert not deficit_vanishes(z.from_body(S))
        assert not deficit_vanishes(z.lift(S, B))

    def test_structural_agreement(self, rng):
        # A canonical vector with no diangle left is a disc multiple.
        for _ in range(200):
            x = random_lifted(rng)
            stray = float(x.plus.lengths.sum() + x.minus.lengths.sum())
            if stray <= 1e-10 * (1.0 + abs(z.perimeter_ext(x))):
                assert deficit_vanishes(x)

    def test_strict_positivity_random(self, rng):
        for _ in range(300):
            a = random_zonogon(rng, 8)
            if a.is_origin:
                continue
            x = z.from_body(a)
            assert z.deficit(x) > 0.0
            assert not deficit_vanishes(x)


def reference_campaign(kind, trials, seed, max_diangles, tol):
    """Per trial (lhs, rhs) from the per-object forms (None when bmgen skips it), and the violation count.

    Each trial's bodies come from the scalar reference draw, one Body at a time.
    """
    pairs, violations = [], 0
    for i in range(trials):
        drawn = [
            bodies.canonicalize(*reference_atoms(seed, i, b, max_diangles))
            for b in range(inequalities.CAMPAIGN_BODIES[kind])
        ]
        if kind == "bm":
            u, v = drawn
            lhs = math.sqrt(z.area(u + v))
            rhs = math.sqrt(z.area(u)) + math.sqrt(z.area(v))
        else:
            x = z.lift(*drawn[:2])
            if kind == "iso":
                lhs, rhs = z.perimeter_ext(x) ** 2, 4 * PI * z.measure_ext(x)
            else:
                y = z.lift(*drawn[2:])
                if kind == "bmgen":
                    if z.measure_ext(x) <= 0 or z.measure_ext(y) <= 0:
                        pairs.append(None)
                        continue
                    lhs, rhs = z.bilinear_M(x, y) ** 2, z.measure_ext(x) * z.measure_ext(y)
                else:
                    lhs = math.sqrt(max(z.deficit(x), 0.0)) * math.sqrt(max(z.deficit(y), 0.0))
                    rhs = z.eps_form(x, y)
        pairs.append((lhs, rhs))
        if kind == "iso":
            violations += lhs - rhs < -tol * (1 + lhs)
        else:
            violations += not lhs - rhs >= -(tol + tol * (1 + abs(lhs) + abs(rhs)))
    return pairs, violations


def schwarz_tolerance(seed, trial, max_diangles, ref_rhs):
    """Bound on |campaign slack - reference slack| for one schwarz trial.

    Each slack is off from the exact one at the drawn doubles by its own
    bound, to first order in ε.  Vector p = [u, v] has k_p atoms, P_p =
    Σ|w| + |r| and O_p = 4Σ|w| + 2π|r| >= |o_p|, and |B(x_p, x_q)| <= π P_p P_q.
    Its perimeter is off by e_o = (k_p + 2)ε O_p, and B(x_p, x_q) by
    e_B = c ε P_p P_q: c = 3k + 10 for sweep_form (the campaign), k the atoms
    of x_p or x_q, and c = k_p + k_q + 16 for atom_form (the reference).  So

        d = o² − 4πm  is off by  E_d = (2O + e_o) e_o + 4π e_B + 2ε(O² + 4π² P²),
        rhs = o_x o_y − 4πB  by   E_r = O_x e_oy + O_y e_ox + e_ox e_oy + 4π e_B + 2ε(O_x O_y + 4π² P_x P_y).

    Every d, exact or computed, lies within G = ΣE_d (both sides') of the
    reference's, so √max(d, 0) lies in [lo, hi] = √max(d_ref ∓ G, 0), and
    |√a − √b| <= min(√|a − b|, |a − b| / (2 lo)) gives each side's error δ
    of √max(d, 0).  Then lhs = √dx √dy is off by hi_x δ_y + hi_y δ_x, and the
    roundings of the roots, the product and lhs − rhs add 3ε(hi_x hi_y + |rhs|).
    """
    eps = np.finfo(float).eps
    b = drawn(seed, trial, 4, max_diangles)
    vectors = []
    for u, v in (b[:2], b[2:]):
        total, r = u.lengths.sum() + v.lengths.sum(), abs(u.disc_radius - v.disc_radius)
        vectors.append((len(u.angles) + len(v.angles), total + r, 4 * total + 2 * PI * r, z.deficit(z.lift(u, v))))
    k, p, o, d = np.array(vectors).T
    e_o = (k + 2) * eps * o
    bounds = []  # (E_d of x and y, E_r) of the campaign, then of the reference
    for c_m, c_b in ((3 * k + 10, 3 * k.sum() + 10), (2 * k + 16, k.sum() + 16)):
        e_d = (2 * o + e_o) * e_o + 4 * PI * c_m * eps * p * p + 2 * eps * (o * o + 4 * PI * PI * p * p)
        e_r = o[0] * e_o[1] + o[1] * e_o[0] + e_o[0] * e_o[1] + 4 * PI * c_b * eps * p[0] * p[1]
        bounds.append((e_d, e_r + 2 * eps * (o[0] * o[1] + 4 * PI * PI * p[0] * p[1])))
    gap = bounds[0][0] + bounds[1][0]
    hi, lo = np.sqrt(np.maximum(d + gap, 0.0)), np.sqrt(np.maximum(d - gap, 0.0))
    tolerance = 0.0
    for e_d, e_r in bounds:
        with np.errstate(divide="ignore"):
            delta = np.minimum(np.sqrt(e_d), e_d / (2 * lo))  # lo = 0 leaves √E_d
        tolerance += hi[0] * delta[1] + hi[1] * delta[0] + e_r + 3 * eps * (hi[0] * hi[1] + abs(ref_rhs))
    return float(tolerance)


# Negative tolerances split the trials into violations and passes, so that
# the counts test the violation rules themselves.
SPLIT_TOL = {"iso": -1.1, "bm": -0.1, "bmgen": -0.4, "schwarz": -0.85}


class TestCampaign:
    @pytest.mark.parametrize("max_diangles", [1, 3, 10, 60, 300])
    @pytest.mark.parametrize("kind", sorted(inequalities.CAMPAIGN_BODIES))
    def test_matches_per_object_checks(self, kind, max_diangles):
        trials, seed = (60 if max_diangles <= 10 else 8), 5
        lhs, rhs, checked = inequalities.campaign_values(kind, seed, range(trials), max_diangles)
        pairs, _ = reference_campaign(kind, trials, seed, max_diangles, 1e-9)
        assert list(checked) == [pair is not None for pair in pairs]
        for i, pair in enumerate(pairs):
            if pair is not None:
                ref_lhs, ref_rhs = pair
                if kind == "schwarz":
                    scale = schwarz_tolerance(seed, i, max_diangles, ref_rhs)
                else:
                    scale = 1e-12 * (1 + abs(ref_lhs) + abs(ref_rhs))
                assert abs((lhs[i] - rhs[i]) - (ref_lhs - ref_rhs)) <= scale, (i, pair)
        for tol in (1e-9, 0.0, SPLIT_TOL[kind]):
            pairs, violations = reference_campaign(kind, trials, seed, max_diangles, tol)
            slacks = [lhs - rhs for lhs, rhs in filter(None, pairs)]
            got = inequalities.campaign(kind, trials, seed, max_diangles, tol)
            assert type(got["violations"]) is int
            assert got["violations"] == violations
            assert got["min_slack"] == pytest.approx(min(slacks), rel=1e-12, abs=1e-12)
            if kind == "bmgen":
                assert type(got["checked"]) is int
                assert got["checked"] == len(slacks)
            else:
                assert "checked" not in got

    @pytest.mark.parametrize("kind", sorted(inequalities.CAMPAIGN_BODIES))
    def test_split_tolerance_counts_some_violations(self, kind):
        got = inequalities.campaign(kind, 60, 5, 10, SPLIT_TOL[kind])
        assert 0 < got["violations"] < got.get("checked", 60)

    @pytest.mark.parametrize("kind", sorted(inequalities.CAMPAIGN_BODIES))
    def test_empty_campaign(self, kind):
        got = inequalities.campaign(kind, 0, 3, 10, 1e-9)
        assert got["violations"] == 0 and got["min_slack"] is None
        assert all(len(t) == 0 for t in inequalities.campaign_values(kind, 3, range(0)))
        assert got.get("checked", 0) == 0

    @staticmethod
    def assert_trial_bits_alone_as_in_batch(kind, max_diangles):
        batch = inequalities.campaign_values(kind, 11, range(300), max_diangles)
        for i in (0, 1, 57, 150, 299):
            alone = inequalities.campaign_values(kind, 11, range(i, i + 1), max_diangles)
            for whole, one in zip(batch, alone):
                assert whole[i].tobytes() == one[0].tobytes()

    @pytest.mark.parametrize("kind", sorted(inequalities.CAMPAIGN_BODIES))
    def test_trial_bits_do_not_depend_on_batch(self, kind, monkeypatch):
        self.assert_trial_bits_alone_as_in_batch(kind, 10)
        whole = inequalities.campaign(kind, 300, 11, 10, 1e-9)
        # draw chunks of 7 trials (2 m + 3 outputs per body)
        monkeypatch.setattr(inequalities, "DRAW_ENTRIES", 7 * 23 * inequalities.CAMPAIGN_BODIES[kind])
        assert inequalities.campaign(kind, 300, 11, 10, 1e-9) == whole

    @pytest.mark.parametrize("kind", sorted(inequalities.CAMPAIGN_BODIES))
    def test_trial_bits_do_not_depend_on_batch_at_width_300(self, kind):
        # Every trial is padded to max_diangles, and sweep_form's zero atoms move no bit.
        self.assert_trial_bits_alone_as_in_batch(kind, 300)

    @pytest.mark.parametrize("kind", sorted(inequalities.CAMPAIGN_BODIES))
    def test_campaign_never_calls_atom_form(self, kind, monkeypatch):
        want = inequalities.campaign(kind, 60, 5, 10, 1e-9)

        def banned(*args):
            raise AssertionError("the campaign called atom_form")

        monkeypatch.setattr(bodies, "atom_form", banned)
        monkeypatch.setattr(inequalities, "atom_form", banned)
        assert inequalities.campaign(kind, 60, 5, 10, 1e-9) == want

    def test_wide_campaign_memory_is_bounded(self):
        # 20 trials of 4 bodies of up to 1024 atoms: no (trials, k, k) array
        tracemalloc.start()
        try:
            inequalities.campaign("bmgen", 20, 3, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_trial_index_below_2_64(self):
        # draw_atoms' counter is a uint64, so trial 2**64 would repeat trial 0
        lhs, rhs, checked = inequalities.campaign_values("iso", 3, range(2**64 - 2, 2**64))
        assert len(lhs) == len(rhs) == len(checked) == 2
        for trials in (range(2**64 - 1, 2**64 + 1), range(-1, 1)):
            with pytest.raises(DomainError):
                inequalities.campaign_values("iso", 3, trials)
