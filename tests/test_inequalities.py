import math

import numpy as np
import pytest

import zonalg as z
from zonalg import bodies, generators, inequalities, lifted
from zonalg.bodies import PI, UNIT_DISC, UNIT_SQUARE
from zonalg.errors import (
    DegenerateDirectionError,
    DomainError,
    UnsupportedRepresentationError,
)
from zonalg.lifted import DISC_VECTOR, LiftedVector

from conftest import random_body, random_lifted, random_zonogon

S = UNIT_SQUARE
B = UNIT_DISC


class TestCheckReports:
    def test_iso_square_minus_disc(self):
        rep = z.check_isoperimetric(z.lift(S, B))
        assert rep.holds
        assert rep.lhs == pytest.approx((4 - 2 * PI) ** 2, rel=1e-14)
        assert rep.rhs == pytest.approx(4 * PI * (PI - 3), rel=1e-13)
        assert rep.slack == pytest.approx(rep.lhs - rep.rhs, abs=0)

    def test_iso_disc_equality(self):
        rep = z.check_isoperimetric(DISC_VECTOR)
        assert rep.holds
        assert rep.slack == 0.0

    def test_bm_classical_square_disc(self):
        rep = z.check_bm_classical(S, B)
        assert rep.holds
        expected = math.sqrt(5 + PI) - (1 + math.sqrt(PI))
        assert rep.slack == pytest.approx(expected, rel=1e-12)
        assert rep.slack > 0.05

    def test_bm_generalized_worked(self):
        x = z.lift(z.disc(2.0), S)
        rep = z.check_bm_generalized(x, DISC_VECTOR)
        assert rep.holds
        assert rep.lhs == pytest.approx((2 * PI - 2) ** 2, rel=1e-13)
        assert rep.rhs == pytest.approx((4 * PI - 7) * PI, rel=1e-13)

    def test_bm_generalized_domain_errors(self):
        good = DISC_VECTOR
        bad = z.from_body(z.segment(0.0, 1.0))  # a segment has measure zero
        with pytest.raises(DomainError, match="first"):
            z.check_bm_generalized(bad, good)
        with pytest.raises(DomainError, match="second"):
            z.check_bm_generalized(good, bad)

    def test_schwarz_disc_annihilated(self):
        x = random_lifted(np.random.default_rng(7))
        rep = z.check_schwarz_deficit(x, DISC_VECTOR)
        assert rep.holds
        assert abs(rep.rhs) <= 1e-10 * (1 + abs(rep.lhs))

    def test_to_dict(self):
        d = z.check_isoperimetric(DISC_VECTOR).to_dict()
        assert set(d) == {"holds", "lhs", "rhs", "slack", "tolerance"}


class TestFuzz:
    def test_iso_random(self, rng):
        for _ in range(500):
            x = random_lifted(rng)
            rep = z.check_isoperimetric(x)
            assert rep.holds, rep

    def test_bm_generalized_random(self, rng):
        checked = 0
        while checked < 300:
            x, y = random_lifted(rng, 6), random_lifted(rng, 6)
            if z.measure_ext(x) <= 0 or z.measure_ext(y) <= 0:
                continue
            assert z.check_bm_generalized(x, y).holds
            checked += 1

    def test_schwarz_random(self, rng):
        for _ in range(300):
            x, y = random_lifted(rng, 6), random_lifted(rng, 6)
            assert z.check_schwarz_deficit(x, y).holds


class TestRotationFns:
    def test_E_square_segment(self):
        seg = z.segment(0.0, 0.5)
        # u + rotated segment sweeps width(u) extra area
        assert z.rotation_fn_E(S, seg, PI / 2) == pytest.approx(2.0, rel=1e-13)

    def test_F_matches_mixed_area(self, rng):
        for _ in range(100):
            u = random_body(rng, 6)
            v = random_zonogon(rng, 6)
            phi = float(rng.uniform(0, PI))
            expected = z.mixed_area(u, z.rotate(v, phi))
            assert z.rotation_fn_F(u, v, phi) == pytest.approx(expected, rel=1e-11)

    def test_E_minus_2F_constant(self, rng):
        for _ in range(50):
            u = random_zonogon(rng, 6)
            v = random_zonogon(rng, 6)
            const = z.area(u) + z.area(v)
            for phi in rng.uniform(0, PI, 5):
                diff = z.rotation_fn_E(u, v, float(phi)) - 2 * z.rotation_fn_F(u, v, float(phi))
                assert diff == pytest.approx(const, rel=1e-10)

    def test_E_pi_periodic(self, rng):
        u, v = random_zonogon(rng, 6), random_zonogon(rng, 6)
        for phi in (0.0, 0.4, 1.3):
            assert z.rotation_fn_E(u, v, phi) == pytest.approx(
                z.rotation_fn_E(u, v, phi + PI), rel=1e-12
            )

    def test_requires_zonogon(self):
        with pytest.raises(UnsupportedRepresentationError):
            z.rotation_fn_E(S, B, 0.1)


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
            vals = inequalities._rotation_fn_F_many(u, v, grid)
            assert vals.min() >= f - 1e-6 * (1 + f)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            z.singular_min(S, z.ORIGIN)

    def test_candidates_of_empty_body(self):
        assert len(inequalities.singular_candidates(B, S)) == 0
        assert len(inequalities.singular_candidates(S, z.ORIGIN)) == 0


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
        assert len(trace.witness.diangles) == 2

    def test_symmetric_pair_reduces_to_origin(self):
        trace = z.reduce_pair(S, z.rotate(S, 0.7))
        assert trace.witness.is_origin

    def test_trace_invariants(self, rng):
        for _ in range(200):
            u = random_zonogon(rng, 6)
            v = random_zonogon(rng, 6)
            if u.is_origin or v.is_origin:
                continue
            trace = z.reduce_pair(u, v)
            assert len(trace.steps) <= len(u.diangles) + len(v.diangles)
            o0 = z.perimeter(u) - z.perimeter(v)
            m_prev = z.area(u) - 2 * z.mixed_area(u, v) + z.area(v)
            sides_prev = 2 * (len(u.diangles) + len(v.diangles))
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


class TestEqualityCase:
    def test_disc_translates(self):
        assert z.equality_case_check(z.lift(S + B, S))
        assert z.equality_case_check(z.scale_real(DISC_VECTOR, -3.0))
        assert z.equality_case_check(lifted.ZERO)

    def test_non_disc(self):
        assert not z.equality_case_check(z.from_body(S))
        assert not z.equality_case_check(z.lift(S, B))

    def test_structural_agreement(self, rng):
        for _ in range(200):
            x = random_lifted(rng)
            if inequalities.is_disc_multiple(x):
                assert z.equality_case_check(x)

    def test_strict_positivity_random(self, rng):
        for _ in range(300):
            a = random_zonogon(rng, 8)
            if a.is_origin:
                continue
            x = z.from_body(a)
            assert z.deficit(x) > 0.0
            assert not z.equality_case_check(x)


def reference_campaign(kind, trials, seed, max_diangles, tol):
    """One check_* report per trial (None when bmgen skips it) and the violation count."""
    reports, violations = [], 0
    for i in range(trials):
        rng = generators.trial_rng(seed, i)
        if kind == "bm":
            u, v = random_body(rng, max_diangles), random_body(rng, max_diangles)
            rep = z.check_bm_classical(u, v, tol, tol)
        else:
            x = random_lifted(rng, max_diangles)
            if kind == "iso":
                rep = z.check_isoperimetric(x, tol, tol)
            else:
                y = random_lifted(rng, max_diangles)
                if kind == "bmgen" and (z.measure_ext(x) <= 0 or z.measure_ext(y) <= 0):
                    reports.append(None)
                    continue
                check = z.check_bm_generalized if kind == "bmgen" else z.check_schwarz_deficit
                rep = check(x, y, tol, tol)
        reports.append(rep)
        violations += rep.slack < -tol * (1 + rep.lhs) if kind == "iso" else not rep.holds
    return reports, violations


# Negative tolerances split the trials into violations and passes, so that
# the counts test the violation rules themselves.
SPLIT_TOL = {"iso": -1.1, "bm": -0.1, "bmgen": -0.4, "schwarz": -0.85}


class TestCampaign:
    @pytest.mark.parametrize("max_diangles", [1, 3, 10, 60, 300])
    @pytest.mark.parametrize("kind", sorted(inequalities.CAMPAIGN_BODIES))
    def test_matches_per_object_checks(self, kind, max_diangles):
        trials, seed = (60 if max_diangles <= 10 else 8), 5
        lhs, rhs, checked = inequalities.campaign_values(kind, seed, range(trials), max_diangles)
        reports, _ = reference_campaign(kind, trials, seed, max_diangles, 1e-9)
        assert list(checked) == [rep is not None for rep in reports]
        for i, rep in enumerate(reports):
            if rep is not None:
                scale = 1e-12 * (1 + abs(rep.lhs) + abs(rep.rhs))
                assert abs((lhs[i] - rhs[i]) - rep.slack) <= scale, (i, rep)
        for tol in (1e-9, 0.0, SPLIT_TOL[kind]):
            reports, violations = reference_campaign(kind, trials, seed, max_diangles, tol)
            done = [rep for rep in reports if rep is not None]
            got = inequalities.campaign(kind, trials, seed, max_diangles, tol)
            assert type(got["violations"]) is int
            assert got["violations"] == violations
            assert got["min_slack"] == pytest.approx(min(rep.slack for rep in done), rel=1e-12, abs=1e-12)
            if kind == "bmgen":
                assert type(got["checked"]) is int
                assert got["checked"] == len(done)
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
        # draw chunks of 7 trials (2 m + 3 outputs per body), sine batches of at most 7 trials
        monkeypatch.setattr(inequalities, "DRAW_ENTRIES", 7 * 23 * inequalities.CAMPAIGN_BODIES[kind])
        monkeypatch.setattr(inequalities, "CHUNK_ENTRIES", 7 * 20 * 20)
        assert inequalities.campaign(kind, 300, 11, 10, 1e-9) == whole

    @pytest.mark.parametrize("kind", sorted(inequalities.CAMPAIGN_BODIES))
    def test_trial_bits_do_not_depend_on_batch_at_width_300(self, kind):
        # Each trial is padded to its own largest body, not to max_diangles.
        self.assert_trial_bits_alone_as_in_batch(kind, 300)

    def test_random_atoms_makes_the_random_body_draws(self):
        for seed in range(20):
            rng_a, rng_b = generators.trial_rng(seed, 0), generators.trial_rng(seed, 0)
            angles, lengths, radius = generators.random_atoms(rng_a, 10)
            assert generators.random_body(rng_b, 10) == bodies.body(list(zip(angles, lengths)), radius)
            assert rng_a.random() == rng_b.random()
