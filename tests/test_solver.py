"""Numeric solver: agreement with closed forms, residuals, uniqueness."""

import math

import pytest

from kapteynq import closed_C, closed_C1, closed_C2_paper
from kapteynq.errors import DegenerateF1, MaxTermsExceeded
from kapteynq.kapteyn import Eccentricity, TruncationConfig, domain_floor, eval_F
from kapteynq.solver import (
    Problem,
    _f_exceeds,
    residuals,
    solve_C1_numeric,
    solve_C2_numeric,
    solve_C_numeric,
    solve_problem,
)

CLOSED_C_1 = 0.9079430793557843257142  # e^(1/4)/sqrt(2), 50 digits
CLOSED_C_3 = 0.7274957073091006680269  # e^(3/8)/2
CLOSED_C1_11 = 0.1767766952966368811002  # 1/(2*2^(3/2))


class TestSolveC:
    def test_reference_roots(self):
        c1, diag = solve_C_numeric(Problem(D=1.0, a=1.0))
        assert abs(c1 - CLOSED_C_1) <= 1e-10 * CLOSED_C_1
        assert diag["converged"]
        c3, _ = solve_C_numeric(Problem(D=3.0, a=1.0))
        assert abs(c3 - CLOSED_C_3) <= 1e-10 * CLOSED_C_3

    def test_root_inside_bound_small_d(self):
        p = Problem(D=0.1, a=1.0)
        c, diag = solve_C_numeric(p)
        ecc = Eccentricity.from_D(0.1)
        assert ecc.g < c < 1.0
        assert abs(c - closed_C(0.1)) <= 1e-10 * closed_C(0.1)
        lo, hi = diag["bracket"]
        assert ecc.g < lo and hi == 1.0

    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0])
    def test_consistency_grid(self, d):
        c, _ = solve_C_numeric(Problem(D=d, a=1.0))
        assert abs(c - closed_C(d)) <= 1e-10 * closed_C(d)

    def test_residual_contract(self):
        trunc = TruncationConfig()
        c, diag = solve_C_numeric(Problem(D=2.0, a=1.0), trunc)
        assert abs(diag["residual"]) <= max(1e-12, 10.0 * trunc.abs_tol)

    def test_tolerance_scaling(self):
        # tightening abs_tol must not move the root beyond the prior
        # residual-based error estimate
        p = Problem(D=1.0, a=1.0)
        c_a, diag = solve_C_numeric(p, TruncationConfig(abs_tol=1e-12))
        c_b, _ = solve_C_numeric(p, TruncationConfig(abs_tol=5e-13))
        # |h'| = k |F1|/C ~ 4.4 at D=1
        est = abs(diag["residual"]) / 4.0 + 1e-11
        assert abs(c_a - c_b) <= est

    def test_small_d_converges(self):
        # near eps = 1 the F1 that steers a Newton step can hit the term cap;
        # the bracket guards that step, so the root is still converged
        d = 0.01
        rep = solve_problem(Problem(D=d, a=1.0))
        assert rep.converged
        assert abs(rep.C_numeric - closed_C(d)) <= 1e-10 * closed_C(d)

    def test_unconverged_flagged(self):
        trunc = TruncationConfig(abs_tol=1e-12, max_terms=120)
        c, diag = solve_C_numeric(Problem(D=1.0, a=1.0), trunc)
        assert not diag["series_converged"]
        assert not diag["converged"]
        assert "MaxTermsExceeded" in diag["reason"]
        assert math.isfinite(c)


class TestFExceeds:
    def test_no_disproof_after_an_overflowed_term(self):
        # near g at D = 0.05 the last 777 of 200 000 terms are J > 0 times an
        # overflowed cosh (about 0.0019 each); F is below 42 000 (the oracle
        # gives 17 914), but a sum that dropped them cannot prove it, and a
        # larger cap only adds overflowed terms
        ecc = Eccentricity.from_D(0.05)
        c = ecc.g + 2e-6 * (1.0 - ecc.g)
        with pytest.raises(MaxTermsExceeded, match=r"term n=199224 .*will not help"):
            _f_exceeds(c, ecc, TruncationConfig(), 42_000.0)
        assert _f_exceeds(c, ecc, TruncationConfig(), 50.0) is True


class TestSolveC1C2:
    def test_c1_reference(self):
        p = Problem(D=1.0, a=1.0)
        c, _ = solve_C_numeric(p)
        c1 = solve_C1_numeric(p, c)
        assert abs(c1 - CLOSED_C1_11) <= 1e-9 * CLOSED_C1_11

    def test_c1_linear_in_a(self):
        c, _ = solve_C_numeric(Problem(D=2.0, a=1.0))
        c1_unit = solve_C1_numeric(Problem(D=2.0, a=1.0), c)
        c1_tiny = solve_C1_numeric(Problem(D=2.0, a=1e-8), c)
        assert c1_tiny / 1e-8 == pytest.approx(c1_unit, rel=1e-9)

    def test_c1_small_d(self):
        # moderate-small D stays within the default term budget
        p = Problem(D=0.01, a=1.0)
        c1 = solve_C1_numeric(p, closed_C(0.01))
        assert c1 == pytest.approx(closed_C1(0.01, 1.0), rel=1e-8)

    def test_c2_a_to_zero(self):
        d = 1.0
        c, _ = solve_C_numeric(Problem(D=d, a=1.0))
        tiny = 1e-9
        c2 = solve_C2_numeric(Problem(D=d, a=tiny), c, closed_C1(d, tiny))
        from kapteynq.kapteyn import eval_F1, eval_F2
        ecc = Eccentricity.from_D(d)
        expected = -eval_F2(c, ecc).value / (4.0 * math.sqrt(2.0) * eval_F1(c, ecc).value)
        assert c2 == pytest.approx(expected, rel=1e-8)

    def test_degenerate_f1_raises(self):
        # F1(1) = 0 termwise
        with pytest.raises(DegenerateF1):
            solve_C1_numeric(Problem(D=1.0, a=1.0), 1.0)


class TestResiduals:
    def test_closed_forms_satisfy_first_two(self):
        for d in (0.5, 1.0, 5.0):
            p = Problem(D=d, a=1.0)
            r1, r2, _ = residuals(p, closed_C(d), closed_C1(d, 1.0), 0.0)
            scale = 4.0 * ((d + 1.0) / d) ** 2  # |F1| at the root
            assert abs(r1) <= 1e-9
            assert abs(r2) / scale <= 1e-9

    def test_non_root_has_residual(self):
        p = Problem(D=1.0, a=1.0)
        ecc = Eccentricity.from_D(1.0)
        c_off = 0.5 * (ecc.g + 1.0)
        r1, _, _ = residuals(p, c_off, 0.1, 0.1)
        assert abs(r1) > 1e-3

    def test_c2_candidates(self):
        # the derived candidate zeroes the third equation; the printed
        # closed form does not (recorded, not asserted as the truth)
        d, a = 1.0, 1.0
        p = Problem(D=d, a=a)
        c = closed_C(d)
        c1 = closed_C1(d, a)
        derived = 0.25 - a * a * (2.0 * d + 1.0) / (8.0 * (d + 1.0) ** 2)
        scale = 4.0 * ((d + 1.0) / d) ** 2
        _, _, r3_derived = residuals(p, c, c1, derived)
        _, _, r3_paper = residuals(p, c, c1, closed_C2_paper(d, a))
        assert abs(r3_derived) / scale <= 1e-9
        assert abs(r3_paper) / scale > 1e-3

    def test_back_substitution(self):
        for d in (0.5, 2.0, 50.0):
            rep = solve_problem(Problem(D=d, a=1.0))
            assert abs(rep.residuals[0]) <= 1e-9
            assert abs(rep.residuals[1]) <= 1e-10
            assert abs(rep.residuals[2]) <= 1e-10


class TestUniqueness:
    @pytest.mark.parametrize("d", [0.5, 1.0, 5.0, 50.0])
    def test_single_sign_change(self, d):
        ecc = Eccentricity.from_D(d)
        k = d / (2.0 * (d + 1.0))
        lo = domain_floor(ecc) + 1e-9 * (1.0 - ecc.g)
        trunc = TruncationConfig(abs_tol=1e-10, max_terms=400_000)
        signs = []
        for i in range(200):
            c = lo + (1.0 - lo) * (i + 0.5) / 200.0
            sv = eval_F(c, ecc, trunc)
            signs.append(k * sv.value - 1.0 > 0.0)
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1


class TestSolveProblem:
    def test_report_fields(self):
        rep = solve_problem(Problem(D=1.0, a=1.0))
        assert rep.converged
        assert rep.F == pytest.approx(4.0, abs=1e-9)
        assert rep.F1 == pytest.approx(-16.0, rel=1e-8)
        assert rep.F2 == pytest.approx(4.0 * 2.0**2.5, rel=1e-8)
        assert all(t > 0 for t in rep.terms_used)
        assert rep.bracket[0] > Eccentricity.from_D(1.0).g
        assert rep.bracket[1] == 1.0

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            Problem(D=0.0, a=1.0)
        with pytest.raises(ValueError):
            Problem(D=1.0, a=-1.0)
