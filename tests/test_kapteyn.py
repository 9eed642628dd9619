"""Kapteyn series: domain handling, frozen values, folds, and properties."""

import math

import mpmath as mp
import numpy as np
import pytest

from _oracles import kapteyn_triple
from kapteynq import bessel, bound_interval, closed_C, exact_series_values, kapteyn, solver
from kapteynq.bessel import bessel_j, bessel_j_prime
from kapteynq.errors import DivergentDomain, MaxTermsExceeded, OutOfRange
from kapteynq.kapteyn import (
    Eccentricity,
    TruncationConfig,
    convergence_boundary,
    domain_floor,
    eval_F,
    eval_F1,
    eval_F2,
    eval_trig_sums,
)
from kapteynq.kepler import identity_rhs, orbit_state

G_HALF = 0.6370338448808182848202  # eps*exp(s)/(1+s) at eps = 0.5, 50 digits
F2_D1 = 22.62741699796952078083  # 4*2^(5/2)
F2_D3 = 14.22222222222222222222  # 128/9


class TestEccentricity:
    def test_from_eps_fields(self):
        ecc = Eccentricity.from_eps(0.5)
        assert ecc.g == pytest.approx(G_HALF, rel=1e-14)
        assert ecc.s == pytest.approx(math.sqrt(0.75), rel=1e-15)

    def test_from_D_maps_eps(self):
        ecc = Eccentricity.from_D(3.0)
        assert ecc.eps == pytest.approx(0.5, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Eccentricity.from_eps(0.0)
        with pytest.raises(ValueError):
            Eccentricity.from_eps(1.0)
        with pytest.raises(ValueError):
            Eccentricity.from_D(-2.0)
        with pytest.raises(ValueError):
            Eccentricity(eps=0.5, s=0.5, g=0.6)  # inconsistent s

    def test_boundary_limits(self):
        assert convergence_boundary(Eccentricity.from_eps(1e-8)) < 1e-7
        assert convergence_boundary(Eccentricity.from_eps(1.0 - 1e-9)) > 1.0 - 1e-4

    @pytest.mark.parametrize("d_exp", range(-3, 7))
    def test_boundary_equals_bound_lower(self, d_exp):
        d = 10.0 ** d_exp
        lo, _ = bound_interval(d)
        g = Eccentricity.from_D(d).g
        assert abs(lo - g) <= 1e-14 * lo


class TestDomain:
    def test_divergent_below_floor(self):
        ecc = Eccentricity.from_eps(0.5)
        floor = domain_floor(ecc)
        with pytest.raises(DivergentDomain):
            eval_F(floor, ecc)
        with pytest.raises(DivergentDomain):
            eval_F(ecc.g * 0.5, ecc)

    def test_out_of_range(self):
        ecc = Eccentricity.from_eps(0.5)
        for bad in (1.0 + 1e-12, 0.0, -0.3, math.nan):
            with pytest.raises(OutOfRange):
                eval_F(bad, ecc)

    def test_truncation_config_validation(self):
        with pytest.raises(ValueError):
            TruncationConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            TruncationConfig(max_terms=0)
        with pytest.raises(ValueError):
            TruncationConfig(abs_tol=math.inf)


class TestSeriesValues:
    def test_F_small_eps_is_one(self):
        # the n = 1 term leaves a residual ~ eps*cosh(ln C)
        ecc = Eccentricity.from_eps(1e-8)
        sv = eval_F(0.9, ecc)
        assert sv.value == pytest.approx(1.0, abs=2e-8)
        assert sv.converged

    def test_F_at_root_D1(self):
        sv = eval_F(closed_C(1.0), Eccentricity.from_D(1.0))
        assert sv.value == pytest.approx(4.0, abs=1e-9)

    def test_F_at_one_equals_geometric(self):
        # F(1) = 1/(1 - eps); also checked against a direct summation oracle
        ecc = Eccentricity.from_eps(0.5)
        sv = eval_F(1.0, ecc)
        assert sv.value == pytest.approx(2.0, abs=1e-10)
        with mp.workdps(30):
            direct = mp.mpf(1) + 2 * mp.fsum(
                mp.besselj(n, n * mp.mpf(0.5)) for n in range(1, 300))
        assert sv.value == pytest.approx(float(direct), abs=1e-10)

    def test_F1_at_one_is_zero(self):
        for eps in (0.2, 0.5, 0.8):
            sv = eval_F1(1.0, Eccentricity.from_eps(eps))
            assert sv.value == 0.0

    @pytest.mark.parametrize("d,expected", [(1.0, -16.0), (3.0, -4.0 * (4.0 / 3.0) ** 2)])
    def test_F1_exact_values(self, d, expected):
        sv = eval_F1(closed_C(d), Eccentricity.from_D(d))
        assert sv.value == pytest.approx(expected, rel=1e-8)

    def test_F2_small_eps_limit(self):
        # only the n = +-1 terms survive (J_n'(0) = 0 for n >= 2):
        # F2 -> (C + 1/C)/2, approached at O(eps) from the n = 2 term
        c = 0.9
        sv = eval_F2(c, Eccentricity.from_eps(1e-8))
        assert sv.value == pytest.approx((c + 1.0 / c) / 2.0, abs=5e-8)

    @pytest.mark.parametrize("d,expected", [(1.0, F2_D1), (3.0, F2_D3)])
    def test_F2_exact_values(self, d, expected):
        sv = eval_F2(closed_C(d), Eccentricity.from_D(d))
        assert sv.value == pytest.approx(expected, rel=1e-8)

    def test_max_terms_returns_unconverged(self):
        ecc = Eccentricity.from_D(1.0)
        sv = eval_F(closed_C(1.0), ecc, TruncationConfig(abs_tol=1e-12, max_terms=50))
        assert not sv.converged
        assert sv.terms_used == 50
        assert math.isfinite(sv.value)

    def test_converged_implies_tail_below_tol(self):
        trunc = TruncationConfig(abs_tol=1e-12)
        for d in (0.5, 1.0, 10.0):
            sv = eval_F(closed_C(d), Eccentricity.from_D(d), trunc)
            assert sv.converged and sv.tail_bound <= trunc.abs_tol


class TestTwoSidedFold:
    """Literal sums over n = -N..N must equal the folded one-sided forms.

    Negative orders use the reflection J_{-n}(-n eps) = J_n(n eps) (and the
    derivative analogue J'_{-n}(-n eps) = -J'_n(n eps)).
    """

    N = 30

    @pytest.mark.parametrize("c,eps", [(0.95, 0.3), (0.9, 0.5), (0.97, 0.7)])
    def test_fold_F(self, c, eps):
        two_sided = 1.0  # n = 0 term: J_0(0) = 1
        for n in range(1, self.N + 1):
            jn_val = bessel_j(n, n * eps)
            two_sided += jn_val * c**n + jn_val * c**-n
        folded = 1.0 + sum(
            2.0 * bessel_j(n, n * eps) * math.cosh(n * math.log(c))
            for n in range(1, self.N + 1))
        assert abs(two_sided - folded) <= 1e-13

    @pytest.mark.parametrize("c,eps", [(0.95, 0.3), (0.9, 0.5)])
    def test_fold_F1(self, c, eps):
        two_sided = 0.0
        for n in range(1, self.N + 1):
            jn_val = bessel_j(n, n * eps)
            two_sided += n * jn_val * c**n + (-n) * jn_val * c**-n
        folded = sum(
            2.0 * n * bessel_j(n, n * eps) * math.sinh(n * math.log(c))
            for n in range(1, self.N + 1))
        assert abs(two_sided - folded) <= 1e-13

    @pytest.mark.parametrize("c,eps", [(0.95, 0.3), (0.9, 0.5)])
    def test_fold_F2(self, c, eps):
        two_sided = 0.0
        for n in range(1, self.N + 1):
            jp = bessel_j_prime(n, n * eps)
            two_sided += n * jp * c**n + (-n) * (-jp) * c**-n
        folded = sum(
            2.0 * n * bessel_j_prime(n, n * eps) * math.cosh(n * math.log(c))
            for n in range(1, self.N + 1))
        assert abs(two_sided - folded) <= 1e-13


class TestProperties:
    @pytest.mark.parametrize("eps", [0.3, 0.7])
    def test_F_strictly_decreasing(self, eps):
        ecc = Eccentricity.from_eps(eps)
        lo = domain_floor(ecc) + 0.02 * (1.0 - ecc.g)
        values = [eval_F(lo + (1.0 - lo) * i / 9.0, ecc).value for i in range(10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.9])
    def test_signs(self, eps):
        ecc = Eccentricity.from_eps(eps)
        lo = domain_floor(ecc) + 0.05 * (1.0 - ecc.g)
        for i in range(5):
            c = lo + (0.999 - lo) * i / 4.0
            assert eval_F1(c, ecc).value < 0.0
            assert eval_F2(c, ecc).value > 0.0

    @pytest.mark.parametrize("d,c_frac", [(1.0, 0.5), (5.0, 0.4)])
    def test_F1_is_C_dF_dC(self, d, c_frac):
        ecc = Eccentricity.from_D(d)
        lo = domain_floor(ecc)
        c = lo + c_frac * (1.0 - lo)
        f1 = eval_F1(c, ecc).value
        errs = []
        for h in (1e-4, 5e-5, 2.5e-5):
            fd = c * (eval_F(c + h, ecc).value - eval_F(c - h, ecc).value) / (2.0 * h)
            errs.append(abs(fd - f1))
        assert errs[1] <= errs[0] / 2.5
        assert errs[2] <= errs[1] / 2.5

    def test_tail_soundness(self):
        # doubling max_terms must not move a converged value by more than the
        # reported tail bound, nor must a 100x tighter tolerance
        for d in (0.5, 2.0, 20.0):
            ecc = Eccentricity.from_D(d)
            c = closed_C(d)
            base = eval_F(c, ecc, TruncationConfig(abs_tol=1e-10))
            assert base.converged
            doubled = eval_F(c, ecc, TruncationConfig(abs_tol=1e-10, max_terms=400_000))
            assert abs(doubled.value - base.value) <= base.tail_bound
            tight = eval_F(c, ecc, TruncationConfig(abs_tol=1e-12))
            assert abs(tight.value - base.value) <= base.tail_bound


class TestTrigSums:
    def test_s0_at_right_angle(self):
        # cos E = 0 makes the closed side exactly 1
        ecc = Eccentricity.from_eps(0.5)
        s0, _, _ = eval_trig_sums(math.pi / 2.0, ecc)
        assert s0 == pytest.approx(1.0, abs=1e-10)

    def test_s0_near_zero_anomaly(self):
        # E -> 0 drives S0 toward 1/(1 - eps)
        ecc = Eccentricity.from_eps(0.3)
        s0, _, _ = eval_trig_sums(1e-4, ecc)
        assert s0 == pytest.approx(1.0 / 0.7, abs=1e-4)

    def test_s1_matches_orbit_rhs(self):
        ecc = Eccentricity.from_eps(0.4)
        _, s1, _ = eval_trig_sums(math.pi / 3.0, ecc)
        _, r1, _ = identity_rhs(orbit_state(math.pi / 3.0, 0.4))
        assert abs(s1 - r1) <= 1e-10

    def test_endpoints_rejected(self):
        ecc = Eccentricity.from_eps(0.5)
        for bad in (0.0, math.pi, -0.1, 4.0):
            with pytest.raises(OutOfRange):
                eval_trig_sums(bad, ecc)

    def test_max_terms_raises(self):
        ecc = Eccentricity.from_eps(0.65)
        with pytest.raises(MaxTermsExceeded):
            eval_trig_sums(1.0, ecc, TruncationConfig(abs_tol=1e-12, max_terms=40))

    @pytest.mark.parametrize("eps", [0.05, 0.35, 0.8])
    def test_identity_battery_sample(self, eps):
        ecc = Eccentricity.from_eps(eps)
        for i in range(9):
            e_val = 0.05 + (math.pi - 0.1) * i / 8.0
            s0, s1, s2 = eval_trig_sums(e_val, ecc)
            r0, r1, r2 = identity_rhs(orbit_state(e_val, eps))
            assert abs(s0 - r0) <= 1e-10
            assert abs(s1 - r1) <= 1e-9
            assert abs(s2 - r2) <= 1e-9


def test_exact_series_triple_consistency():
    # the closed-form triple reproduces the series at the root to 1e-8
    for d in (0.5, 2.0):
        fe, f1e, f2e = exact_series_values(d)
        ecc = Eccentricity.from_D(d)
        c = closed_C(d)
        assert eval_F(c, ecc).value == pytest.approx(fe, rel=1e-9)
        assert eval_F1(c, ecc).value == pytest.approx(f1e, rel=1e-8)
        assert eval_F2(c, ecc).value == pytest.approx(f2e, rel=1e-8)


class TestOffRootOracle:
    """F, F1 and F2 against Kepler's equation at an imaginary eccentric anomaly.

    C = g + t*(1 - g) off the root, and the root itself.  The series must lie
    within its own tail bound and coefficient error, plus 4 ulp of rounding,
    whether the evaluation converged or stopped at the term cap (the t = 1e-3
    points at D <= 0.05 walk all 200 000 terms).
    """

    @pytest.mark.parametrize("d,t", [
        *((d, t) for d in (0.01, 0.02, 0.05) for t in (1e-3, 0.1, 0.5, "root")),
        *((d, t) for d in (1.0, 100.0) for t in (0.1, 0.5, "root")),
    ])
    def test_series_within_own_bounds(self, d, t):
        ecc = Eccentricity.from_D(d)
        c = closed_C(d) if t == "root" else ecc.g + t * (1.0 - ecc.g)
        for evaluate, exact in zip((eval_F, eval_F1, eval_F2), kapteyn_triple(c, ecc.eps)):
            sv = evaluate(c, ecc)
            allowance = sv.tail_bound + sv.coeff_err + 4.0 * math.ulp(abs(float(exact)))
            assert abs(mp.mpf(sv.value) - exact) <= allowance, (evaluate.__name__, sv)

    def test_oracle_matches_exact_values(self):
        for d in (0.5, 2.0):
            triple = kapteyn_triple(closed_C(d), 1.0 / math.sqrt(d + 1.0))
            for got, want in zip(triple, exact_series_values(d)):
                assert float(got) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# The chunked walk against the whole-table evaluation it replaced
# ---------------------------------------------------------------------------

def _whole_table_terms(kind, tab, size, n, ln_c):
    coeff = tab.j[:size] if kind != "F2" else tab.jp[:size]
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        if size * abs(ln_c) <= 700.0:
            hyp = np.sinh(n * ln_c) if kind == "F1" else np.cosh(n * ln_c)
            weight = 2.0 if kind == "F" else 2.0 * n
            return weight * coeff * hyp
        log_coeff = np.where(coeff > 0.0, np.log(np.maximum(coeff, 5e-324)), -np.inf)
        up = np.exp(log_coeff + n * ln_c)
        dn = np.exp(log_coeff - n * ln_c)
        if kind == "F":
            return up + dn
        if kind == "F1":
            return n * (up - dn)
        return np.sign(tab.jp[:size]) * n * (up + dn)


def _table_size(n):
    return max(256, 1 << (int(n) - 1).bit_length())


def _whole_table_series(C, ecc, trunc, kind):
    """The evaluation before the walk: terms and tails over the whole table."""
    rho = ecc.g / C
    ln_c = math.log(C)
    n_try = kapteyn._estimate_terms(ecc.eps * math.cosh(ln_c), rho, kind != "F", trunc)
    while True:
        size = min(trunc.max_terms, _table_size(n_try))
        tab = bessel.diagonal_table(ecc.eps, size)
        n = np.arange(1.0, size + 1.0)
        terms = _whole_table_terms(kind, tab, size, n, ln_c)
        rel = tab.rel_j[:size] if kind != "F2" else tab.rel_jp[:size]
        with np.errstate(over="ignore", invalid="ignore"):
            rho_eff = rho if kind == "F" else rho * (1.0 + 1.0 / n)
            tail = np.abs(terms) * rho_eff / (1.0 - np.minimum(rho_eff, 1.0 - 1e-16))
        can_stop = tail <= trunc.abs_tol
        can_stop[:9] = False
        if can_stop.any():
            n_used, converged = int(np.argmax(can_stop)) + 1, True
            break
        if size >= trunc.max_terms:
            n_used, converged = size, False
            break
        n_try = min(trunc.max_terms, size * 4)
    used = terms[:n_used]
    return ((1.0 if kind == "F" else 0.0) + float(np.sum(used)), n_used,
            float(tail[n_used - 1]), converged, float(np.dot(np.abs(used), rel[:n_used])))


def _whole_table_trig(E, ecc, trunc):
    M = E - ecc.eps * math.sin(E)
    n_try = kapteyn._estimate_terms(ecc.eps, ecc.g, True, trunc)
    while True:
        size = min(trunc.max_terms, _table_size(n_try))
        tab = bessel.diagonal_table(ecc.eps, size)
        n = np.arange(1.0, size + 1.0)
        base = np.maximum(tab.j[:size], np.maximum(n * tab.j[:size], n * np.abs(tab.jp[:size])))
        rho_eff = ecc.g * (1.0 + 1.0 / n)
        can_stop = 2.0 * base * rho_eff / (1.0 - np.minimum(rho_eff, 1.0 - 1e-16)) <= trunc.abs_tol
        can_stop[:9] = False
        if can_stop.any():
            n_used = int(np.argmax(can_stop)) + 1
            break
        if size >= trunc.max_terms:
            raise MaxTermsExceeded("cap")
        n_try = min(trunc.max_terms, size * 4)
    n = n[:n_used]
    j, jp = tab.j[:n_used], tab.jp[:n_used]
    return (1.0 + 2.0 * float(np.sum(j * np.cos(n * M))), 2.0 * float(np.sum(n * j * np.sin(n * M))),
            2.0 * float(np.sum(n * jp * np.cos(n * M))))


def _whole_table_f_exceeds(C, ecc, trunc, target):
    ln_c = math.log(C)
    total, size, start, lost = 1.0, 1024, 0, False
    while True:
        size = min(size, trunc.max_terms)
        tab = bessel.diagonal_table(ecc.eps, size)
        n = np.arange(start + 1.0, size + 1.0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            chunk = 2.0 * tab.j[start:size] * np.cosh(n * ln_c)
        lost = lost or bool(np.isinf(chunk).any())  # J > 0 times an overflowed cosh
        chunk = np.where(np.isfinite(chunk), chunk, 0.0)
        running = total + np.cumsum(chunk)
        if bool(np.any(running > target)):
            return True
        total = float(running[-1])
        tail = float(chunk[-1]) * (ecc.g / C) / max(1.0 - ecc.g / C, 1e-16)
        if not lost and tail <= trunc.abs_tol and total + tail <= target:
            return False
        if size >= trunc.max_terms:
            return "overflow" if lost else None
        start, size = size, size * 4


def _off_root(d, t):
    ecc = Eccentricity.from_D(d)
    return ecc, (closed_C(d) if t == "root" else ecc.g + t * (1.0 - ecc.g))


class TestWalk:
    """The chunked walk returns what the whole-table evaluation returned.

    Value, terms_used, tail_bound and converged are equal bit for bit;
    coeff_err is a dot product whose last bit depends on array alignment.
    """

    def _check(self, monkeypatch, d, t, kind, trunc=TruncationConfig()):
        ecc, c = _off_root(d, t)
        chunks = []
        kernel = kapteyn._series_terms

        def spy(kind, tab, lo, hi, ln_c, rho):
            chunks.append((lo, hi, tab.n_max))
            return kernel(kind, tab, lo, hi, ln_c, rho)

        monkeypatch.setattr(kapteyn, "_series_terms", spy)
        sv = kapteyn._eval_series(c, ecc, trunc, kind)
        monkeypatch.setattr(kapteyn, "_series_terms", kernel)
        value, n_used, tail_bound, converged, coeff_err = _whole_table_series(c, ecc, trunc, kind)
        assert (sv.value, sv.terms_used, sv.tail_bound, sv.converged) == (
            value, n_used, tail_bound, converged)
        assert abs(sv.coeff_err - coeff_err) <= 2.0 * math.ulp(coeff_err)
        # each order's term is computed once, and no chunk starts past the
        # one that holds the truncation order
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert chunks[0][0] == 0 and chunks[-1][0] < n_used <= chunks[-1][1]
        assert all(hi - lo <= bessel._DEBYE_CHUNK for lo, hi, _ in chunks)
        return sv, chunks

    @pytest.mark.parametrize("d", [0.0099, 0.01, 0.02, 0.05, 0.1, 1.0, 100.0, 1e5, 1e8])
    @pytest.mark.parametrize("t", ["root", 1e-3, 0.5])
    def test_grid_matches_whole_table(self, monkeypatch, d, t):
        for kind in ("F", "F1", "F2"):
            self._check(monkeypatch, d, t, kind)

    def test_stops_in_the_chunk_that_holds_n(self, monkeypatch):
        # F at the D = 0.01 root stops at 98 838 of a 200 000-order table
        sv, chunks = self._check(monkeypatch, 0.01, "root", "F")
        assert sv.converged and sv.terms_used < 131072
        assert [lo for lo, _, _ in chunks] == [0, 32768, 65536, 98304]

    def test_f1_at_the_cap(self, monkeypatch):
        sv, chunks = self._check(monkeypatch, 0.0099, 0.5, "F1")
        assert not sv.converged and sv.terms_used == 200_000 == chunks[-1][1]

    def test_table_grows_mid_walk(self, monkeypatch):
        # a first table of 131 072 orders, too small for the 139 144 terms
        # F1 needs at the D = 0.0099 root: the walk goes on in the table of
        # 200 000 orders from order 131 073, and no order range repeats.
        # (The prediction never falls short at the default settings: over
        # D in [0.003, 0.2] N is at most 0.74 of it.)
        monkeypatch.setattr(kapteyn, "_estimate_terms", lambda *args: 70_000)
        sv, chunks = self._check(monkeypatch, 0.0099, "root", "F1")
        assert sv.converged and sv.terms_used == 139_144
        assert [(lo, n_max) for lo, _, n_max in chunks] == [
            (0, 131072), (32768, 131072), (65536, 131072), (98304, 131072), (131072, 200000)]

    def test_verify_small_d_call(self, monkeypatch):
        # the 4M-order walk of verify's small-D check, at the D = 1e-3 root
        trunc = TruncationConfig(abs_tol=1e-5, max_terms=4_000_000)
        try:
            for kind in ("F", "F1", "F2"):
                sv, chunks = self._check(monkeypatch, 1e-3, "root", kind, trunc)
                assert sv.converged and chunks[-1][2] == 4_000_000
        finally:
            bessel._diagonal_table_cached.cache_clear()

    @pytest.mark.parametrize("eps", [0.05, 0.35, 0.8, 0.95, 0.995])
    def test_trig_sums_match_whole_table(self, eps):
        ecc = Eccentricity.from_eps(eps)
        for e_val in (0.05, 1.0, 2.0, 3.0):
            assert eval_trig_sums(e_val, ecc) == _whole_table_trig(e_val, ecc, TruncationConfig())
        capped = TruncationConfig(max_terms=40)
        for fn in (eval_trig_sums, _whole_table_trig):
            with pytest.raises(MaxTermsExceeded):
                fn(1.0, Eccentricity.from_eps(0.65), capped)

    def test_f_exceeds_decisions_match_whole_table(self):
        trunc = TruncationConfig()
        seen = set()
        for d in (0.01, 0.05, 0.1, 1.0, 100.0, 1e5, 1e8):
            ecc = Eccentricity.from_D(d)
            target = 2.0 * (d + 1.0) / d
            points = [ecc.g + m * (1.0 - ecc.g) for m in (2e-6, 1.25e-6)]
            points += [_off_root(d, t)[1] for t in (1e-3, 0.1, 0.5, "root")]
            for c in points:
                for tgt in (target, 0.5 * target, 2.0 * target, 1e3 * target):
                    try:
                        decision = solver._f_exceeds(c, ecc, trunc, tgt)
                    except MaxTermsExceeded as exc:  # an overflowed term, named
                        assert "will not help" in str(exc)
                        decision = "overflow"
                    assert decision == _whole_table_f_exceeds(c, ecc, trunc, tgt), (d, c, tgt)
                    seen.add(decision)
        assert seen == {True, False, None, "overflow"}
