"""Bessel evaluation: frozen oracle values, path consistency, invariants."""

import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest

from kapteynq import bessel
from kapteynq.bessel import (
    bessel_j,
    bessel_j_prime,
    kapteyn_coeff,
    kapteyn_coeff_prime,
)
from kapteynq.errors import NonFinite, OrderTooLarge

from _oracles import jn, jn_backward, jn_path, jn_prime, rel_err


def exact_x(n, eps):
    """n*eps without rounding to a double: the argument the tables serve."""
    with mp.workdps(40):
        return mp.mpf(n) * mp.mpf(eps)


# frozen 50-digit oracle values (ascending power series / backward recurrence)
J1_HALF = 0.242268457674873886384  # J_1(0.5)
J0_ONE = 0.7651976865579665514497  # J_0(1.0)
J2P_ONE = 0.2102436158811325550204  # (J_1(1) - J_3(1))/2
J200_100 = 2.059442493941167872423e-41  # J_200(100), backward recurrence
JP100_30 = 1.456712069369891812256e-41  # (J_99(30) - J_101(30))/2
DEBYE_LEADING_200 = 2.061251837446154553198e-41  # g(0.5)^200/sqrt(2*pi*200*s)


class TestExamples:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_j1_half(self):
        assert abs(bessel_j(1, 0.5) - J1_HALF) <= 1e-13 * J1_HALF

    def test_j0_one(self):
        assert abs(bessel_j(0, 1.0) - J0_ONE) <= 1e-13 * J0_ONE

    def test_prime_at_zero(self):
        assert bessel_j_prime(0, 0.0) == 0.0
        assert bessel_j_prime(1, 0.0) == 0.5
        assert bessel_j_prime(5, 0.0) == 0.0

    def test_j2_prime_one(self):
        assert abs(bessel_j_prime(2, 1.0) - J2P_ONE) <= 1e-13 * J2P_ONE

    def test_kapteyn_coeff_matches_bessel(self):
        assert kapteyn_coeff(1, 0.5) == bessel_j(1, 0.5)

    def test_kapteyn_coeff_small_eps_limit(self):
        assert kapteyn_coeff(3, 1e-8) == pytest.approx(0.0, abs=1e-20)
        assert kapteyn_coeff_prime(1, 1e-9) == pytest.approx(0.5, abs=1e-12)

    def test_kapteyn_coeff_200(self):
        val = kapteyn_coeff(200, 0.5)
        assert abs(val - J200_100) <= 1e-12 * J200_100

    def test_debye_leading_estimate_200(self):
        # leading large-order estimate is right up to a 1 + O(1/n) factor
        ratio = kapteyn_coeff(200, 0.5) / DEBYE_LEADING_200
        assert abs(ratio - 1.0) <= 3.0 / 200.0

    def test_kapteyn_coeff_prime_100(self):
        val = kapteyn_coeff_prime(100, 0.3)
        assert abs(val - JP100_30) <= 1e-11 * JP100_30


class TestErrors:
    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            bessel_j(200_001, 1.0)
        with pytest.raises(OrderTooLarge):
            kapteyn_coeff(200_001, 0.5)

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            bessel_j(1, math.nan)
        with pytest.raises(NonFinite):
            bessel_j(1, math.inf)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1, -0.5)
        with pytest.raises(ValueError):
            kapteyn_coeff(0, 0.5)
        with pytest.raises(ValueError):
            kapteyn_coeff(5, 1.5)


class TestDebyePolynomials:
    def test_u1_u2_u3_literals(self):
        u1 = bessel._U_POLYS[1]
        assert u1[1] == pytest.approx(3 / 24) and u1[3] == pytest.approx(-5 / 24)
        u2 = bessel._U_POLYS[2]
        assert u2[2] == pytest.approx(81 / 1152)
        assert u2[4] == pytest.approx(-462 / 1152)
        assert u2[6] == pytest.approx(385 / 1152)
        u3 = bessel._U_POLYS[3]
        assert u3[3] == pytest.approx(30375 / 414720)
        assert u3[9] == pytest.approx(-425425 / 414720)

    def test_v1_literal(self):
        v1 = bessel._V_POLYS[1]
        assert v1[1] == pytest.approx(-9 / 24) and v1[3] == pytest.approx(7 / 24)

    def test_one_horner_pass_matches_scalar_horner_bit_for_bit(self):
        def horner(coeffs, t):  # float64 Horner, highest power first
            acc = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                for c in coeffs[::-1]:
                    acc = acc * t + c
            return acc

        def bits(vals):
            return np.asarray(vals, dtype=np.float64).view(np.uint64)

        overflowed = 0
        # t = 1/s runs from 1 (eps -> 0) up; U_16 overflows from t ~ 1.4e6
        for t in map(float, np.concatenate([np.geomspace(1.0, 1e8, 301), [1e12, 1e300]])):
            u, v = bessel._debye_poly_values(t)
            assert np.array_equal(bits(u), bits([horner(p, t) for p in bessel._U_POLYS]))
            assert np.array_equal(bits(v), bits([horner(p, t) for p in bessel._V_POLYS]))
            overflowed += int(np.isinf(u).any())
        assert overflowed >= 50


class TestOracles:
    @pytest.mark.parametrize("n,eps", [(500, 0.9), (2900, 0.99)])
    def test_jn_path_matches_besselj(self, n, eps):
        x = exact_x(n, eps)
        j, jp = jn_path(n, x, dps=35)
        with mp.workdps(40):
            assert abs(j / mp.besselj(n, x) - 1) <= 1e-30
            assert abs(jp / mp.besselj(n, x, derivative=1) - 1) <= 1e-30

    def test_jn_path_matches_recurrence_above_3000(self):
        # jn and jn_prime take jn_path above order 3000
        n, eps = 3500, 0.95
        x = exact_x(n, eps)
        j, jp = jn_path(n, x, dps=35)
        with mp.workdps(40):
            ref_p = (jn_backward(n - 1, x, dps=35) - jn_backward(n + 1, x, dps=35)) / 2
            assert abs(j / jn_backward(n, x, dps=35) - 1) <= 1e-30
            assert abs(jp / ref_p - 1) <= 1e-30


class TestAgainstOracle:
    @pytest.mark.parametrize("n,x", [
        (0, 0.3), (1, 1.9), (7, 0.4), (40, 2.0),      # series path
        (0, 5.0), (3, 17.0), (25, 8.0), (150, 140.0),  # backward recurrence
        (2500, 2400.0), (5000, 4500.0),                # large-order Debye
    ])
    def test_bessel_j_grid(self, n, x):
        assert rel_err(bessel_j(n, x), jn(n, x)) <= 1e-12

    @pytest.mark.parametrize("n,x", [
        (1, 0.7), (4, 3.0), (60, 40.0), (2500, 2375.0),
    ])
    def test_bessel_j_prime_grid(self, n, x):
        assert rel_err(bessel_j_prime(n, x), jn_prime(n, x)) <= 1e-12

    @pytest.mark.parametrize("n,eps", [
        (17, 0.9), (600, 0.5), (1999, 0.95), (3000, 0.7), (40000, 0.9),
    ])
    def test_kapteyn_coeff_grid(self, n, eps):
        val = kapteyn_coeff(n, eps)
        ref = jn(n, exact_x(n, eps))
        if val == 0.0:
            assert abs(ref) < 1e-290  # underflow policy
        else:
            assert rel_err(val, ref) <= 5e-13

    @pytest.mark.parametrize("eps,n", [(0.6, 1889), (0.95, 1591)])
    def test_scalar_miller_path_at_exact_argument(self, eps, n):
        # below the crossover the scalar path recurs at fl(n*eps); unshifted
        # it is 1.2e-13 (eps = 0.6) and 4.6e-14 (eps = 0.95) off here, and
        # 1.2e-13 and 5.9e-14 off the table
        x = exact_x(n, eps)
        j, jp = kapteyn_coeff(n, eps), kapteyn_coeff_prime(n, eps)
        assert rel_err(j, jn(n, x, dps=35)) <= 1e-14
        assert rel_err(jp, jn_prime(n, x, dps=35)) <= 1e-14
        tab = bessel.diagonal_table(eps, 2000)
        assert abs(j / tab.j[n - 1] - 1.0) <= 3e-14
        assert abs(jp / tab.jp[n - 1] - 1.0) <= 3e-14

    def test_gap_band_scalar_fallback(self):
        # eps close to 1 at an order where the Debye estimate is too weak:
        # the scalar path must fall back to _diag_point
        n, eps = 30_000, 0.9995
        x = exact_x(n, eps)
        assert rel_err(kapteyn_coeff(n, eps), jn(n, x)) <= 1e-12
        assert rel_err(kapteyn_coeff_prime(n, eps), jn_prime(n, x)) <= 1e-12

    @pytest.mark.parametrize("eps,n", [
        # at 32036 and 10641, fl(n*eps) is far enough from n*eps that the
        # anchor without the shift to the exact argument is 1.5e-13 to 2e-13 off
        (0.9995, 2001), (0.9995, 32036),
        (1.0 / math.sqrt(1.01), 2001), (1.0 / math.sqrt(1.01), 10641),
        # with a rounded ladder coefficient 2k/x these are 4.6e-14 and 8.0e-14 off
        (1.0 / math.sqrt(1.01), 5120), (1.0 / math.sqrt(1.01), 20296),
    ])
    def test_diag_point_against_oracle(self, eps, n):
        j, jp = bessel._diag_point(eps, n)
        x = exact_x(n, eps)
        assert rel_err(j, jn(n, x, dps=35)) <= 2e-14
        assert rel_err(jp, jn_prime(n, x, dps=35)) <= 2e-14

    def test_diag_point_seed_order_is_bounded(self):
        # the anchor's ladder stays short however high the order: the cost
        # of an anchor does not grow with n
        eps = 0.9995
        n = np.unique(np.geomspace(2001, 1_600_000, 40).astype(np.int64)).astype(np.float64)
        m, _, _ = bessel._debye_seeds(n, 1.0 / (n * eps))
        assert np.all((n < m) & (m <= n + 1024))

    @pytest.mark.parametrize("D", [0.001, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0, 10.0, 100.0])
    def test_seeded_ladder_against_oracle(self, D):
        # the first, the last and 12 random orders of the recurrence region
        # and the band, in one call; with the ladder in the form
        # (2k/x') J_k - J_{k+1} the D = 0.001 lanes are up to 7e-14 off
        eps = 1.0 / math.sqrt(1.0 + D)
        lo = math.floor(2.0 / eps) + 1
        hi = max(2000, bessel._band_hi(eps))
        rng = np.random.default_rng(int(D * 1000))
        n = np.concatenate([[lo, hi], rng.integers(lo, hi + 1, 12)])
        j, jp = bessel._seeded_ladder(eps, n)
        for k, val, der in zip(map(int, n), j, jp):
            ref, ref_p = jn_path(k, exact_x(k, eps))
            if abs(ref) < 1e-290:  # underflow policy
                assert abs(val) < 1e-290
                continue
            assert rel_err(val, ref) <= 2e-14 and rel_err(der, ref_p) <= 2e-14, k


class TestSymmetry:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    @pytest.mark.parametrize("x", [0.3, 1.7, 3.3, 5.0])
    def test_reflection_rule(self, n, x):
        # J_{-n}(x) = (-1)^n J_n(x): reflected value vs direct oracle at -n
        reflected = (-1.0) ** n * bessel_j(n, x)
        direct = jn(-n, x)
        assert rel_err(reflected, direct) <= 1e-12


class TestRecurrence:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 60, 150, 333, 500])
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_three_term_recurrence(self, n, eps):
        x = n * eps
        jm1 = bessel_j(n - 1, x)
        j0 = bessel_j(n, x)
        jp1 = bessel_j(n + 1, x)
        resid = abs(jm1 + jp1 - (2.0 * n / x) * j0)
        assert resid <= 1e-10 * max(abs(jm1), abs(j0), abs(jp1))


class TestCrossoverConsistency:
    def test_paths_agree_at_crossover(self):
        worst = 0.0
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            for n in range(bessel.CROSSOVER_ORDER - 5, bessel.CROSSOVER_ORDER + 6):
                x = n * eps
                small = bessel._miller_scalar(x, (n,))[n]
                large, _, _, _ = bessel._debye_scalar(n, eps)
                if small == 0.0 and large == 0.0:
                    continue
                worst = max(worst, abs(small - large) / max(abs(small), abs(large)))
        assert worst <= 1e-10


class TestPositivity:
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5, 0.8, 0.95, 0.99])
    def test_coefficients_positive(self, eps):
        for n in (1, 2, 7, 33, 150, 900, 2100):
            j = kapteyn_coeff(n, eps)
            jp = kapteyn_coeff_prime(n, eps)
            if j != 0.0:  # zero only by documented underflow
                assert j > 0.0
            if jp != 0.0:
                assert jp > 0.0


class TestDerivativeCheck:
    @pytest.mark.parametrize("n,x", [(1, 1.3), (6, 4.0), (40, 25.0)])
    def test_finite_difference_second_order(self, n, x):
        exact = bessel_j_prime(n, x)
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            fd = (bessel_j(n, x + h) - bessel_j(n, x - h)) / (2.0 * h)
            errs.append(abs(fd - exact))
        # halving h should cut the error by about 4 (O(h^2))
        assert errs[1] <= errs[0] / 2.5
        assert errs[2] <= errs[1] / 2.5


class TestDiagonalTable:
    def test_matches_scalar_api(self):
        eps = 0.77
        tab = bessel.diagonal_table(eps, 512)
        for n in (1, 2, 9, 100, 511):
            assert tab.j[n - 1] == pytest.approx(kapteyn_coeff(n, eps), rel=1e-12, abs=1e-300)
            assert tab.jp[n - 1] == pytest.approx(kapteyn_coeff_prime(n, eps), rel=1e-12, abs=1e-300)

    def test_interp_band_against_oracle(self):
        eps = 0.9995
        tab = bessel.diagonal_table(eps, 1 << 17)  # 131072 orders, inside the gap band
        for n in (2345, 17777, 60001):
            x = exact_x(n, eps)
            ref = jn(n, x, dps=35)
            refp = jn_prime(n, x, dps=35)
            assert rel_err(tab.j[n - 1], ref) <= 3e-12
            assert rel_err(tab.jp[n - 1], refp) <= 3e-12
            assert rel_err(tab.j[n - 1], ref) <= tab.rel_j[n - 1]
            assert rel_err(tab.jp[n - 1], refp) <= tab.rel_jp[n - 1]

    @pytest.mark.parametrize("eps,n_max,band_hi,extra", [
        (0.99, 8192, 8192, ()),
        # at 17798 a recurrence at fl(n*eps), unshifted to the exact
        # argument, is 4.6e-13 off
        (1.0 / math.sqrt(1.02), 32768, 17937, (17798,)),
        (1.0 / math.sqrt(1.0898), 4096, 2001, ()),  # a one-order band
        (1.0 / math.sqrt(1.08975), 4096, 2003, ()),  # a three-order band
        (1.0 / math.sqrt(1.089), 4096, 2027, ()),  # 27 orders, fitted on 16 anchors
    ])
    def test_band_vs_oracle(self, eps, n_max, band_hi, extra):
        tab = bessel.diagonal_table(eps, n_max)
        if band_hi < n_max:
            assert bessel._band_hi(eps) == band_hi
        # no band declares a worse envelope than 2e-13
        band = slice(2000, band_hi)
        assert np.all(tab.rel_j[band] <= 2e-13)
        assert np.all(tab.rel_jp[band] <= 2e-13)
        for n in (2001, (2001 + band_hi) // 2, band_hi) + extra:
            x = exact_x(n, eps)
            err_j = rel_err(tab.j[n - 1], jn(n, x, dps=35))
            err_jp = rel_err(tab.jp[n - 1], jn_prime(n, x, dps=35))
            assert err_j <= 2e-13 and err_jp <= 2e-13
            assert err_j <= tab.rel_j[n - 1] and err_jp <= tab.rel_jp[n - 1]

    def test_miller_region_against_oracle(self):
        # before the shift to the exact argument n*eps, 2.2e-13 off here
        n, eps = 1889, 0.6
        tab = bessel.diagonal_table(eps, 2000)
        x = exact_x(n, eps)
        assert rel_err(tab.j[n - 1], jn(n, x, dps=35)) <= bessel._MILLER_REL_ERR
        assert rel_err(tab.jp[n - 1], jn_prime(n, x, dps=35)) <= bessel._MILLER_REL_ERR

    def test_miller_block_lanes_are_independent(self):
        # an order's value does not depend on the range it is computed with,
        # so a table extension's lanes match those of a whole build
        j, jp = bessel._miller_diag_block(0.97, 3, 2400)
        js, jps = bessel._miller_diag_block(0.97, 1990, 2010)
        assert np.array_equal(j[1987:2008], js)
        assert np.array_equal(jp[1987:2008], jps)

    def test_debye_batch_chunking_changes_no_bit(self, monkeypatch):
        n_arr = np.arange(2001, 2301, dtype=np.int64)
        whole = bessel._debye_batch(n_arr, 0.97)
        monkeypatch.setattr(bessel, "_DEBYE_CHUNK", 64)
        chunked = bessel._debye_batch(n_arr, 0.97)
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)

    def test_interp_band_chunking_changes_no_bit(self, monkeypatch):
        n_arr = np.arange(2001, 3001, dtype=np.int64)
        whole = bessel._interp_band(0.99, n_arr, 2001, 3000)
        monkeypatch.setattr(bessel, "_DEBYE_CHUNK", 64)
        chunked = bessel._interp_band(0.99, n_arr, 2001, 3000)
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)

    def test_error_estimates_are_claimed(self):
        tab = bessel.diagonal_table(0.9535, 8192)
        assert np.all(tab.rel_j > 0.0)
        assert np.all(tab.rel_j[:2000] <= 2.1e-13)

    def test_underflow_returns_zero(self):
        # far below the double floor: J_1000(300) ~ 1e-400
        assert kapteyn_coeff(1000, 0.3) == 0.0


def _masked_debye_chunk(n, eps, s, lng_hi, lng_lo, u_vals, v_vals):
    """The Debye kernel as first written, with boolean-mask updates: the
    reference the buffered kernel must match bit for bit."""
    inv_n = 1.0 / n
    shape = n.shape
    sum_u, sum_v = np.ones(shape), np.ones(shape)
    act_u, act_v = np.ones(shape, dtype=bool), np.ones(shape, dtype=bool)
    err_u, err_v = np.zeros(shape), np.zeros(shape)
    prev_u, prev_v = np.ones(shape), np.ones(shape)
    powk = np.ones(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, bessel._DEBYE_TERMS + 1):
            powk = powk * inv_n
            term_u = u_vals[k] * powk
            term_v = v_vals[k] * powk
            au, av = np.abs(term_u), np.abs(term_v)
            stop_u = act_u & (au >= np.abs(prev_u))
            err_u[stop_u] = au[stop_u]
            act_u &= ~stop_u
            sum_u[act_u] += term_u[act_u]
            prev_u = np.where(act_u, term_u, prev_u)
            stop_v = act_v & (av >= np.abs(prev_v))
            err_v[stop_v] = av[stop_v]
            act_v &= ~stop_v
            sum_v[act_v] += term_v[act_v]
            prev_v = np.where(act_v, term_v, prev_v)
    err_u[act_u] = np.abs(prev_u[act_u])
    err_v[act_v] = np.abs(prev_v[act_v])
    ln_s = np.log(s) if np.ndim(s) else math.log(s)  # one s per lane for the ladder's seeds
    pref_j = bessel._exp_n_lng(n, lng_hi, lng_lo, -0.5 * np.log(2.0 * math.pi * s * n))
    pref_jp = bessel._exp_n_lng(n, lng_hi, lng_lo, 0.5 * (ln_s - np.log(2.0 * math.pi * n)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        j = pref_j * sum_u
        jp = pref_jp * sum_v / eps
        rel_j = err_u / np.abs(sum_u) + bessel._DEBYE_FLOOR
        rel_jp = err_v / np.abs(sum_v) + bessel._DEBYE_FLOOR
    rel_j = np.where(np.isfinite(rel_j), rel_j, np.inf)
    rel_jp = np.where(np.isfinite(rel_jp), rel_jp, np.inf)
    return j, jp, rel_j, rel_jp


def _masked_debye_batch(n_arr, eps):
    s, lng_hi, lng_lo, t = bessel._eps_geometry(eps)
    return _masked_debye_chunk(n_arr.astype(np.float64), eps, s, lng_hi, lng_lo,
                               *bessel._debye_poly_values(t))


def _same_bits(a, b):
    """Equal bit patterns, any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


# eps from 1e-6 (for eps <= 1e-3, J_n(n eps) underflows to 0 before order
# 120) to 0.99995, and 1 - 1e-13, where t = 1/s passes 1.4e6 and U_16 and
# V_16 overflow to inf
_BIT_EPS = [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99,
            0.995, 0.999, 0.9999, 0.99995, 1.0 - 1e-13]


class TestBitIdentity:
    """The buffered Debye kernel and the in-place Clenshaw reproduce the
    masked kernel and numpy's ``chebval`` bit for bit."""

    @pytest.mark.parametrize("eps", _BIT_EPS)
    def test_debye_batch_matches_masked_kernel(self, eps):
        rng = np.random.default_rng(int(eps * 1e6))
        for n_arr in (np.arange(1, 5000, dtype=np.int64),
                      rng.integers(1, 10**7, 3000),  # unsorted
                      np.array([2001, 40_000, 8_000_000]),
                      np.array([37])):
            for got, ref in zip(bessel._debye_batch(n_arr, eps), _masked_debye_batch(n_arr, eps)):
                assert _same_bits(got, ref), (eps, len(n_arr))

    def test_grid_covers_underflow_and_overflow(self):
        j, _, _, _ = bessel._debye_batch(np.arange(1, 5000, dtype=np.int64), 1e-3)
        assert (j == 0.0).any()
        u, v = bessel._debye_poly_values(bessel._eps_geometry(_BIT_EPS[-1])[3])
        assert np.isinf(u).any() and np.isinf(v).any()

    @pytest.mark.parametrize("eps", [0.3, 0.99])
    def test_batch_longer_than_a_chunk(self, eps):
        n_arr = np.random.default_rng(5).permutation(
            np.arange(1, bessel._DEBYE_CHUNK + 4001, dtype=np.int64))
        for got, ref in zip(bessel._debye_batch(n_arr, eps), _masked_debye_batch(n_arr, eps)):
            assert _same_bits(got, ref)

    def test_debye_seeded_points_match_masked_kernel(self, monkeypatch):
        cases = [(0.9759, 2500), (0.995, 20_296), (0.99, 3000)]
        got = [bessel._diag_point(eps, n) for eps, n in cases]
        monkeypatch.setattr(bessel, "_debye_chunk", _masked_debye_chunk)
        assert got == [bessel._diag_point(eps, n) for eps, n in cases]

    @pytest.mark.parametrize("D,b_hi", [(0.001, 1_577_410), (0.01, 50_285), (0.02, 17_937),
                                        (0.05, 4_658), (0.0898, 2_001)])
    def test_band_hi_unchanged(self, D, b_hi, monkeypatch):
        eps = 1.0 / math.sqrt(1.0 + D)
        assert bessel._band_hi.__wrapped__(eps) == b_hi
        monkeypatch.setattr(bessel, "_debye_batch", _masked_debye_batch)
        assert bessel._band_hi.__wrapped__(eps) == b_hi

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 16, 39, 81])
    def test_clenshaw_matches_chebval(self, length):
        rng = np.random.default_rng(length)
        for _ in range(4):
            c = rng.standard_normal(length) * np.geomspace(1.0, 1e-15, length)
            x = np.concatenate([rng.uniform(-1.0, 1.0, 1000), [-1.0, -0.0, 0.0, 1.0]])
            assert _same_bits(bessel._clenshaw(x, c), np.polynomial.chebyshev.chebval(x, c))


def _built_fresh(eps, sizes):
    """Copies of the arrays of diagonal_table(eps, n) for each n in sizes,
    built in that order from an empty cache."""
    bessel._diagonal_table_cached.cache_clear()
    out = {}
    for n in sizes:
        tab = bessel.diagonal_table(eps, n)
        out[n] = tuple(np.array(a) for a in (tab.j, tab.jp, tab.rel_j, tab.rel_jp))
    del tab
    bessel._diagonal_table_cached.cache_clear()
    return out


class TestTableGrowth:
    @pytest.mark.parametrize("eps,small,big", [
        (0.05, 17, 40),                      # power series only
        (1.0 / math.sqrt(2.0), 1500, 4096),  # series, Miller block and Debye (D = 1)
        (1.0 / math.sqrt(1.05), 3000, 8192),  # band 2001..4658 (D = 0.05)
        (1.0 / math.sqrt(1.01), 16384, 32768),  # interpolated band 2001..50285 (D = 0.01)
    ])
    def test_prefix_invariance(self, eps, small, big):
        # a value depends on (eps, n, config) only: the same bits whichever
        # size is built first, and a table is a prefix of any larger one
        up = _built_fresh(eps, (small, big))
        down = _built_fresh(eps, (big, small))
        for a, b, c, d in zip(up[small], up[big], down[small], down[big]):
            assert np.array_equal(a, b[:small])
            assert np.array_equal(a, c)
            assert np.array_equal(b, d)

    def test_smaller_size_is_a_view(self):
        bessel._diagonal_table_cached.cache_clear()
        big = bessel.diagonal_table(0.8, 3000)
        small = bessel.diagonal_table(0.8, 700)
        for a in (small.j, small.jp, small.rel_j, small.rel_jp):
            assert not a.flags.writeable
        assert np.shares_memory(small.j, big.j)
        assert np.shares_memory(small.rel_jp, big.rel_jp)

    def test_growth_computes_each_order_once(self, monkeypatch):
        lanes, calls = [], []
        block, ladder = bessel._miller_diag_block, bessel._seeded_ladder

        def spy_block(eps, n_lo, n_hi):
            lanes.extend(range(n_lo, n_hi + 1))
            return block(eps, n_lo, n_hi)

        def spy_ladder(eps, n):
            calls.append(list(n))
            return ladder(eps, n)

        monkeypatch.setattr(bessel, "_miller_diag_block", spy_block)
        monkeypatch.setattr(bessel, "_seeded_ladder", spy_ladder)
        bessel._diagonal_table_cached.cache_clear()
        bessel._diag_interpolant.cache_clear()
        eps = 1.0 / math.sqrt(1.01)
        for n_max in (1024, 4096, 16384, 131072, 200000):  # the D = 0.01 solve's growth
            bessel.diagonal_table(eps, n_max)
        bessel._diagonal_table_cached.cache_clear()
        assert sorted(lanes) == list(range(3, 2001))  # series up to order 2
        # one ladder call for the one fit, each anchor and check order once
        assert len(calls) == 1 and len(set(calls[0])) == len(calls[0]) > 0

    @pytest.mark.parametrize("D", [0.01, 0.02, 0.05])
    def test_band_end_matches_full_debye_pass(self, D):
        eps = 1.0 / math.sqrt(1.0 + D)
        b_hi = bessel._band_hi.__wrapped__(eps)
        n_arr = np.arange(bessel.CROSSOVER_ORDER + 1, 4 * b_hi, dtype=np.int64)
        _, _, rel_j, rel_jp = bessel._debye_batch(n_arr, eps)
        bad = np.nonzero(np.maximum(rel_j, rel_jp) > bessel.REL_TOL)[0]
        assert len(bad) == bad[-1] + 1  # a prefix of the Debye range
        assert b_hi == n_arr[bad[-1]]

    def test_no_table_outlives_the_cache(self):
        bessel._diagonal_table_cached.cache_clear()
        refs = []
        for n in (512, 2048, 1024):  # a build, an extension, a view
            tab = bessel.diagonal_table(0.9, n)
            refs += [weakref.ref(tab), weakref.ref(tab.j)]
        del tab
        bessel._diagonal_table_cached.cache_clear()
        gc.collect()
        assert all(r() is None for r in refs)
        assert 0.9 not in bessel._LARGEST
