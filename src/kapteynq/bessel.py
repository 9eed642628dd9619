"""Bessel functions J_n and J_n' for integer order, tuned for Kapteyn sums.

The evaluation paths:

* ascending power series for x <= 2 (A&S 9.1.10);
* Miller backward recurrence with the even-order normalization
  J_0(x) + 2*sum_k J_2k(x) = 1 (A&S 9.12, Numerical Recipes style): for
  the diagonal tables' orders up to the fixed crossover order
  ``CROSSOVER_ORDER``, as one lockstep vector kernel over all of them
  (``_miller_diag_block``), and for ``bessel_j``/``bessel_j_prime`` at a
  general argument (``_miller_scalar``);
* Debye uniform large-order expansion of J_nu(nu*sech(alpha)) and its
  derivative (A&S 9.3.7/9.3.13, DLMF 10.19.3-10.19.4) above the crossover;
* a Debye-seeded ladder (``_seeded_ladder``) for any array of diagonal
  orders n with n*eps > 2 that the other paths do not serve.

The Debye expansion is asymptotic: its attainable accuracy at order n is
limited by the smallest term of the correction series, which degrades as
eps -> 1.  At a fixed argument it improves quickly with the order, so
``_seeded_ladder`` seeds each order n by Debye a short way higher, at its own
argument, and carries all of them down at once by the backward recurrence
(DLMF 10.6.1), with a cost that does not grow with n.  The orders above the
crossover where the expansion cannot reach the tolerance ``REL_TOL`` form a
band crossover+1..b_hi that eps alone decides (``_band_hi``).  The table
builder interpolates the band along the diagonal n -> J_n(n*eps) with a
Chebyshev fit, fitted once per band on anchors that one ladder call
computes, and measures the fit's error against the ladder between its
nodes; a band of fewer orders than the fit has anchors takes the ladder at
each order, and ``kapteyn_coeff*`` take it for one order.  Every returned
value carries a per-order relative error estimate so downstream series can
report honest tail bounds.

Every path is elementwise in n, so a table value depends on (eps, n) only.
Tables grow by extension: a larger table at the same eps copies the largest
one still alive and computes only the new orders, and a smaller one is a
read-only view of it, so tables may share their buffers.
"""

from __future__ import annotations

import decimal
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NonFinite, OrderTooLarge

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "kapteyn_coeff",
    "kapteyn_coeff_prime",
]

_SERIES_X_MAX = 2.0
_RESCALE = 1e250
_RESCALE_INV = 1e-250
# Per-path relative error envelopes, validated against 50-digit oracles in the
# test suite.  The Miller figure covers recurrence roundoff over the block's
# ladders, which start a margin above the crossover order (about 2000 steps).
# The anchored interpolant measures its own envelope (``_diag_interpolant``).
_MILLER_REL_ERR = 2e-13
_SERIES_REL_ERR = 5e-16
_DEBYE_FLOOR = 5e-15
_DEBYE_TERMS = 16  # correction polynomials U_1..U_16 / V_1..V_16
_DEBYE_CHUNK = 1 << 15  # orders per pass of the Debye batch and the interpolant
# Miller-block steps between renewals of the views over the advanced lanes;
# at the block's widths (up to the crossover order) strides from 8 to 4096
# time within 10 % of each other.
_LANE_STRIDE = 32


# The relative accuracy the Debye expansion must reach to serve an order
# without help.  Above CROSSOVER_ORDER the large-order paths take over from the
# Miller block; it sits where the Debye expansion agrees with backward
# recurrence to 1e-10 across eccentricities up to ~0.95 (see the consistency
# tests).  MAX_ORDER caps the order of the scalar entry points.
REL_TOL = 1e-13
CROSSOVER_ORDER = 2000
MAX_ORDER = 200_000


# ---------------------------------------------------------------------------
# Debye correction polynomials
# ---------------------------------------------------------------------------

def _build_debye_polynomials(count: int):
    """U_k and V_k from the DLMF 10.41.3/10.41.9 recurrences, exact in Fraction.

    Polynomials are returned as dense float coefficient arrays indexed by the
    power of t = coth(alpha); U_k has degree 3k.
    """
    half = Fraction(1, 2)
    eighth = Fraction(1, 8)
    u_polys = [{0: Fraction(1)}]
    for _ in range(count):
        u = u_polys[-1]
        du = {p - 1: p * c for p, c in u.items() if p >= 1}
        nxt: dict[int, Fraction] = {}
        # (1/2) t^2 (1 - t^2) u'
        for p, c in du.items():
            nxt[p + 2] = nxt.get(p + 2, Fraction(0)) + half * c
            nxt[p + 4] = nxt.get(p + 4, Fraction(0)) - half * c
        # (1/8) * integral_0^t (1 - 5 tau^2) u(tau) dtau
        for p, c in u.items():
            nxt[p + 1] = nxt.get(p + 1, Fraction(0)) + eighth * c / (p + 1)
            nxt[p + 3] = nxt.get(p + 3, Fraction(0)) - 5 * eighth * c / (p + 3)
        u_polys.append({p: c for p, c in nxt.items() if c != 0})

    v_polys = [{0: Fraction(1)}]
    for k in range(count):
        u = u_polys[k]
        du = {p - 1: p * c for p, c in u.items() if p >= 1}
        v = dict(u_polys[k + 1])
        # - (1/2) t (1 - t^2) u_k  -  t^2 (1 - t^2) u_k'
        for p, c in u.items():
            v[p + 1] = v.get(p + 1, Fraction(0)) - half * c
            v[p + 3] = v.get(p + 3, Fraction(0)) + half * c
        for p, c in du.items():
            v[p + 2] = v.get(p + 2, Fraction(0)) - c
            v[p + 4] = v.get(p + 4, Fraction(0)) + c
        v_polys.append({p: c for p, c in v.items() if c != 0})

    def dense(poly):
        deg = max(poly) if poly else 0
        out = np.zeros(deg + 1)
        for p, c in poly.items():
            out[p] = float(c)
        return out

    return [dense(p) for p in u_polys], [dense(p) for p in v_polys]


_U_POLYS, _V_POLYS = _build_debye_polynomials(_DEBYE_TERMS)


# The coefficients of U_0..U_16 and V_0..V_16 by power of t, highest first:
# row i holds the coefficient of t^(48 - i) in each of the 34 polynomials,
# zero-padded to degree 3 * _DEBYE_TERMS.
_POLY_ROWS = np.array([np.pad(p[::-1], (3 * _DEBYE_TERMS + 1 - len(p), 0))
                       for p in _U_POLYS + _V_POLYS]).T.copy()


@lru_cache(maxsize=64)
def _eps_geometry(eps: float):
    """(s, ln g split hi/lo, t) for eps = sech(alpha); s = tanh(alpha).

    ln g = ln(eps) + s - ln(1+s) multiplies the order n inside an exponential,
    so a plain double evaluation (absolute error ~2e-16) would cost n*2e-16 of
    relative accuracy at large n.  Computing it with stdlib decimal at 40
    digits and keeping a two-double split removes that floor.
    """
    e = decimal.Decimal(eps)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        s_d = ((1 - e) * (1 + e)).sqrt()
        ln_g_d = e.ln() + s_d - (1 + s_d).ln()
    hi = float(ln_g_d)
    lo = float(ln_g_d - decimal.Decimal(hi))
    s = float(s_d)
    return s, hi, lo, 1.0 / s


def _exp_n_lng(n: np.ndarray, hi, lo, extra: np.ndarray) -> np.ndarray:
    """exp(n*lng + extra) with the n*lng product kept exact to ~1 ulp; lng =
    hi + lo is one float pair, or one per lane.

    The high part of lng is truncated to 26 mantissa bits so that n*hi1 is an
    exact double for integer n < 2**26; the residual is small enough that its
    rounding is harmless.
    """
    hi1 = np.ldexp(np.rint(np.ldexp(hi, 26)), -26)
    hi2 = hi - hi1
    a = n * hi1
    b = n * hi2 + n * lo + extra
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(a) * np.exp(b)


def _debye_batch(n_arr: np.ndarray, eps: float):
    """Debye values J_n(n*eps), J_n'(n*eps) with per-order error estimates.

    The correction series is summed adaptively: terms are added while they
    decrease in magnitude and the first non-decreasing term is taken as the
    error estimate (standard practice for asymptotic series).  Every Debye
    value of the package comes from its kernel ``_debye_chunk``.

    The orders are evaluated in chunks of ``_DEBYE_CHUNK``, so the kernel's
    buffers stay bounded however many orders are asked for.  Every step is
    elementwise, so the chunking does not change any value.
    """
    s, lng_hi, lng_lo, t = _eps_geometry(eps)
    u_vals, v_vals = _debye_poly_values(t)
    if len(n_arr) <= _DEBYE_CHUNK:  # one chunk: no copy into separate outputs
        return _debye_chunk(n_arr.astype(np.float64), eps, s, lng_hi, lng_lo, u_vals, v_vals)
    out = tuple(np.empty(len(n_arr)) for _ in range(4))
    for lo in range(0, len(n_arr), _DEBYE_CHUNK):
        sl = slice(lo, lo + _DEBYE_CHUNK)
        vals = _debye_chunk(n_arr[sl].astype(np.float64), eps, s, lng_hi, lng_lo, u_vals, v_vals)
        for dst, src in zip(out, vals):
            dst[sl] = src
    return out


def _debye_poly_values(t):
    """U_k(t) and V_k(t), k = 0.._DEBYE_TERMS, by one Horner pass over all 34.

    t is one float, or an array with one t per lane; then row k of each
    result holds U_k (V_k) of every lane.  The padding keeps a polynomial's
    running value at 0 until its leading coefficient, so each one takes the
    steps of its own float64 Horner loop, bit for bit.  Overflow saturates to
    inf, which the caller handles.
    """
    acc = np.zeros(_POLY_ROWS.shape[1:] + np.shape(t))
    rows = _POLY_ROWS.reshape(_POLY_ROWS.shape + (1,) * np.ndim(t))
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows:
            acc *= t
            acc += row
    return acc[: _DEBYE_TERMS + 1], acc[_DEBYE_TERMS + 1:]


def _debye_chunk(n, eps, s, lng_hi, lng_lo, u_vals, v_vals):
    """Debye values of J_n(n*eps) and J_n'(n*eps) at float orders n, with the
    geometry (s, ln g split hi/lo) and the U_k, V_k values at t = 1/s already
    evaluated: one chunk of ``_debye_batch``, or one eccentricity per lane
    (eps, s, lng_hi, lng_lo arrays and U_k, V_k from ``_debye_poly_values``
    of an array t), as for the seeds of ``_seeded_ladder``.

    Row 0 of each buffer sums U_k/n^k, row 1 V_k/n^k.  A lane stops at the
    first term T_k with |T_k| >= |T_{k-1}| and keeps |T_k| as its error; a
    lane still active after ``_DEBYE_TERMS`` keeps its last term.  The stop
    test, the error capture and the sum run through ufunc ``out=``/``where=``
    on buffers allocated once, so the loop indexes nothing by mask.
    """
    inv_n = 1.0 / n
    shape = (2, len(n))
    coef = np.stack([u_vals, v_vals]).reshape(2, _DEBYE_TERMS + 1, -1)
    acc, a_prev = np.ones(shape), np.ones(shape)
    err, term, a = np.zeros(shape), np.empty(shape), np.empty(shape)
    act, stop = np.ones(shape, dtype=bool), np.empty(shape, dtype=bool)
    powk = np.ones(len(n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _DEBYE_TERMS + 1):
            np.multiply(powk, inv_n, out=powk)
            np.multiply(coef[:, k], powk, out=term)
            np.abs(term, out=a)
            np.greater_equal(a, a_prev, out=stop)
            np.logical_and(stop, act, out=stop)
            np.copyto(err, a, where=stop)
            np.logical_xor(act, stop, out=act)  # stop is a subset of act
            np.add(acc, term, out=acc, where=act)
            a, a_prev = a_prev, a
    np.copyto(err, a_prev, where=act)
    del term, a, a_prev, stop  # the prefactors' temporaries then reuse their memory

    # math.log of one s keeps the table's bits: numpy's log may differ from
    # it in the last bit
    ln_s = np.log(s) if np.ndim(s) else math.log(s)
    extra = np.stack([-0.5 * np.log(2.0 * math.pi * s * n),
                      0.5 * (ln_s - np.log(2.0 * math.pi * n))])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        j, jp = _exp_n_lng(n, lng_hi, lng_lo, extra) * acc  # prefactors of J and J'
        jp /= eps
        rel = err / np.abs(acc) + _DEBYE_FLOOR
    rel[~np.isfinite(rel)] = np.inf
    return j, jp, rel[0], rel[1]


def _debye_scalar(n: int, eps: float):
    arr = np.array([n], dtype=np.int64)
    j, jp, rel_j, rel_jp = _debye_batch(arr, eps)
    return float(j[0]), float(jp[0]), float(rel_j[0]), float(rel_jp[0])


# ---------------------------------------------------------------------------
# Ascending power series (x <= 2, any order)
# ---------------------------------------------------------------------------

def _jn_series(n: int, x: float) -> float:
    """J_n(x) by the ascending series; reliable for x <= ~2 at any order."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    half = 0.5 * x
    if n <= 150:
        lead = half**n / math.factorial(n)
    else:
        log_lead = n * math.log(half) - math.lgamma(n + 1.0)
        if log_lead < -745.0:
            return 0.0
        lead = math.exp(log_lead)
    total = lead
    term = lead
    q = half * half
    for k in range(1, 400):
        term *= -q / (k * (n + k))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


# ---------------------------------------------------------------------------
# Miller backward recurrence
# ---------------------------------------------------------------------------

def _order_margin(ratio: float) -> int:
    """Start-order margin so seed contamination decays below ~1e-17.

    ``ratio`` is x/k at the top of the ladder; consecutive J_k(x) fall by
    about ratio/(1+sqrt(1-ratio^2)) per order there, and faster below.
    """
    ratio = min(ratio, 0.999999)
    if ratio <= 0.0:
        return 14
    decay = -2.0 * math.log(ratio / (1.0 + math.sqrt(1.0 - ratio * ratio)))
    return int(math.ceil(39.0 / decay)) + 14


def _miller_start(n_max: int, x: float) -> int:
    if x < n_max:
        return n_max + _order_margin(x / n_max)
    # above the turning point the decay sets in over ~x^(1/3) orders
    return int(math.ceil(x + 12.0 * x ** (1.0 / 3.0) + 30.0)) + 1


def _miller_scalar(x: float, orders: tuple[int, ...]) -> dict[int, float]:
    """Normalized backward recurrence at fixed argument; returns J_k(x) for
    each requested order."""
    n_max = max(orders)
    m = _miller_start(n_max, x)
    want = set(orders)
    caps = {}
    jk1 = 0.0
    jk = 1e-30
    norm = 0.0
    comp = 0.0
    for k in range(m, 0, -1):
        if k in want:
            caps[k] = jk
        if k % 2 == 0:
            y = 2.0 * jk - comp
            t = norm + y
            comp = (t - norm) - y
            norm = t
        jkm1 = (2.0 * k / x) * jk - jk1
        jk1 = jk
        jk = jkm1
        if abs(jk) > _RESCALE:
            jk *= _RESCALE_INV
            jk1 *= _RESCALE_INV
            norm *= _RESCALE_INV
            comp *= _RESCALE_INV
            for key in caps:
                caps[key] *= _RESCALE_INV
    if 0 in want:
        caps[0] = jk
    norm = norm + (jk - comp)
    return {k: caps[k] / norm for k in want}


def _miller_diag_block(eps: float, n_lo: int, n_hi: int):
    """J_n(n*eps) and J_n'(n*eps) for consecutive n in [n_lo, n_hi].

    One backward recurrence per element, run in lockstep as vector ops: the
    ladder index k sweeps down once, and element n is seeded when k passes
    n + margin.  Elements are seeded in order of decreasing n, so the seeded
    ones are always a suffix of the vector.  Only that suffix is advanced,
    in place, through views renewed every ``_LANE_STRIDE`` steps that also
    take in the elements seeded before the next renewal; elements not yet
    seeded hold zeros, which the recurrence keeps at zero.  Each
    element's arithmetic is independent of the others, so its value does not
    depend on n_lo or n_hi.

    Orders with n*eps <= 2 belong to the series path.  The overflow check
    runs every 8 steps, which leaves room for a growth of 2k/x per step up to
    about 1e7: eps above 2e-6 at any order.
    """
    width = n_hi - n_lo + 1
    n_arr = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    x = n_arr * eps
    delta = _order_margin(eps)
    m_top = n_hi + delta

    jk = np.zeros(width)
    jk1 = np.zeros(width)
    nxt = np.zeros(width)  # J_{k-1}, before it rotates into jk
    norm = np.zeros(width)
    comp = np.zeros(width)  # Kahan compensation for the normalization sum
    y = np.zeros(width)  # Kahan scratch
    t = np.zeros(width)  # Kahan scratch, rotates with norm
    c_lo = np.zeros(width)  # J_{n-1}
    c_mid = np.zeros(width)  # J_n
    c_hi = np.zeros(width)  # J_{n+1}
    inv_x = 1.0 / x

    for k in range(m_top, 0, -1):
        i = k - delta - n_lo
        if 0 <= i < width:
            jk[i] = 1e-30
            jk1[i] = 0.0
        if (m_top - k) % _LANE_STRIDE == 0:
            # views over the lanes seeded so far and in the next steps
            live = slice(max(0, i - _LANE_STRIDE + 1), width)
            jk_v, jk1_v, nxt_v, norm_v, t_v, comp_v, y_v, inv_x_v = (
                a[live] for a in (jk, jk1, nxt, norm, t, comp, y, inv_x))
        i = k + 1 - n_lo  # element with n - 1 == k
        if 0 <= i < width:
            c_lo[i] = jk[i]
        i = k - n_lo
        if 0 <= i < width:
            c_mid[i] = jk[i]
        i = k - 1 - n_lo
        if 0 <= i < width:
            c_hi[i] = jk[i]
        if k % 2 == 0:
            # y = 2 jk - comp;  t = norm + y;  comp = (t - norm) - y;  norm = t
            np.multiply(jk_v, 2.0, out=y_v)
            np.subtract(y_v, comp_v, out=y_v)
            np.add(norm_v, y_v, out=t_v)
            np.subtract(t_v, norm_v, out=comp_v)
            np.subtract(comp_v, y_v, out=comp_v)
            norm, t = t, norm
            norm_v, t_v = t_v, norm_v
        # J_{k-1} = (2k/x) J_k - J_{k+1}
        np.multiply(inv_x_v, 2.0 * k, out=nxt_v)
        np.multiply(nxt_v, jk_v, out=nxt_v)
        np.subtract(nxt_v, jk1_v, out=nxt_v)
        jk1, jk, nxt = jk, nxt, jk1
        jk1_v, jk_v, nxt_v = jk_v, nxt_v, jk1_v
        if k % 8 == 0:
            big = np.abs(jk_v) > _RESCALE
            if big.any():
                for arr in (jk, jk1, norm, comp, c_lo, c_mid, c_hi):
                    arr[live][big] *= _RESCALE_INV
    if n_lo == 1:
        c_lo[0] = jk[0]  # J_0 for the n = 1 element
    norm = norm + (jk - comp)
    j = c_mid / norm
    jp = (c_lo - c_hi) / (2.0 * norm)
    return j, jp


def _split26(v):
    """Dekker split of v into two halves of at most 26 significant bits."""
    c = 134217729.0 * v  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _two_prod(a, b):
    """(p, err) with p = fl(a*b) and p + err = a*b exactly (Dekker)."""
    p = a * b
    a_hi, a_lo = _split26(a)
    b_hi, b_lo = _split26(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    """(s, err) with s = fl(a+b) and s + err = a+b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _shift_to_exact_x(eps: float, n: np.ndarray, j: np.ndarray, jp: np.ndarray):
    """Move recurrence values at the float orders n to x = n*eps.

    The recurrences (the Miller block and ``_seeded_ladder``) use the
    coefficient 2k * fl(1 / fl(n*eps)), so they compute J and J' at
    x' = 1 / fl(1 / fl(n*eps)), up to two roundings away from n*eps.  Along
    the diagonal d ln J / d ln x is about n*s, so this costs up to
    ~2.2e-16 * n*s of relative accuracy: past the Miller envelope already in
    the Miller region at eps = 0.6 (2.2e-13 at n = 1889), and 1e-12 at an
    anchor at n = 400000, eps = 0.9995.
    x - x' is formed from error-free products, and J, J' are moved by one
    Taylor step each, with J'' from Bessel's equation.
    """
    inv_x = 1.0 / (n * eps)  # as in _miller_diag_block
    # n*eps*inv_x - 1 = (x - x') / x': n*e1 is exact, and the rounding of
    # p = n*e1*inv_x is recovered by Dekker's product
    e1 = math.ldexp(round(math.ldexp(eps, 26)), -26)
    a = n * e1
    p, p_err = _two_prod(a, inv_x)
    dx = ((p - 1.0) + p_err + n * (eps - e1) * inv_x) / inv_x
    jpp = -jp * inv_x - (1.0 - (n * inv_x) ** 2) * j
    return j + dx * jp, jp + dx * jpp


# Debye's own error estimate a seed of ``_seeded_ladder`` must meet, and the
# size of its expansion parameter, m*(1 - (x/m)^2)^(3/2), to try first.
_SEED_REL_ERR = 1e-14
_SEED_Z = 80.0
# ln 2 split so that k * _LN2_HI is exact for small integers k (fdlibm)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
# 2 atanh(u) - 2u = 2u^3 sum_j u^(2j) / (2j + 3): its coefficients, highest
# power first, enough for |u| <= 3 - 2 sqrt(2)
_ATANH_TAIL = 1.0 / np.arange(27.0, 2.0, -2.0)


def _seed_geometry(m, ih, il):
    """(e, s, ln g hi, ln g lo) per lane for order m at x' = 1/(ih + il).

    The eccentricity is e = x'/m, and 1/e = m*ih + m*il exactly (m has at
    most 26 bits, as ih and il do).  ln g = s - atanh(s) multiplies m inside
    an exponential, where a double ln g would cost m*|ln g|*1e-16 of relative
    accuracy (3e-14 at order 2000 and eps = 0.7), so s = sqrt(1 - e^2) and
    atanh(s) = ln((1 + s)/e) are carried in double-double (Dekker products,
    Knuth sums).  The logarithm is k ln 2 + 2 atanh(u), u = (f - 1)/(f + 1)
    for the mantissa f of (1 + s)/e in [1/sqrt(2), sqrt(2)).
    """
    mh, c = m * ih, m * il
    p, p_lo = _two_sum(mh, c)  # 1/e
    # 1/e^2 - 1 = (mh - 1)(mh + 1) + c (2 mh + c), both factors exact
    q, q_lo = _two_prod(mh - 1.0, mh + 1.0)
    q, q_lo = _two_sum(q, q_lo + c * (2.0 * mh + c))
    r = np.sqrt(q)  # r + r_lo = s/e
    sq, sq_lo = _two_prod(r, r)
    r_lo = ((q - sq) - sq_lo + q_lo) / (2.0 * r)
    s = r / p
    sp, sp_lo = _two_prod(s, p)
    s_lo = ((r - sp) - sp_lo + r_lo - s * p_lo) / p
    y, y_lo = _two_sum(p, r)  # (1 + s)/e
    k = np.floor(np.log2(y * math.sqrt(2.0)))
    f, f_lo = (np.ldexp(v, -k.astype(np.int64)) for v in (y, y_lo + p_lo + r_lo))
    num = f - 1.0  # exact
    den, den_lo = _two_sum(f, 1.0)
    u = (num + f_lo) / den
    ud, ud_lo = _two_prod(u, den)
    u_lo = ((num - ud) - ud_lo + f_lo - u * (den_lo + f_lo)) / den
    u2 = u * u
    a, a_lo = _two_sum(k * _LN2_HI, 2.0 * u)  # atanh(s)
    a, tail_lo = _two_sum(a, 2.0 * u2 * (u + 3.0 * u_lo) * np.polyval(_ATANH_TAIL, u2))
    w, w_lo = _two_sum(s, -a)
    w_lo += s_lo - (a_lo + tail_lo + 2.0 * u_lo + k * _LN2_LO)
    return 1.0 / p, s, *_two_sum(w, w_lo)


def _debye_seeds(n, inv_x):
    """(m, J_m(x'), J_m(x') - J_{m+1}(x')) by Debye at x' = 1/inv_x, per
    lane, for orders m > n (float arrays); J_{m+1} = (m/x') J_m - J_m'.

    At fixed x' the expansion improves quickly with the order: its parameter
    m*(1 - (x'/m)^2)^(3/2) grows with m.  m - n starts at the smallest step
    >= 1 that puts it at ``_SEED_Z`` (m = sqrt(x'^2 + (_SEED_Z m^2)^(2/3)),
    a fixed point >= 80 where the iteration contracts by 2/3 or more), and
    doubles in each lane whose expansion misses ``_SEED_REL_ERR``.
    """
    x, m = 1.0 / inv_x, n
    for _ in range(24):
        m = np.sqrt(x * x + np.cbrt(_SEED_Z * m * m) ** 2)
    step = np.maximum(1.0, np.ceil(m - n))
    ih, il = _split26(inv_x)
    j_m, d_m = np.empty(len(n)), np.empty(len(n))
    todo = np.arange(len(n))
    while len(todo):
        m = n[todo] + step[todo]
        geometry = _seed_geometry(m, ih[todo], il[todo])
        j, jp, rel_j, rel_jp = _debye_chunk(m, *geometry, *_debye_poly_values(1.0 / geometry[1]))
        ok = np.maximum(rel_j, rel_jp) <= _SEED_REL_ERR
        j_m[todo[ok]] = j[ok]
        d_m[todo[ok]] = (jp - ((m * ih[todo] - 1.0) + m * il[todo]) * j)[ok]
        todo = todo[~ok]
        step[todo] *= 2.0
    return n + step, j_m, d_m


def _seeded_ladder(eps: float, n: np.ndarray):
    """(J_n(n eps), J_n'(n eps)) for an array of integer orders n, n*eps > 2.

    Each lane is seeded by Debye at its own order m = n + L (``_debye_seeds``)
    and carried down to n by J_{k-1} = (2k/x') J_k - J_{k+1} at
    x' = 1 / fl(1 / fl(n*eps)), as in the Miller block, then moved to n*eps
    by ``_shift_to_exact_x``.  Above the turning point this direction is
    stable for J and the seeds are absolute, so no normalization sum is
    needed and the cost does not grow with n.  The lanes run in lockstep,
    sorted by decreasing L: a lane joins at step L_max - L, so every lane
    sits at k = n + L_max - i at step i, and only the seeded prefix is
    stepped.  A lane's value does not depend on the other lanes.

    The recurrence runs in differences, d_k = J_k - J_{k+1}:
    d_{k-1} = d_k + (2k/x' - 2) J_k, J_{k-1} = J_k + d_{k-1}.  In the form
    (2k/x') J_k - J_{k+1} each step's rounding reaches J_n amplified by about
    1/(2 s_k), s_k = sqrt(1 - (x/k)^2): 7e-14 at n = 1e6, D = 0.001, against
    3e-15 in differences.  With 1/x' = ih + il split in 26-bit halves,
    2k*ih - 2 is exact and 2k*il is added apart, so 2k/x' is not rounded.
    """
    nf = n.astype(np.float64)
    inv_x = 1.0 / (nf * eps)
    m, j_m, d_m = _debye_seeds(nf, inv_x)
    order = np.argsort(nf - m, kind="stable")  # the longest ladders first
    steps = (m - nf)[order]
    top = int(steps[0]) if len(n) else 0
    ih, il = _split26(inv_x[order])
    k2 = 2.0 * m[order]  # 2k of each lane at its first step
    j, d, c, t = np.zeros(len(n)), np.zeros(len(n)), np.empty(len(n)), np.empty(len(n))
    seeded = 0
    for live in np.searchsorted(-steps, np.arange(top) - top, side="right"):
        if live > seeded:  # the lanes with L = L_max - i join
            j[seeded:live], d[seeded:live] = j_m[order[seeded:live]], d_m[order[seeded:live]]
            seeded = live
            jv, dv, cv, tv, k2v, ihv, ilv = (a[:live] for a in (j, d, c, t, k2, ih, il))
        np.multiply(k2v, ihv, out=cv)
        cv -= 2.0
        np.multiply(k2v, ilv, out=tv)
        cv += tv
        cv *= jv
        dv += cv
        jv += dv
        k2v -= 2.0
    ns = nf[order]
    jp = ((ns * ih - 1.0) + ns * il) * j + d  # J_n' = (n/x' - 1) J_n + d_n
    out_j, out_jp = np.empty(len(n)), np.empty(len(n))
    out_j[order], out_jp[order] = j, jp
    return _shift_to_exact_x(eps, nf, out_j, out_jp)


def _diag_point(eps: float, n: int):
    """(J_n(n eps), J_n'(n eps)) for one order n with n*eps > 2: a
    ``_seeded_ladder`` of one lane."""
    j, jp = _seeded_ladder(eps, np.array([n], dtype=np.int64))
    return float(j[0]), float(jp[0])


# ---------------------------------------------------------------------------
# Anchored Chebyshev interpolation along the Kapteyn diagonal
# ---------------------------------------------------------------------------

# Anchors per unit of ln(n_hi/n_lo), and at least; the factor from the worst
# check of the fit to its declared envelope.
_INTERP_PER_SPAN = 12
_INTERP_MIN_ANCHORS = 16
_INTERP_SAFETY = 8.0


def _anchor_count(n_lo: int, n_hi: int) -> int:
    return max(_INTERP_MIN_ANCHORS, math.ceil(_INTERP_PER_SPAN * math.log(n_hi / n_lo)))


@lru_cache(maxsize=8)
def _diag_interpolant(eps: float, n_lo: int, n_hi: int):
    """Chebyshev fit (in ln n) of the slowly varying normalized diagonals

        d(n)  = J_n(n eps) * exp(-n ln g) * sqrt(2 pi n s)
        dp(n) = J_n'(n eps) * exp(-n ln g) * sqrt(2 pi n / s) * eps

    anchored on values of ``_seeded_ladder``, which computes every node and
    check in one call.  Both functions tend to 1 as n grows and are analytic
    in n, so ``_INTERP_PER_SPAN`` anchors per unit of ln(n_hi/n_lo) reach the
    anchors' own accuracy.

    The fit measures its own error: at every order halfway (in angle)
    between adjacent Chebyshev nodes it is compared with the ladder, and the
    worst relative disagreement, at least ``_SEED_REL_ERR``, times
    ``_INTERP_SAFETY`` is the error envelope returned for J and for J'.
    Returns (a, b, coef_d, coef_dp, rel_j, rel_jp), [a, b] being the fit's
    range in ln n.
    """
    s, lng_hi, lng_lo, _ = _eps_geometry(eps)
    a = math.log(n_lo)
    b = math.log(n_hi)
    count = _anchor_count(n_lo, n_hi)
    # nodes at the angles pi (2j + 1) / (2 count), checks at the angles
    # pi k / count between them
    angles = np.pi * np.arange(2 * count + 1) / (2 * count)
    orders = np.rint(np.exp(0.5 * (a + b) + 0.5 * (b - a) * np.cos(angles))).astype(np.int64)
    nodes = np.unique(orders[1::2])
    checks = np.setdiff1d(orders[2:-1:2], nodes)  # on a short band an order may be both
    n = np.concatenate([nodes, checks])
    j, jp = _seeded_ladder(eps, n)
    n = n.astype(np.float64)
    inv_pref = _exp_n_lng(n, -lng_hi, -lng_lo, 0.5 * np.log(2.0 * math.pi * n))
    xm = (2.0 * np.log(n) - (a + b)) / (b - a)
    k = len(nodes)
    coefs, envelopes = [], []
    for f in (j * inv_pref * math.sqrt(s), jp * inv_pref / math.sqrt(s) * eps):
        c = np.polynomial.chebyshev.chebfit(xm[:k], f[:k], k - 1)
        keep = np.nonzero(np.abs(c) > 1e-15 * np.abs(c).max())[0]
        c = c[: keep[-1] + 1] if len(keep) else c[:1]
        agree = np.max(np.abs(_clenshaw(xm[k:], c) / f[k:] - 1.0),
                       initial=0.0)
        coefs.append(c)
        envelopes.append(_INTERP_SAFETY * max(float(agree), _SEED_REL_ERR))
    return (a, b, *coefs, *envelopes)


def _clenshaw(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] T_k(x), with numpy's ``chebval`` steps in its order, in place.

    Each step is tmp = c1*x2; tmp = c0 + tmp; c0 = c[-i] - c1; swap(c1, tmp),
    so the result equals ``chebval``'s bit for bit, without its temporaries.
    """
    c0 = np.full(x.shape, c[-2] if len(c) > 1 else c[0])
    c1 = np.full(x.shape, c[-1] if len(c) > 1 else 0.0)
    x2, tmp = 2.0 * x, np.empty(x.shape)
    for ci in c[-3::-1]:
        np.add(c0, np.multiply(c1, x2, out=tmp), out=tmp)
        np.subtract(ci, c1, out=c0)
        c1, tmp = tmp, c1
    return np.add(c0, np.multiply(c1, x, out=c1), out=c0)


def _interp_band(eps: float, n_arr: np.ndarray, n_lo: int, n_hi: int):
    """J_n(n eps), J_n'(n eps) on integer orders n_arr of the band n_lo..n_hi.

    Returns (j, jp, rel_j, rel_jp), the last two the band's error envelopes
    (floats).  A band of no more orders than the fit would take anchors is
    served by ``_seeded_ladder`` at each order; a longer one by the anchored
    interpolant, summed by ``_clenshaw`` in chunks of ``_DEBYE_CHUNK`` orders
    (its buffers then stay in cache; every step is elementwise, so the
    chunking changes no value).
    """
    if n_hi - n_lo < _anchor_count(n_lo, n_hi):
        rel = _INTERP_SAFETY * _SEED_REL_ERR
        return *_seeded_ladder(eps, n_arr), rel, rel
    s, lng_hi, lng_lo, _ = _eps_geometry(eps)
    a, b, coef_d, coef_dp, rel_j, rel_jp = _diag_interpolant(eps, n_lo, n_hi)
    j = np.empty(len(n_arr))
    jp = np.empty(len(n_arr))
    for lo in range(0, len(n_arr), _DEBYE_CHUNK):
        sl = slice(lo, lo + _DEBYE_CHUNK)
        n = n_arr[sl].astype(np.float64)
        xm = (2.0 * np.log(n) - (a + b)) / (b - a)
        pref = _exp_n_lng(n, lng_hi, lng_lo, -0.5 * np.log(2.0 * math.pi * n))
        j[sl] = _clenshaw(xm, coef_d) * pref / math.sqrt(s)
        jp[sl] = _clenshaw(xm, coef_dp) * pref * math.sqrt(s) / eps
    return j, jp, rel_j, rel_jp


# ---------------------------------------------------------------------------
# Diagonal coefficient table used by the Kapteyn series evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalTable:
    """J_n(n*eps), J_n'(n*eps) for n = 1..n_max with relative error estimates.

    The arrays are read-only.  A value depends on (eps, n) only, never on
    n_max, so a table is a prefix of any larger table at the same eps; tables
    at one eps may share their buffers (a smaller table is a view of a larger
    one, see ``_diagonal_table_cached``).
    """

    eps: float
    n_max: int
    j: np.ndarray
    jp: np.ndarray
    rel_j: np.ndarray
    rel_jp: np.ndarray


# Ceiling on the defective band, all of which the anchored interpolant
# serves; beyond it (eps extremely close to 1) Debye values are kept with
# their large error estimates, which the series evaluators surface as
# degraded-accuracy diagnostics.
_INTERP_MAX = 8_000_000


@lru_cache(maxsize=64)
def _band_hi(eps: float) -> int:
    """Last order b_hi of the defective Debye band crossover+1..b_hi.

    The band holds the orders whose Debye error estimate exceeds
    ``REL_TOL``.  The estimate falls as n grows, so the band is a
    prefix of the Debye range, and b_hi does not depend on how many orders a
    table asks for.  It is found by galloping (the order doubles from
    crossover+1) and then by multisection; each round is one ``_debye_batch``
    call on at most 32 orders.  The band is capped at ``_INTERP_MAX``.
    Returns the crossover order when there is no band.
    """
    lo, hi = CROSSOVER_ORDER, _INTERP_MAX + 1  # lo is in the band or the crossover; hi is not
    probes = [lo + 1]
    while probes[-1] < _INTERP_MAX:
        probes.append(min(2 * probes[-1], _INTERP_MAX))
    while probes:
        _, _, rel_j, rel_jp = _debye_batch(np.array(probes, dtype=np.int64), eps)
        bad = np.maximum(rel_j, rel_jp) > REL_TOL
        first_good = int(np.argmin(bad)) if not bad.all() else len(probes)
        if first_good > 0:
            lo = probes[first_good - 1]
        if first_good < len(probes):
            hi = probes[first_good]
        probes = [int(p) for p in np.unique(np.linspace(lo, hi, 34).astype(np.int64))
                  if lo < p < hi]
    return lo


# The largest table built so far for each eps, held weakly: while
# the LRU below or a caller keeps it alive, a smaller size is a view of it and
# a larger size copies it and computes only the new orders.
_LARGEST: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@lru_cache(maxsize=8)
def _diagonal_table_cached(eps: float, n_max: int) -> DiagonalTable:
    src = _LARGEST.get(eps)
    if src is not None and src.n_max >= n_max:
        return DiagonalTable(eps=eps, n_max=n_max, j=src.j[:n_max], jp=src.jp[:n_max],
                             rel_j=src.rel_j[:n_max], rel_jp=src.rel_jp[:n_max])
    n_old = 0 if src is None else src.n_max
    j = np.zeros(n_max)
    jp = np.zeros(n_max)
    rel_j = np.full(n_max, _SERIES_REL_ERR)
    rel_jp = np.full(n_max, _SERIES_REL_ERR)
    if src is not None:
        for dst, old in zip((j, jp, rel_j, rel_jp), (src.j, src.jp, src.rel_j, src.rel_jp)):
            dst[:n_old] = old
    _fill_orders(eps, n_old, j, jp, rel_j, rel_jp)
    for arr in (j, jp, rel_j, rel_jp):
        arr.setflags(write=False)
    tab = DiagonalTable(eps=eps, n_max=n_max, j=j, jp=jp, rel_j=rel_j, rel_jp=rel_jp)
    _LARGEST[eps] = tab
    return tab


def _fill_orders(eps: float, n_old: int, j, jp, rel_j, rel_jp) -> None:
    """Compute orders n_old+1..len(j) of a table in place.

    Each path is elementwise in n (the Miller block's lanes are independent,
    and Debye, the shift to the exact argument and the interpolant act order
    by order), and the band is fixed by eps, so the values do not depend on
    n_old or on len(j).
    """
    n_max = len(j)
    n_series = min(n_max, max(1, int(math.floor(_SERIES_X_MAX / eps))))
    for n in range(n_old + 1, n_series + 1):
        x = n * eps
        j[n - 1] = _jn_series(n, x)
        jp[n - 1] = 0.5 * (_jn_series(n - 1, x) - _jn_series(n + 1, x))

    n_miller_lo = max(n_old, n_series) + 1
    n_miller_hi = min(n_max, CROSSOVER_ORDER)
    if n_miller_hi >= n_miller_lo:
        sl = slice(n_miller_lo - 1, n_miller_hi)
        j[sl], jp[sl] = _shift_to_exact_x(eps, np.arange(n_miller_lo, n_miller_hi + 1.0),
                                          *_miller_diag_block(eps, n_miller_lo, n_miller_hi))
        rel_j[sl] = _MILLER_REL_ERR
        rel_jp[sl] = _MILLER_REL_ERR

    n_lo = max(n_old, CROSSOVER_ORDER) + 1
    if n_max < n_lo:
        return
    b_lo, b_hi = CROSSOVER_ORDER + 1, _band_hi(eps)
    n_band_hi = min(n_max, b_hi)
    if n_band_hi >= n_lo:
        sl = slice(n_lo - 1, n_band_hi)
        j[sl], jp[sl], rel_j[sl], rel_jp[sl] = _interp_band(
            eps, np.arange(n_lo, n_band_hi + 1, dtype=np.int64), b_lo, b_hi)
        n_lo = n_band_hi + 1

    if n_max >= n_lo:
        sl = slice(n_lo - 1, n_max)
        # copied straight into the table, so that no full-width Debye result
        # is held as well
        j[sl], jp[sl], rel_j[sl], rel_jp[sl] = _debye_batch(
            np.arange(n_lo, n_max + 1, dtype=np.int64), eps)
        np.maximum(rel_j[sl], 1e-16, out=rel_j[sl])
        np.maximum(rel_jp[sl], 1e-16, out=rel_jp[sl])


def diagonal_table(eps: float, n_max: int) -> DiagonalTable:
    """Cached table of Kapteyn diagonal coefficients for n = 1..n_max."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return _diagonal_table_cached(float(eps), int(n_max))


# ---------------------------------------------------------------------------
# Public scalar operations
# ---------------------------------------------------------------------------

def _validate_order_arg(n: int, x: float) -> None:
    if n != int(n) or n < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    if n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds max_order {MAX_ORDER}")
    if not math.isfinite(x):
        raise NonFinite(f"argument must be finite, got {x!r}")
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0 up to ``MAX_ORDER``, real x >= 0.

    Relative accuracy about ``REL_TOL`` away from underflow: the power series
    at x <= 2, Debye above ``CROSSOVER_ORDER`` where its own error estimate is
    at most REL_TOL/2, the normalized recurrence otherwise.  Near the
    underflow floor the error is absolute at the scale of the largest series
    term.  A general x keeps the normalized ``_miller_scalar``, not the seeded
    ladder: at x >= n the ladder is not stable for J below the turning point.
    """
    _validate_order_arg(n, x)
    n = int(n)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x <= _SERIES_X_MAX:
        return _jn_series(n, x)
    if n > CROSSOVER_ORDER and x < 0.98 * n:
        jv, _, rel, _ = _debye_scalar(n, x / n)
        if rel <= 0.5 * REL_TOL:
            return jv
    return _miller_scalar(x, (n,))[n]


def bessel_j_prime(n: int, x: float) -> float:
    """J_n'(x) = (J_{n-1}(x) - J_{n+1}(x))/2 with J_{-1} = -J_1, by
    ``_miller_scalar`` at a general x, as ``bessel_j``."""
    _validate_order_arg(n, x)
    n = int(n)
    if n == 0:
        return -bessel_j(1, x)
    if x == 0.0:
        return 0.5 if n == 1 else 0.0
    if x <= _SERIES_X_MAX:
        return 0.5 * (_jn_series(n - 1, x) - _jn_series(n + 1, x))
    if n > CROSSOVER_ORDER and x < 0.98 * n:
        _, jpv, _, rel = _debye_scalar(n, x / n)
        if rel <= 0.5 * REL_TOL:
            return jpv
    vals = _miller_scalar(x, (n - 1, n + 1))
    return 0.5 * (vals[n - 1] - vals[n + 1])


def _kapteyn_pair(n: int, eps: float):
    """(J_n(n*eps), J_n'(n*eps)) for the scalar entry points: the power
    series at n*eps <= 2, Debye above the crossover where its estimates meet
    ``REL_TOL``, and a one-lane ``_seeded_ladder`` otherwise."""
    if n != int(n) or n < 1:
        raise ValueError(f"order must be a positive integer, got {n!r}")
    if n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds max_order {MAX_ORDER}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    n = int(n)
    x = n * eps
    if x <= _SERIES_X_MAX:
        return _jn_series(n, x), 0.5 * (_jn_series(n - 1, x) - _jn_series(n + 1, x))
    if n > CROSSOVER_ORDER:
        jv, jpv, rel_j, rel_jp = _debye_scalar(n, eps)
        if max(rel_j, rel_jp) <= REL_TOL:
            return jv, jpv
    return _diag_point(eps, n)


def kapteyn_coeff(n: int, eps: float) -> float:
    """J_n(n*eps): the coefficient of the Kapteyn series.

    Strictly positive for eps in (0, 1) since n*eps stays below the first
    positive zero of J_n.  Underflow returns 0.0; downstream tail bounds
    treat such terms as exact zeros.
    """
    return _kapteyn_pair(n, eps)[0]


def kapteyn_coeff_prime(n: int, eps: float) -> float:
    """J_n'(n*eps); strictly positive for eps in (0, 1)."""
    return _kapteyn_pair(n, eps)[1]
