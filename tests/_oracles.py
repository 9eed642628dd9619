"""Independent high-precision oracles used by the tests (mpmath, 50 digits).

Everything here is deliberately separate from the package's own algorithms:
the power series and backward recurrence run in mpmath arbitrary-precision
arithmetic, besselj is mpmath's hypergeometric implementation, and
``jn_path`` integrates Bessel's integral numerically.
"""

import mpmath as mp


def jn_series(n: int, x, dps: int = 50):
    """J_n(x) by the ascending power series at dps digits."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        for k in range(300):
            term = (-1) ** k * (xm / 2) ** (n + 2 * k) / (
                mp.factorial(k) * mp.factorial(n + k))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps - 10) * max(abs(total), mp.mpf(10) ** (-dps)):
                break
        return total


def jn_backward(n: int, x, dps: int = 50):
    """J_n(x) by backward recurrence with even-order normalization."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        m = n + max(80, int(3 * mp.sqrt(n + 1)) + 80) + int(xm)
        jk1, jk = mp.mpf(0), mp.mpf(10) ** (-dps - 20)
        norm = mp.mpf(0)
        cap = None
        for k in range(m, 0, -1):
            if k == n:
                cap = jk
            if k % 2 == 0:
                norm += 2 * jk
            jk1, jk = jk, (2 * k / xm) * jk - jk1
        if n == 0:
            cap = jk
        norm += jk
        return cap / norm


def jn(n: int, x, dps: int = 40):
    """Reference J_n(x): mpmath besselj for moderate orders; above order 3000
    Bessel's integral (``jn_path``) for x < n, the recurrence otherwise."""
    if n > 3000:
        return jn_path(n, x, dps)[0] if x < n else jn_backward(n, x, dps=max(dps, 35))
    with mp.workdps(dps):
        return mp.besselj(n, mp.mpf(x))


def jn_prime(n: int, x, dps: int = 40):
    if n == 0:
        return -jn(1, x, dps)
    if n > 3000 and x < n:
        return jn_path(n, x, dps)[1]
    with mp.workdps(dps):  # the difference cancels: take it at dps digits
        return (jn(n - 1, x, dps) - jn(n + 1, x, dps)) / 2


def kepler_bisect(M, eps, dps: int = 40):
    """Root of E - eps*sin(E) = M by plain bisection."""
    with mp.workdps(dps):
        mm, ee = mp.mpf(M), mp.mpf(eps)
        lo, hi = mm - ee, mm + ee
        for _ in range(220):
            mid = (lo + hi) / 2
            if mid - ee * mp.sin(mid) - mm > 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def rel_err(approx, exact) -> float:
    exact = mp.mpf(exact) if not isinstance(exact, mp.mpf) else exact
    if exact == 0:
        return float(abs(approx))
    return float(abs((mp.mpf(float(approx)) - exact) / exact))


def kapteyn_triple(C, eps, dps: int = 40):
    """(F, F1, F2) at real C in (g, 1] from Kepler's equation at E = i*eta.

    With E = i*eta the mean anomaly is M = i*(eta - eps*sinh(eta)), so
    C = exp(iM) on the real axis asks for eta - eps*sinh(eta) = -ln C.  The
    left side rises from 0 at eta = 0 to -ln g at eta = arccosh(1/eps), so
    the root is unique there and is found by bisection.  With
    rho_K = 1 - eps*cosh(eta), the sums are F = 1/rho_K,
    F1 = -eps*sinh(eta)/rho_K^3 and F2 = (cosh(eta) - eps)/rho_K^3.
    """
    with mp.workdps(dps + 10):
        e = mp.mpf(eps)
        target = -mp.log(mp.mpf(C))
        lo, hi = mp.mpf(0), mp.acosh(1 / e)
        for _ in range(int(3.5 * dps) + 40):
            mid = (lo + hi) / 2
            if mid - e * mp.sinh(mid) > target:
                hi = mid
            else:
                lo = mid
        eta = (lo + hi) / 2
        rho = 1 - e * mp.cosh(eta)
        return 1 / rho, -e * mp.sinh(eta) / rho**3, (mp.cosh(eta) - e) / rho**3


def jn_path(n: int, x, dps: int = 20):
    """(J_n(x), J_n'(x)) for 0 < x < n by Bessel's integral on its path of
    steepest descent, at dps digits and any order.

    With x = n / cosh(alpha), the path tau = theta + i y(theta), cosh y =
    cosh(alpha) theta / sin(theta), keeps the phase of exp(i (n tau -
    x sin tau)) real, so J_n(x) = (1/pi) int_0^pi exp(x cos(theta) sinh(y) -
    n y) dtheta, and J_n'(x) the same with the factor cos(theta) sinh(y) +
    y'(theta) sin(theta) cosh(y).  The integrands are positive and peak at
    theta = 0; the Gauss-Legendre panels double in width from the angle where
    the integrand has fallen by a factor e.
    """
    with mp.workdps(dps + 8):
        n, x = mp.mpf(n), mp.mpf(x)
        c = n / x

        def expo(th):
            ch = c * th / mp.sin(th) if th else c
            y = mp.acosh(ch)
            return x * mp.cos(th) * mp.sinh(y) - n * y, y, ch

        e0 = expo(0)[0]
        lo, hi = mp.mpf(0), mp.pi / 2
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if e0 - expo(mid)[0] < 1 else (lo, mid)
        cache = {}

        def parts(th):
            if th not in cache:
                e, y, ch = expo(th)
                st, ct, sh = mp.sin(th), mp.cos(th), mp.sinh(y)
                yp = c * (st - th * ct) / (st * st * sh) if th else mp.mpf(0)
                v = mp.exp(e - e0)
                cache[th] = (v, (ct * sh + yp * st * ch) * v)
            return cache[th]

        pts = [0] + [hi * 2 ** k for k in range(12) if hi * 2 ** k < 3] + [mp.pi]
        scale = mp.exp(e0) / mp.pi
        return tuple(+(scale * mp.quad(lambda t, i=i: parts(t)[i], pts, method="gauss-legendre"))
                     for i in (0, 1))
