"""Independent 30-digit references for the benchmark's checks.

Nothing here imports gkm.  Every quantity is an integral against the
semicircle weight, taken under the substitution x = cos t:

    I[h] = (2/pi) int_0^pi sin(t)^2 h(cos t) W(cos t) dt,
    W(x) = 1 / prod_j (1 + a_j^2 - 2 a_j x).

The integrand is an even, 2*pi-periodic analytic function of t, so the
trapezoidal rule on [0, pi] converges geometrically; the node count is
doubled until two levels agree to far below double precision.  From the
same nodes come A = 1 / I[1], the raw moments A I[x^k] and the U-expansion
coefficients B_k = A I[U_k], with U_k(cos t) = sin((k+1) t) / sin t taken in
its trigonometric form.  Conjugate pairs enter through their complex
parameters a = rho (y +- i sqrt(1 - y^2)), so the quartic kernel of the
program is never used.  CDF values are partial integrals and go through
mpmath's tanh-sinh quadrature.
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf

DPS = 30
_GUARD = 6
_MAX_LEVEL = 16_384


def _pair_params(rho, y):
    out = []
    for r, v in zip(rho, y):
        s = mp.sqrt(1 - mpf(v) ** 2)
        out += [mpf(r) * mpc(v, s), mpf(r) * mpc(v, -s)]
    return out


def _weight(params):
    """W(x) for real or complex parameters (conjugates multiply to a real)."""

    def W(x):
        d = mpf(1)
        for a in params:
            d *= 1 + a * a - 2 * a * x
        return 1 / mp.re(d) if isinstance(d, mpc) else 1 / d

    return W


def _integrals(W, kmom: int, kb: int):
    """[I[1], I[x], ..., I[x^kmom]] and [I[U_0], ..., I[U_kb]] by doubling
    trapezoid on [0, pi] until two levels agree to 10^-DPS."""

    def node(t):
        x = mp.cos(t)
        s = mp.sin(t)
        w = W(x) * s * s
        moms = []
        p = w
        for _ in range(kmom + 1):
            moms.append(p)
            p *= x
        # sin((k+1) t) as the imaginary part of exp(i t)^(k+1)
        e = mp.expj(t)
        z = e
        ws = W(x) * s
        bs = []
        for _ in range(kb + 1):
            bs.append(ws * z.imag)
            z *= e
        return moms + bs

    count = kmom + kb + 2
    M = 16
    sums = [mpf(0)] * count
    for j in range(1, M):
        sums = [u + v for u, v in zip(sums, node(mp.pi * j / M))]
    prev = [s * 2 / M for s in sums]
    while True:
        # the new level's nodes are the midpoints of the old ones
        for j in range(1, 2 * M, 2):
            sums = [u + v for u, v in zip(sums, node(mp.pi * j / (2 * M)))]
        M *= 2
        cur = [s * 2 / M for s in sums]
        scale = max(abs(v) for v in cur)
        if max(abs(u - v) for u, v in zip(cur, prev)) <= scale * mpf(10) ** -DPS:
            return cur[: kmom + 1], cur[kmom + 1 :]
        if M > _MAX_LEVEL:
            raise ArithmeticError("reference trapezoid did not converge")
        prev = cur


def real_set(a, kmom: int = 12, kb: int = 20) -> dict:
    """A, moments 0..kmom and B_0..B_kb of the density with parameters a at c = 1."""
    with mp.workdps(DPS + _GUARD):
        params = [mpf(v) for v in a]
        moms, bs = _integrals(_weight(params), kmom, kb)
        A = 1 / moms[0]
        return {
            "A": float(A),
            "moments": [float(A * m) for m in moms],
            "B": [float(A * b) for b in bs],
        }


def conj_set(rho, y) -> dict:
    """Normalizer of the conjugate-pair density."""
    with mp.workdps(DPS + _GUARD):
        moms, _ = _integrals(_weight(_pair_params(rho, y)), 0, -1)
        return {"A": float(1 / moms[0])}


def real_density(a, c: float, A: float, xs) -> list:
    """2 A c^(n-2) sqrt(c^2 - x^2) / (pi prod_j (c (1 + a_j^2) - 2 a_j x))."""
    with mp.workdps(DPS + _GUARD):
        c = mpf(c)
        out = []
        for x in xs:
            x = mpf(x)
            d = mp.pi
            for v in a:
                v = mpf(v)
                d *= c * (1 + v * v) - 2 * v * x
            out.append(float(2 * mpf(A) * c ** (len(a) - 2) * mp.sqrt(c * c - x * x) / d))
        return out


def conj_density(rho, y, A: float, xs) -> list:
    """2 A sqrt(1 - x^2) / (pi prod |1 + a^2 - 2 a x|) over the complex pair parameters."""
    with mp.workdps(DPS + _GUARD):
        W = _weight(_pair_params(rho, y))
        return [float(2 * mpf(A) * mp.sqrt(1 - mpf(x) ** 2) * W(mpf(x)) / mp.pi) for x in xs]


def real_cdf(a, A: float, xs) -> list:
    """F(x) = A (2/pi) int_{arccos x}^{pi} sin(t)^2 W(cos t) dt at c = 1."""
    with mp.workdps(DPS + _GUARD):
        W = _weight([mpf(v) for v in a])
        A = mpf(A)
        out = []
        for x in xs:
            lo = mp.acos(mpf(x))
            val, err = mp.quad(lambda t: mp.sin(t) ** 2 * W(mp.cos(t)), [lo, (lo + mp.pi) / 2, mp.pi], error=True)
            if err > mpf(10) ** -20:
                raise ArithmeticError(f"reference CDF quadrature error {err} at x={x}")
            out.append(float(A * 2 * val / mp.pi))
        return out
