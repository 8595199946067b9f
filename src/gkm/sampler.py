"""Inverse-transform sampling from the density and KS goodness-of-fit.

The CDF is tabulated on a Chebyshev-extrema grid (dense near the endpoints
where the density has square-root behavior) and inverted through monotone
cubic interpolation, so moment recovery is not biased by grid resolution.
The interpolant is a numpy Fritsch-Carlson monotone cubic (Fritsch and
Carlson, SIAM J. Numer. Anal. 17, 1980) that repeats the arithmetic of
scipy's PchipInterpolator step by step and so returns its bits; it finds
the intervals of unsorted points through a guide table (Chen and Asau,
1974), and those of sorted ones (the KS statistic's) by runs.  The public
`CdfTable.cdf` and `.inverse` check their points and do not extrapolate.
Uniform draws come from the Philox counter-based generator: the stream is a
pure function of (seed, counter), so any run with the same seed reproduces
the same samples bit for bit regardless of partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .chebyshev import _index, _real_array
from .core import ParamSet, density
from .errors import DomainError, InvalidParameters

# 99% asymptotic critical value of the Kolmogorov statistic: D * sqrt(n) < 1.628
KS_CRIT_99 = 1.628
# points a monotone cubic evaluates per pass: each row of its workspace
# (64 KiB) stays in cache, and as a block allocates nothing (guide table) or
# one 64 KiB array at a time (runs), glibc's heap does not grow and shrink
# again block after block
_BLOCK = 8192


def _edge_slope(h0, h1, m0, m1):
    """The end slope of a monotone cubic from the two end intervals (widths
    h0, h1, secant slopes m0, m1): the one-sided three-point formula, set to
    0 where its sign differs from m0's and to 3 m0 where it overshoots
    (Moler, Numerical Computing with MATLAB, 2004, section 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _MonotoneCubic:
    """q -> the monotone (PCHIP) cubic through the knots (x_j, y_j) at q, with
    the bits of scipy.interpolate.PchipInterpolator(x, y)(q): the same knot
    slopes, the same per-interval power coefficients c_k of s = q - x_i, the
    same sum ((c0 + c1 s) + c2 (s s)) + c3 ((s s) s), and the same intervals
    x_i <= q < x_{i+1}, the last one closed and the two end pieces
    extrapolated.  Returns an array of q's shape, 0-d for a scalar.

    The interval is found through a guide table over M = 4 (N - 1) buckets of
    equal width: b(q) = clip(floor((q - x_0) (M / (x_last - x_0))), 0, M - 1)
    is monotone in q in floating point, so the guide[b(q)] interior knots
    whose own bucket is below b(q) all lie at or below q, and those whose
    bucket is above it all lie above q.  Where bucket b(q) holds at most one
    interior knot, one comparison with the knot after them gives the count
    of interior knots <= q, which is the interval; where it holds more (the
    CDF values of an inverse table crowd near 0 and 1), a binary search
    over the interior knots does.  NaN goes to bucket 0 and interval 0.
    `_sorted` finds the intervals of sorted points by runs instead.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        if not (
            x.ndim == 1 and x.shape == y.shape and x.size >= 2
            and np.all(h > 0) and np.all(np.isfinite(h)) and np.all(np.isfinite(y))
        ):
            raise InvalidParameters("a monotone cubic needs two or more finite, strictly increasing knots with finite values")
        m = np.diff(y) / h
        d = np.zeros_like(y)
        if x.size == 2:
            d[:] = m[0]
        else:
            # Fritsch-Butland: a weighted harmonic mean of the secant slopes,
            # 0 where they differ in sign or one vanishes
            sm = np.sign(m)
            flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1][~flat] = 1.0 / whmean[~flat]
            d[0] = _edge_slope(h[0], h[1], m[0], m[1])
            d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        # 0.0 + y turns -0.0 into 0.0, as PPoly's sum starting from 0.0 does
        self._coef = (0.0 + y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)
        self._x = x
        buckets = 4 * (x.size - 1)
        self._scale = buckets / (x[-1] - x[0])
        self._top = buckets - 1.0
        inner = x[1:-1]
        bucket = self._bucket(inner, np.empty_like(inner), np.empty(inner.size, np.intp))
        guide = np.searchsorted(bucket, np.arange(buckets + 1))
        self._guide = guide[:-1]
        # per bucket, the knot after those below it (NaN after the last
        # interior knot: NaN <= q is False), and whether it holds two or more
        self._next = np.append(inner, np.nan).take(self._guide)
        self._crowded = np.diff(guide) > 1

    def _bucket(self, q, f, b):
        """b <- the bucket of each point of q, through the float scratch f."""
        np.subtract(q, self._x[0], out=f)
        f *= self._scale
        np.fmax(f, 0.0, out=f)  # NaN goes to bucket 0
        np.fmin(f, self._top, out=f)
        np.copyto(b, f, casting="unsafe")
        return b

    def _interval(self, q, work=None):
        """The interval of each point of q: the count of interior knots <= q,
        computed in `work` (see _workspace), or in a fresh one."""
        f, k, m = work or _workspace(q.size)
        b = self._bucket(q, f[0], k[0])
        # take(out=) in its default mode "raise" writes through a buffered
        # copy; the indices are in range, so "clip" changes no value
        i = self._guide.take(b, out=k[1], mode="clip")
        i += np.less_equal(self._next.take(b, out=f[0], mode="clip"), q, out=m)
        crowded = np.flatnonzero(self._crowded.take(b, out=m, mode="clip"))
        if crowded.size:
            # fmax takes NaN to -inf, which is below every knot
            i[crowded] = np.searchsorted(self._x[1:-1], np.fmax(q.take(crowded), -np.inf), side="right")
        return i

    def _block(self, q, out, work):
        i = self._interval(q, work)
        f = work[0]
        c0, c1, c2, c3 = self._coef
        s = np.subtract(q, self._x.take(i, out=f[0], mode="clip"), out=f[0])
        ss = np.multiply(s, s, out=f[1])
        r = c1.take(i, out=f[2], mode="clip")
        r *= s
        r += c0.take(i, out=f[3], mode="clip")
        t = c2.take(i, out=f[3], mode="clip")
        t *= ss
        r += t
        ss *= s
        c3.take(i, out=t, mode="clip")
        t *= ss
        np.add(r, t, out=out)

    def __call__(self, q, out=None):
        """The cubic at q, in out if given: a writeable C-contiguous float
        array of q's shape, which may be q (a block reads before it writes)."""
        q = np.asarray(q, dtype=float)
        if out is None:
            out = np.empty(q.shape)
        elif not (
            isinstance(out, np.ndarray) and out.shape == q.shape and out.dtype == float
            and out.flags.c_contiguous and out.flags.writeable
        ):
            raise InvalidParameters(f"out must be a writeable C-contiguous float array of shape {q.shape}")
        flat_q, flat_out = q.reshape(-1), out.reshape(-1)
        # a NaN point gives scipy's NaN, not its own payload; min propagates NaN
        nan = np.isnan(flat_q) if np.isnan(flat_q.min(initial=0.0)) else []
        work = _workspace(min(q.size, _BLOCK))
        # far outside the table the cubic overflows, silently as in scipy
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(0, q.size, _BLOCK):
                n = min(_BLOCK, q.size - k)
                self._block(flat_q[k:k + n], flat_out[k:k + n], tuple(w[..., :n] for w in work))
        flat_out[nan] = np.nan
        return out

    def _sorted(self, q, out):
        """The cubic at the sorted, NaN-free flat float array q, in out (which
        may be q), with __call__'s bits.  Run j of the sorted points, from the
        count below knot x_j to the count below x_{j+1}, lies in interval j:
        one search of the interior knots among the points replaces the guide
        table, and np.repeat over a block's runs its five gathers.  Each
        repeat (64 KiB; np.repeat has no out=) is freed after its one use, so
        under a 128 KiB mmap threshold glibc's heap does not grow and trim
        block after block."""
        x = self._x
        bound = np.concatenate(([0], np.searchsorted(q, x[1:-1], side="left"), [q.size]))
        coef = (x[:-1], *self._coef)
        f = np.empty((4, min(q.size, _BLOCK)))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(0, q.size, _BLOCK):
                n = min(_BLOCK, q.size - k)
                # the runs from the interval of the block's first point to
                # that of its last
                j0, j1 = np.searchsorted(bound, (k, k + n - 1), side="right") - 1
                runs = np.diff(np.clip(bound[j0:j1 + 2], k, k + n))
                xi, c0, c1, c2, c3 = (c[j0:j1 + 1] for c in coef)
                s = np.subtract(q[k:k + n], xi.repeat(runs), out=f[0, :n])
                ss = np.multiply(s, s, out=f[1, :n])
                r = np.multiply(c1.repeat(runs), s, out=f[2, :n])
                r += c0.repeat(runs)
                t = np.multiply(c2.repeat(runs), ss, out=f[3, :n])
                r += t
                ss *= s
                np.multiply(c3.repeat(runs), ss, out=t)
                np.add(r, t, out=out[k:k + n])
        return out


def _workspace(n):
    """Scratch for blocks of up to n points, reused by every block of a call:
    four float rows, two intp rows and one bool row."""
    return np.empty((4, n)), np.empty((2, n), np.intp), np.empty(n, bool)


@dataclass(frozen=True)
class CdfTable:
    """Monotone grid of (x, F(x)) pairs for one parameter set."""

    xs: np.ndarray
    Fs: np.ndarray

    # each cubic, which extrapolates beyond the table, is built on first use
    _cdf = cached_property(lambda self: _MonotoneCubic(self.xs, self.Fs))
    _inverse = cached_property(lambda self: _MonotoneCubic(self.Fs, self.xs))

    def cdf(self, x):
        """F(x) in x's shape: the table's cubic, exactly 0.0 below the table
        and 1.0 above it; InvalidParameters unless x is real, DomainError for NaN."""
        q = _real_array(x, "x")
        F, lo, hi = self._cdf(q), self.xs[0], self.xs[-1]
        if not (q.min(initial=lo) >= lo and q.max(initial=hi) <= hi):
            if np.isnan(q.min()):  # min propagates NaN
                raise DomainError("x must not be NaN")
            F[q < lo], F[q > hi] = 0.0, 1.0
        return F

    def inverse(self, u):
        """F^{-1}(u) in u's shape: the table's cubic; InvalidParameters unless u
        is real, DomainError unless every u lies in [0, 1] (NaN does not)."""
        q = _real_array(u, "u")
        if not (q.min(initial=0.0) >= 0.0 and q.max(initial=1.0) <= 1.0):
            raise DomainError("u outside [0, 1]")
        return self._inverse(q)


@cache
def _gauss_legendre_8() -> tuple:
    """Nodes and weights of the 8-point Gauss-Legendre rule on [-1, 1], read
    only: computed on first use, so that numpy.polynomial is imported only
    by a process that builds a CDF table."""
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(8)
    for a in rule:
        a.flags.writeable = False
    return rule


def build_cdf(p: ParamSet, N: int = 2048) -> CdfTable:
    """Tabulate the CDF on N Chebyshev-extrema points of [-c, c].

    Cell masses come from per-cell Gauss-Legendre quadrature in the angular
    variable (the transformed integrand is smooth); the table is renormalized
    so F at the right endpoint is exactly one.
    """
    N = _index(N, "N")
    if N < 64:
        raise InvalidParameters("N must be at least 64")
    c = p.c
    # theta decreasing from pi to 0 makes xs = c cos(theta) increasing
    theta = np.pi * (1.0 - np.arange(N) / (N - 1))
    xs = c * np.cos(theta)
    xs[0] = -c
    xs[-1] = c
    gl_nodes, gl_weights = _gauss_legendre_8()
    lo = theta[:-1]
    hi = theta[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    tq = mid[:, None] + half[:, None] * gl_nodes[None, :]
    vals = density(p, c * np.cos(tq)) * c * np.sin(tq)
    # dx = -c sin(theta) dtheta and theta runs downward, so the cell mass is
    # the GL sum times |half|
    masses = np.sum(vals * gl_weights[None, :], axis=1) * np.abs(half)
    Fs = np.concatenate([[0.0], np.cumsum(masses)])
    Fs /= Fs[-1]
    Fs[0] = 0.0
    Fs[-1] = 1.0
    return CdfTable(xs=xs, Fs=Fs)


def sample(t: CdfTable, count: int, seed: int) -> np.ndarray:
    """count inverse-transform draws; reproducible from (seed) alone.
    count and seed are integers, count >= 1 and 0 <= seed < 2^128."""
    count, seed = _index(count, "count"), _index(seed, "seed")
    if count < 1:
        raise InvalidParameters("count must be positive")
    if seed >> 128:
        raise InvalidParameters(f"seed must be below 2^128, got {seed}")
    gen = np.random.Generator(np.random.Philox(key=seed))
    u = gen.random(count)
    x = t._inverse(u, out=u)
    return np.clip(x, t.xs[0], t.xs[-1], out=x)


def ks_statistic(samples, t: CdfTable) -> float:
    """Sup-norm distance between the empirical CDF and the table's CDF;
    InvalidParameters for samples that are not one nonempty flat array of
    real numbers (integers or floats: not bools, text, bytes, complex numbers
    or objects), DomainError for a sample that is not finite."""
    s = _real_array(samples, "samples")
    if s.ndim != 1:
        raise InvalidParameters(f"samples must be a 1-D array, got {s.ndim} dimensions")
    s = np.sort(s)
    if s.size == 0:
        raise InvalidParameters("samples must be nonempty")
    # sorted, -inf comes first and inf and NaN come last
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        raise DomainError("samples must be finite")
    return _ks_sorted(s, t)


def _ks_sorted(s: np.ndarray, t: CdfTable) -> float:
    """The KS statistic of ks_statistic from the sorted, finite, nonempty
    flat float array s, which it overwrites with the table's CDF values.
    As s is sorted, the CDF is evaluated by runs (`_MonotoneCubic._sorted`),
    not through the guide table."""
    F = t._cdf._sorted(np.clip(s, t.xs[0], t.xs[-1], out=s), out=s)
    np.clip(F, 0.0, 1.0, out=F)
    # the largest i / n - F_i and F_i - (i - 1) / n for i = 1..n, a block of
    # i at a time in one reused buffer
    n = s.size
    d_plus = d_minus = -np.inf
    ramp = np.arange(min(n, _BLOCK), dtype=float)
    w = np.empty_like(ramp)
    for k in range(0, n, _BLOCK):
        Fk = F[k:k + _BLOCK]
        wk = w[:Fk.size]
        np.add(ramp[:Fk.size], k + 1, out=wk)
        wk /= n
        d_plus = max(d_plus, np.subtract(wk, Fk, out=wk).max())
        np.add(ramp[:Fk.size], k, out=wk)
        wk /= n
        d_minus = max(d_minus, np.subtract(Fk, wk, out=wk).max())
    return float(max(d_plus, d_minus))


def _ks_pass(d: float, n: int) -> bool:
    """Asymptotic Kolmogorov test at 1% significance of a statistic d from n draws."""
    return bool(d * np.sqrt(n) < KS_CRIT_99)
