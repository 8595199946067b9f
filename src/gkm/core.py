"""Generalized Kesten-McKay densities and their closed-form apparatus.

The density on [-c, c] is a scaled semicircle divided by a product of
factors c(1 + a_j^2) - 2 a_j x, one per real parameter a_j with |a_j| < 1.
This module provides the normalizing constant (partial-fraction closed form
and the cancellation-free low-order specials), the U-basis expansion
coefficients B_{n,k}, raw moments, the generating-function route to the
B sequence, and the rational-symmetric identity residuals used as exact
self-checks; `density_series` sums through `chebyshev`'s one U-series sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import oracle
# u_all stays bound here: perfbench/selftest.py asserts core.u_all is chebyshev.u_all (ROADMAP item 14)
from .chebyshev import _check_x, _float, _index, _real_or_nan, _reals, _truncation_order, _u_sums, _unwrap, u_all
from .errors import (
    DegenerateParameters,
    InternalInconsistency,
    InvalidParameters,
    Unsupported,
    ZeroParameter,
)
from .symfun import elementary_all

# Partial-fraction closed forms are refused below this parameter separation.
DISTINCTNESS_TOL = 1e-6
# The highest moment order: from k = 1015 on, the divisor (k + 1) 2^k of
# `moment` is beyond the float range.
MOMENT_ORDER_CAP = 1014


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_unit(**values):
    """InvalidParameters unless each named value v is a real with |v| < 1;
    written as "not (... < ...)" so that NaN, and so text and None, are
    rejected too."""
    for name, v in values.items():
        if not abs(_real_or_nan(v)) < 1.0:
            raise InvalidParameters(f"|{name}| must be < 1, got {v}")


def _json_params(s: str, lists: tuple, reals: tuple = ()) -> dict:
    """The JSON object s, with each key of `lists` a list of reals and each
    key of `reals` that it has a real, and no other key; InvalidParameters
    for any other shape, or for text that is not JSON."""
    try:
        d = json.loads(s)
    except (TypeError, ValueError) as exc:
        raise InvalidParameters(f"parameter file: not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise InvalidParameters(f"parameter file: expected a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(lists) - set(reals))
    if unknown:
        raise InvalidParameters(f"parameter file: unknown key(s) {', '.join(map(repr, unknown))}")
    for key in lists:
        if key not in d:
            raise InvalidParameters(f"parameter file: missing key {key!r}")
        if not (isinstance(d[key], list) and all(map(_is_real, d[key]))):
            raise InvalidParameters(f"parameter file: {key!r} must be a list of reals, got {d[key]!r}")
    for key in reals:
        if key in d and not _is_real(d[key]):
            raise InvalidParameters(f"parameter file: {key!r} must be a real, got {d[key]!r}")
    return d


@dataclass(frozen=True)
class ParamSet:
    """Scale c and real parameter vector a of the density.

    A set is frozen, so it keeps what it has computed, each on first use:
    the operands the closed forms share (the float array of a, S_0..S_n,
    the normalizer, the partial-fraction denominators with the normalizer
    built from them, and the table of B values), and the scalar closed forms
    themselves (each moment, orthopoly's P_m and Gram entries, the sums of
    B for U_i U_j, Q_n, and the B sequence of the generating function).
    Each is computed once, and a later call returns the first call's bits;
    memory grows only with the distinct indices asked for.  Kept arrays are
    read-only, and the public functions hand out copies.  A computation that
    raises stores nothing, so a coincident set refuses the partial-fraction
    forms on every call.
    """

    a: tuple = field(default=())
    c: float = 1.0

    def __post_init__(self):
        a = _reals("a", self.a)
        try:
            c = _float(self.c)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameters(f"scale c must be a real, got {self.c!r}") from None
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        # written as "not (... < ...)" so that NaN is rejected too
        if not (0.0 < c < math.inf):
            raise InvalidParameters(f"scale c must be positive and finite, got {c}")
        _check_unit(**{f"a_{i + 1}": ai for i, ai in enumerate(a)})

    @property
    def n(self) -> int:
        return len(self.a)

    @cached_property
    def min_gap(self) -> float:
        a = self.a
        if len(a) < 2:
            return math.inf
        return min(abs(a[i] - a[j]) for i in range(len(a)) for j in range(i + 1, len(a)))

    @cached_property
    def _a(self) -> np.ndarray:
        return _read_only(np.asarray(self.a, dtype=float))

    @cached_property
    def _S(self) -> np.ndarray:
        """Elementary symmetric values S_0..S_n of a."""
        return _read_only(elementary_all(self._a))

    def _g(self, x):
        """The factor g of the density A g(x) (2/pi) sqrt(1 - x^2) at scale
        1, 1/prod_j (1 + a_j^2 - 2 a_j x), on the float array x: one division
        per a_j in turn, in place; the constants are Python floats."""
        r = np.ones(np.shape(x))
        d = np.empty_like(r)
        for aj in self.a:
            np.multiply(2.0 * aj, x, out=d)
            np.subtract(1.0 + aj * aj, d, out=d)
            np.divide(r, d, out=r)
        return r

    @cached_property
    def _A(self) -> float:
        """The normalizer, by the route `normalizer` documents."""
        if self.n <= 6:
            return A_special(self)
        if self.min_gap > DISTINCTNESS_TOL:
            return A_closed(self)
        return oracle.normalizer_numeric(self)

    @cached_property
    def _pf_den(self) -> np.ndarray:
        """prod_{j != i} (a_i - a_j)(1 - a_i a_j) for each i; refused for
        coincident parameters."""
        _require_distinct(self)
        a = self._a
        out = np.ones(self.n)
        for i in range(self.n):
            for j in range(self.n):
                if j != i:
                    out[i] *= (a[i] - a[j]) * (1.0 - a[i] * a[j])
        return _read_only(out)

    @cached_property
    def _A_closed(self) -> float:
        return float(1.0 / np.sum(self._a ** (self.n - 1) / self._pf_den))

    def _B(self, K: int) -> np.ndarray:
        """The kept table B_{n,0}..B_{n,L}, L >= K; a longer request at least
        doubles it.  _B_values gives B_k the same bits whatever else it is
        asked for, so the table holds the bits of every direct call."""
        table = self.__dict__.get("_B_table")
        if table is None or len(table) <= K:
            start = 0 if table is None else len(table)
            new = _B_values(self, np.arange(start, max(K + 1, 2 * start)))
            table = _read_only(new if table is None else np.concatenate((table, new)))
            self.__dict__["_B_table"] = table
        return table

    def _kept(self, name: str, key, make):
        """The value kept under (name, key), from make() on the first
        request; a make() that raises stores nothing.  Values are kept in
        the instance dict, where moment, inner_UU, P_coeffs and gram look
        them up before their checks."""
        kept = self.__dict__
        try:
            return kept[name, key]
        except KeyError:
            value = kept[name, key] = make()
            return value

    def to_json(self) -> str:
        return json.dumps({"c": self.c, "a": list(self.a)})

    @staticmethod
    def from_json(s: str) -> "ParamSet":
        d = _json_params(s, ("a",), ("c",))
        return ParamSet(a=tuple(d["a"]), c=float(d.get("c", 1.0)))


@dataclass(frozen=True)
class BSeq:
    """Prefix B_{n,0}..B_{n,K} of the U-expansion coefficients."""

    values: np.ndarray

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def _require_distinct(p: ParamSet):
    if p.min_gap <= DISTINCTNESS_TOL:
        raise DegenerateParameters(
            f"min parameter gap {p.min_gap:g} <= {DISTINCTNESS_TOL:g}; "
            "use the numeric normalizer instead"
        )


def A_closed(p: ParamSet) -> float:
    """Normalizer by the partial-fraction sum 1 / sum_i a_i^{n-1} / prod(...)."""
    if p.n == 0:
        return 1.0
    return p._A_closed


def _pair_product(a: np.ndarray) -> float:
    n = len(a)
    r = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            r *= 1.0 - a[i] * a[j]
    return float(r)


def A_special(p: ParamSet) -> float:
    """Normalizer from the explicit n <= 6 formulas (no a_i - a_j denominators,
    so coincident parameters are fine here)."""
    n = p.n
    if n > 6:
        raise Unsupported("explicit normalizer formulas stop at n = 6")
    num = _pair_product(p._a)
    if n <= 3:
        return num
    S = p._S
    if n == 4:
        den = 1.0 - S[4]
    elif n == 5:
        den = 1.0 - S[4] + S[1] * S[5] - S[5] ** 2
    else:
        den = (
            1.0 - S[4] + S[1] * S[5] - S[5] ** 2
            - S[6] - S[1] ** 2 * S[6] + S[2] * S[6] + S[4] * S[6]
            + S[1] * S[5] * S[6] - S[6] ** 2 - S[2] * S[6] ** 2 + S[6] ** 3
        )
    return float(num / den)


def normalizer(p: ParamSet) -> float:
    """Best-available normalizer: cancellation-free special form, then the
    partial-fraction closed form, then numeric quadrature; computed once
    per parameter set."""
    return p._A


def _semicircle(cc: float, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sqrt(max(cc - xs * xs, 0)), computed in out."""
    np.multiply(xs, xs, out=out)
    np.subtract(cc, out, out=out)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def density(p: ParamSet, x):
    """Density value(s) at x in [-c, c]."""
    c = p.c
    # a float (np.float64 too) inside [-c, c] needs no array round trip;
    # _check_x raises for any other bad point, NaN included
    if not (isinstance(x, float) and -c <= x <= c):
        x = _check_x(x, c)
    A = normalizer(p)
    if isinstance(x, float) or not x.shape:
        # one point: Python floats cost far less than ufunc calls into
        # one-element buffers, and do the same IEEE operations in turn
        x = float(x)
        den = math.pi
        for aj in p.a:
            den = den * (c * (1.0 + aj * aj) - 2.0 * aj * x)
        return 2.0 * A * c ** (p.n - 2) * math.sqrt(max(c * c - x * x, 0.0)) / den
    # two buffers: den = pi * prod_j (c (1 + a_j^2) - 2 a_j x), with num as
    # the scratch for each factor, then num = 2 A c^(n-2) sqrt(c^2 - x^2)
    num = np.empty_like(x)
    den = np.full_like(x, np.pi)
    for aj in p.a:
        np.multiply(2.0 * aj, x, out=num)
        np.subtract(c * (1.0 + aj * aj), num, out=num)
        np.multiply(den, num, out=den)
    np.multiply(2.0 * A * c ** (p.n - 2), _semicircle(c * c, x, num), out=num)
    return np.divide(num, den, out=num)


def density_classical_km(v: float, x):
    """The classical Kesten-McKay density with parameter v > 1 on
    [-2 sqrt(v-1), 2 sqrt(v-1)]."""
    if not 1.0 < v < math.inf:
        raise InvalidParameters(f"v must lie in (1, inf), got {v!r}")
    half_width = 2.0 * math.sqrt(v - 1.0)
    x = _check_x(x, half_width)
    return _unwrap(v * np.sqrt(np.maximum(4.0 * (v - 1.0) - x * x, 0.0)) / (2.0 * np.pi * (v * v - x * x)))


def _B_values(p: ParamSet, ks: np.ndarray) -> np.ndarray:
    """B_{n,k} = A_n sum_i a_i^{n+k-1} / prod_{j != i} (a_i - a_j)(1 - a_i a_j)
    for each index k of ks; the closed-form B values of the package all come
    from here (B_from_genfun is the independent route).

    Both operands of the power are materialized as flat arrays, so every
    element takes numpy's vector pow and B_k has the same bits whichever
    indices are asked for.  An exponent of 2 with stride 0 (broadcast, or the
    lone element of a 2-D array) would take numpy's x * x instead, which
    differs from pow in the last bit for a few percent of inputs.
    """
    n, rows = p.n, len(ks)
    if n == 0:
        return (ks == 0).astype(float)
    bases = np.repeat(p._a[None, :], rows, axis=0).ravel()
    table = np.power(bases, np.repeat(ks + (n - 1.0), n)).reshape(rows, n)
    np.divide(table, p._pf_den, out=table)
    return p._A_closed * np.add.reduce(table, axis=1)


def B_coeff(p: ParamSet, k: int) -> float:
    """B_{n,k}, the U_k coefficient of the density over the semicircle."""
    k = _index(k)
    return float(_B_values(p, np.array([k]))[0])


def B_prefix(p: ParamSet, K: int) -> BSeq:
    """B_{n,0}..B_{n,K} by the closed form, in a fresh array the caller may
    write to."""
    K = _index(K, "K")
    return BSeq(values=p._B(K)[: K + 1].copy())


def series_truncation_order(amax: float, tol: float) -> int:
    """Smallest K with the tail bound amax^{K+1} (K+2) / (1 - amax) < tol
    (uses |U_k| <= k + 1 on [-1, 1]); 0 <= amax < 1 and 0 < tol < inf.
    Unsupported above SERIES_ORDER_CAP."""
    if not (0.0 <= amax < 1.0):
        raise InvalidParameters(f"amax must lie in [0, 1), got {amax}")
    return _truncation_order(amax, lambda K: amax ** (K + 1) * (K + 2) / (1.0 - amax), tol, f"amax={amax}")


def density_series(p: ParamSet, x, tol: float = 1e-10):
    """Density through the U-basis expansion, truncated by the geometric
    tail bound; agrees with the product form to tol.  Requires c = 1.

    The series is summed by `chebyshev._u_sums` in this process: one
    contraction with the basis when it fits in SERIES_BLOCK values,
    Clenshaw's recurrence beyond.
    """
    if p.c != 1.0:
        raise InvalidParameters("series path is defined at scale c = 1")
    x = _check_x(x)
    amax = max((abs(ai) for ai in p.a), default=0.0)
    K = series_truncation_order(amax, tol)
    (s,) = _u_sums([B_prefix(p, K).values], x)
    w = _semicircle(1.0, x, np.empty_like(x))
    np.multiply(2.0 / np.pi, w, out=w)
    return _unwrap(np.multiply(w, s, out=s))


def moment(p: ParamSet, k: int) -> float:
    """k-th raw moment at scale c = 1 via the finite B-weighted binomial sum,
    kept on p; Unsupported above MOMENT_ORDER_CAP."""
    # a kept value passed every check below when it was made; only an exact
    # int may look it up, as 2.0 and np.float64(2.0) hash like 2 and are refused
    if type(k) is int:
        try:
            return p.__dict__["moment", k]
        except KeyError:
            pass
    k = _index(k)
    if p.c != 1.0:
        raise InvalidParameters("moment formula is at scale c = 1; scale by c^k externally")
    if k > MOMENT_ORDER_CAP:
        raise Unsupported(f"moment order {k} above {MOMENT_ORDER_CAP}: (k + 1) 2^k overflows a float")
    return p._kept("moment", k, lambda: _moment(p, k))


def _moment(p: ParamSet, k: int) -> float:
    total = 0.0
    for j, b in enumerate(p._B(k)[k::-2].tolist()):
        total += (k - 2 * j + 1) * math.comb(k + 1, j) * b
    return total / ((k + 1) * 2 ** k)


def _UU_sum(p: ParamSet, lo: int, hi: int) -> float:
    """B_lo + B_{lo+2} + ... + B_hi, the integral of U_i U_j against the
    density with lo = |i - j| and hi = i + j; kept on p."""
    return p._kept("UU", (lo, hi), lambda: float(np.add.reduce(p._B(hi)[lo : hi + 1 : 2])))


def inner_UU(p: ParamSet, k: int, m: int) -> float:
    """integral of U_k U_m against the density, as a finite sum of B values."""
    if type(k) is int and type(m) is int:
        # kept, as in moment; a negative index gives lo > hi or hi < 0,
        # which no kept sum has
        try:
            return p.__dict__["UU", (abs(m - k), m + k)]
        except KeyError:
            pass
    k, m = _index(k), _index(m, "m")
    return _UU_sum(p, abs(m - k), m + k)


# coefficient arrays below are ascending in t

def _products_skipping_each(a: list) -> list:
    """For i = 0..n-1, the coefficients of prod_{j != i} (1 - a_j t), on
    Python floats: each factor updates c_m - a_j c_{m-1} from the top down,
    in the order of j."""
    products = []
    for i in range(len(a)):
        coeffs = [1.0] + [0.0] * (len(a) - 1)
        for m_top, aj in enumerate(a[:i] + a[i + 1:], 1):
            for m in range(m_top, 0, -1):
                coeffs[m] = coeffs[m] - aj * coeffs[m - 1]
        products.append(coeffs)
    return products


def Q_poly(p: ParamSet) -> np.ndarray:
    """Coefficients (ascending in t) of the degree-max(n-2, 0) numerator of
    the B-sequence generating function, computed once per parameter set, in
    a fresh array the caller may write to.

    The formally degree-(n-1) coefficient must cancel; the residual is
    checked before truncation.  The sum runs on Python floats in a fixed
    order: for i = 0..n-1 it adds (A a_i^{n-1} / den_i) times the
    coefficients of prod_{j != i} (1 - a_j t), one product and one sum per
    coefficient, with no fused multiply-add.
    """
    return p._kept("Q_poly", None, lambda: _read_only(_Q(p))).copy()


def _Q(p: ParamSet) -> np.ndarray:
    n = p.n
    if n <= 2:
        return np.array([1.0])
    a, den, A = p._a.tolist(), p._pf_den.tolist(), p._A_closed
    acc = [0.0] * n
    for i, product in enumerate(_products_skipping_each(a)):
        w = A * a[i] ** (n - 1) / den[i]
        acc = [s + w * c for s, c in zip(acc, product)]
    acc = np.array(acc)
    top = acc[-1]
    scale = max(1.0, float(np.max(np.abs(acc))))
    if abs(top) / scale > 1e-8:
        raise InternalInconsistency(
            f"top Q coefficient {top:g} failed to cancel for a={p.a}"
        )
    return acc[: n - 1]


def B_from_genfun(p: ParamSet, K: int) -> BSeq:
    """B_{n,0}..B_{n,K} by formal power-series division of the generating
    function Q_n(t) / prod_i (1 - a_i t), in a fresh array the caller may
    write to.

    The division runs on Python floats in a fixed order:
    B_k = q_k - d_1 B_{k-1} - d_2 B_{k-2} - ..., subtracted left to right.
    B_k depends only on q and B_0..B_{k-1}, so the sequence is kept on p as
    a prefix that grows on demand, and every K gets the bits of a division
    run afresh to K.
    """
    K = _index(K, "K")
    q, d, B = p._kept("B_from_genfun", None, lambda: _genfun_operands(p))
    for k in range(len(B), K + 1):
        val = q[k] if k < len(q) else 0.0
        for j in range(1, min(k, len(d) - 1) + 1):
            val -= d[j] * B[k - j]
        B.append(val)
    return BSeq(values=np.array(B[: K + 1]))


def _genfun_operands(p: ParamSet) -> tuple:
    """q, the coefficients d of prod (1 - a_i t), and an empty B prefix."""
    S = p._S
    return Q_poly(p).tolist(), (S * (-1.0) ** np.arange(len(S))).tolist(), []


def residual_an2(a) -> float:
    """Left side of the vanishing identity sum_i a_i^{n-2} / prod(...) = 0."""
    a = np.asarray(a, dtype=float)
    n = len(a)
    if n < 2:
        raise InvalidParameters("identity needs n >= 2")
    p = ParamSet(a=tuple(a))
    return float(np.sum(p._a ** (n - 2) / p._pf_den))


def residual_id(k: int, a) -> float:
    """Left side of the symmetric-rational identity with g(x) = (1+x^2)/(2x):

    sum_i a_i^{n-2} S_k(g applied to the others) / prod_{j != i} (a_j - a_i)(1 - a_i a_j).
    """
    k = _index(k)
    a = np.asarray(a, dtype=float)
    n = len(a)
    if not 1 <= k <= n - 1:
        raise InvalidParameters("k must satisfy 1 <= k <= n - 1")
    if np.any(a == 0.0):
        raise ZeroParameter("g(x) = (1 + x^2)/(2x) is undefined at 0")
    # (a_j - a_i) is exactly -(a_i - a_j), so these are the denominators' bits
    den = (-1.0) ** (n - 1) * ParamSet(a=tuple(a))._pf_den
    g = (1.0 + a * a) / (2.0 * a)
    total = 0.0
    for i in range(n):
        Sk = elementary_all(np.delete(g, i))[k]
        total += a[i] ** (n - 2) * Sk / den[i]
    return float(total)


def residual_id2(m: int, p: ParamSet) -> float:
    """Alternating convolution sum_j (-1)^j S_j B_{n,m-j}; zero analytically.

    B at negative index follows the signed-U convention B_{n,-1} = 0,
    B_{n,-k} = -B_{n,k-2}.
    """
    m = _index(m, "m")
    if m < 1:
        raise InvalidParameters("m must be >= 1")
    n = p.n
    if n < 2:
        raise InvalidParameters("identity needs n >= 2")
    S = p._S
    L = max(m, n - m - 2)
    B = p._B(L)[: L + 1].tolist()
    total = 0.0
    for j in range(n + 1):
        i = m - j
        total += (-1.0) ** j * S[j] * (B[i] if i >= 0 else 0.0 if i == -1 else -B[-i - 2])
    return float(total)
