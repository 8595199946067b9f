"""Chebyshev polynomials of the second kind on [-1, 1].

Evaluation goes through the forward three-term recurrence, which is
numerically benign on the whole interval (the trigonometric form loses
digits near the endpoints and is kept only as a test oracle).  The module
also provides the signed-index convention U_{-1} = 0, U_{-m-2} = -U_m,
finite series over the U basis, and the Gauss quadrature rule for the
semicircle weight (2/pi) sqrt(1 - x^2).  `_u_sums` is the package's one
U-series sum, and `_truncation_order` its one order search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParameters, Unsupported

# _truncation_order refuses orders above this as Unsupported; each order is
# one row of the basis a series is summed over.
SERIES_ORDER_CAP = 100_000

# _u_sums contracts a U series with its whole basis when the basis holds at
# most this many values (8 MB of doubles), and sums a longer one by
# Clenshaw's recurrence.
SERIES_BLOCK = 1 << 20

# The points of one block of that recurrence (three 256 KiB arrays): on a
# 2-vCPU Xeon host with 4 MiB of L2 per core, blocks of 2^13, 2^14, 2^15
# and 2^16 points took 91, 82, 78 and 93 ms at K = 80 on 10^6 points.
_CLENSHAW_BLOCK = 1 << 15


def _truncation_order(r: float, bound, tol: float, what: str) -> int:
    """Smallest K with bound(K) < tol, for a series with ratio 0 <= r < 1:
    0 when r = 0; InvalidParameters unless tol is a real with 0 < tol < inf,
    whatever r;
    Unsupported above SERIES_ORDER_CAP, naming `what`."""
    # written as "not (...)" so that NaN is rejected too
    if not (0.0 < _real_or_nan(tol) < np.inf):
        raise InvalidParameters(f"tol must be positive and finite, got {tol}")
    if r == 0.0:
        return 0
    K = 0
    while bound(K) >= tol:
        K += 1
        if K > SERIES_ORDER_CAP:
            raise Unsupported(f"series order above {SERIES_ORDER_CAP}: {what}, tol={tol}")
    return K


def _check_x(x, c=1.0):
    """x as a float array; InvalidParameters unless numpy takes it as one,
    DomainError unless every point lies in [-c, c].

    min and max propagate NaN, which fails both comparisons, and allocate no
    temporary.
    """
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameters(f"x must be real, got {type(x).__name__}") from None
    if not (x.size == 0 or (x.min() >= -c and x.max() <= c)):
        raise DomainError(f"x outside [-{c}, {c}]")
    return x


def _unwrap(r):
    """An array result as it is; a 0-d one as a Python float."""
    return r if r.shape else float(r)


def _real_or_nan(v) -> float:
    """v as a Python float; NaN, which every range check refuses, for text
    and for a value float() does not take."""
    if isinstance(v, (str, bytes)):
        return np.nan
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return np.nan


def _float(v) -> float:
    """float(v), refusing a bool (which float() takes as 0 or 1) with
    TypeError, as float() refuses other non-reals."""
    if isinstance(v, (bool, np.bool_)):
        raise TypeError
    return float(v)


def _reals(name: str, values) -> tuple:
    """values as a tuple of floats; InvalidParameters, naming the field,
    unless it is an iterable of values float() takes that are not bools."""
    try:
        return tuple(map(_float, values))
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameters(f"{name} must be a sequence of reals, got {values!r}") from None


def _index(k, name: str = "k", signed: bool = False) -> int:
    """k as a Python int (through operator.index); InvalidParameters for a
    non-integer k (a bool too), or a negative one unless `signed`."""
    try:
        if isinstance(k, bool):
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise InvalidParameters(f"{name} must be an integer, got {k!r}") from None
    if k < 0 and not signed:
        raise InvalidParameters(f"{name} must be non-negative, got {k}")
    return k


def u_all(kmax: int, x):
    """Values U_0(x)..U_kmax(x), stacked along the first axis: a new float
    array of shape (kmax + 1,) + x.shape, whose rows are computed in place,
    with no temporary."""
    kmax = _index(kmax, "kmax")
    x = _check_x(x)
    out = np.empty((kmax + 1,) + x.shape)
    if x.size == 1 and x.ndim <= 1:
        # one point: the same multiply-then-subtract steps on Python floats,
        # without the two numpy calls per row
        twox = 2.0 * x.item()
        rows = [1.0, twox][:kmax + 1]
        for _ in range(2, kmax + 1):
            rows.append(twox * rows[-1] - rows[-2])
        out[...] = np.reshape(rows, out.shape)
        return out
    # rows are indexed as out[j, ...], a view even when x is 0-d
    out[0, ...] = 1.0
    if kmax >= 1:
        np.multiply(2.0, x, out=out[1, ...])
    # out[j] = 2x out[j-1] - out[j-2] in place: the same bits, since
    # doubling is exact
    for j in range(2, kmax + 1):
        np.multiply(out[1, ...], out[j - 1, ...], out=out[j, ...])
        np.subtract(out[j, ...], out[j - 2, ...], out=out[j, ...])
    return out


def eval_U(k: int, x):
    """U_k(x) by the forward recurrence U_j = 2x U_{j-1} - U_{j-2}; k >= 0,
    |x| <= 1.  Plain operators, so a 0-d x steps on numpy scalars."""
    k = _index(k)
    x = _check_x(x)
    twox = 2.0 * x
    prev, cur = np.ones_like(x), twox
    for _ in range(k - 1):
        prev, cur = cur, twox * cur - prev
    return _unwrap(cur if k else prev)


def eval_U_signed(k: int, x):
    """U_k(x) extended to negative index: U_{-1} = 0, U_{-m-2} = -U_m."""
    k = _index(k, signed=True)
    if k >= 0:
        return eval_U(k, x)
    x = _check_x(x)
    if k == -1:
        return _unwrap(np.zeros_like(x))
    return -eval_U(-k - 2, x)


def _u_sums(cs, x: np.ndarray) -> list:
    """sum_k c[k] U_k(x) for each non-empty c in cs and float x in [-1, 1],
    each in x's shape.

    The sums whose basis fits in one slice (x.size * c.size <= SERIES_BLOCK
    values) share one u_all basis, as long as the longest of them: each is
    one np.dot(c, basis[:c.size]), the BLAS call of a basis of its own
    length, with the bits of np.tensordot(c, basis, axes=(0, 0)).  A longer
    one is summed here by Clenshaw's recurrence b_k = (2x b_{k+1} - b_{k+2})
    + c_k, b_{K+1} = b_{K+2} = 0, whose b_0 is the sum: _CLENSHAW_BLOCK
    points at a time, in three arrays allocated once per sum (2x and the two
    b's), with the block of the result as the product's buffer."""
    flat = x.reshape(-1)
    sliced = [flat.size * c.size <= SERIES_BLOCK for c in cs]
    if any(sliced):
        basis = u_all(max(c.size for c, one in zip(cs, sliced) if one) - 1, flat)
    return [
        (np.dot(c, basis[:c.size]) if one else _clenshaw(c, flat)).reshape(x.shape)
        for c, one in zip(cs, sliced)
    ]


def _clenshaw(c: np.ndarray, flat: np.ndarray) -> np.ndarray:
    s = np.empty(flat.size)
    n = min(_CLENSHAW_BLOCK, flat.size)
    twox, b1, b2 = np.empty(n), np.empty(n), np.empty(n)
    coeffs = c[::-1].tolist()
    for lo in range(0, flat.size, n):
        sums = s[lo:lo + n]
        m = sums.size
        t, p, q = twox[:m], b1[:m], b2[:m]
        np.multiply(2.0, flat[lo:lo + m], out=t)
        p.fill(0.0)
        q.fill(0.0)
        for ck in coeffs:
            # q holds b_{k+2}; it becomes b_k, and the two swap roles
            np.multiply(t, p, out=sums)
            np.subtract(sums, q, out=q)
            np.add(q, ck, out=q)
            p, q = q, p
        sums[...] = p
    return s


@dataclass(frozen=True)
class USeries:
    """Finite coefficient sequence over the U basis; index j is the U_j weight.
    InvalidParameters unless the coefficients are reals (bools are not)."""

    coeffs: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _reals("coeffs", self.coeffs))

    def __call__(self, x):
        """The series at x (see _u_sums)."""
        x = _check_x(x)
        return _unwrap(_u_sums([np.asarray(self.coeffs)], x)[0] if self.coeffs else np.zeros_like(x))

    @staticmethod
    def from_signed(pairs) -> "USeries":
        """Build from (index, coeff) pairs, folding negative indices through
        U_{-1} = 0 and U_{-m-2} = -U_m."""
        coeffs: list = []
        for j, c in pairs:
            if j == -1:
                continue
            if j < -1:
                j, c = -j - 2, -c
            coeffs += [0.0] * (j + 1 - len(coeffs))
            coeffs[j] += c
        return USeries(coeffs)


def gauss_chebU_rule(N: int) -> tuple:
    """(nodes, weights) of the Gauss rule for integration against
    (2/pi) sqrt(1 - x^2) dx: exact for polynomial degree <= 2N - 1.

    Nodes cos(i pi/(N+1)), weights (2/(N+1)) sin^2(i pi/(N+1)), i = 1..N.
    """
    N = _index(N, "N")
    if N < 1:
        raise InvalidParameters("N must be positive")
    i = np.arange(1, N + 1)
    theta = i * np.pi / (N + 1)
    nodes = np.cos(theta)
    weights = (2.0 / (N + 1)) * np.sin(theta) ** 2
    return nodes, weights
