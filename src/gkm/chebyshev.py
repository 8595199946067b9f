"""Chebyshev polynomials of the second kind on [-1, 1].

Evaluation goes through the forward three-term recurrence, which is
numerically benign on the whole interval (the trigonometric form loses
digits near the endpoints and is kept only as a test oracle).  The module
also provides the signed-index convention U_{-1} = 0, U_{-m-2} = -U_m,
finite series over the U basis, and the Gauss quadrature rule for the
semicircle weight (2/pi) sqrt(1 - x^2).  `_u_sum` is the package's one
sliced U-series sum, and `_truncation_order` its one order search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import _pool
from .errors import DomainError, InvalidParameters, Unsupported

# _truncation_order refuses orders above this as Unsupported; each order is
# one row of the basis a series is summed over.
SERIES_ORDER_CAP = 100_000

# _u_sum sums a U series over slices of the points holding at most this
# many basis values (8 MB of doubles), whatever the number of points.
SERIES_BLOCK = 1 << 20

# _u_sum splits a sum over forked workers only when its basis values past
# the first _SPLIT_TERMS of each point number at least _SPLIT_VALUES.  On
# a 2-vCPU Xeon host with one BLAS thread, the sums took about 2.0 ms per
# SERIES_BLOCK values, and a split took 0.70 of that time plus about 12 ms
# and 9 ms per 10^6 points (forks, reaping, the shared mapping and its
# copy): it saves time from about 19.4 slices plus 15.4 values per point.
_SPLIT_TERMS = 15
_SPLIT_VALUES = 20 * SERIES_BLOCK


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


def u_all(kmax: int, x, out=None):
    """Values U_0(x)..U_kmax(x), stacked along the first axis.

    If given, out is a float array of shape (kmax + 1,) + x.shape (a view
    will do); the rows are computed in it, with no temporary, and it is
    returned.
    """
    kmax = _index(kmax, "kmax")
    x = _check_x(x)
    if out is None:
        out = np.empty((kmax + 1,) + x.shape)
    elif out.shape != (kmax + 1,) + x.shape:
        raise InvalidParameters(f"out has shape {out.shape}, expected {(kmax + 1,) + x.shape}")
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


def _u_sum(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[k] U_k(x) for non-empty c and float x in [-1, 1], in x's shape,
    by one np.dot(c, basis) per slice of at most SERIES_BLOCK basis values.
    Each slice's basis fills a contiguous prefix of one reused slab, so dot
    sees the layout of a fresh basis.  It makes the BLAS gemv call that
    np.tensordot(c, basis, axes=(0, 0)) makes after reshaping c to one row,
    and so gives its bits.

    A sum long enough to gain by it (see _SPLIT_VALUES; at K = 80, from
    317 751 points on) is summed by `_pool.fork_fill`: one forked worker
    per usable CPU takes a contiguous span of whole slices, with a slab of
    its own, and the sums come back through one shared mapping, with the
    bits of the serial loop.  A shorter sum takes that loop here, and so
    does any sum that fork_fill does not split (one usable CPU, a platform
    without fork, a process with other threads, a pool worker)."""
    flat = x.reshape(-1)
    s = np.empty(flat.size)
    step = max(SERIES_BLOCK // c.size, 1)
    starts = range(0, flat.size, step)

    def fill(span, buf):
        sums = np.frombuffer(buf)
        slab = np.empty(c.size * min(step, flat.size))
        for lo in starts[span.start:span.stop]:
            xs = flat[lo:lo + step]
            basis = u_all(c.size - 1, xs, out=slab[:c.size * xs.size].reshape(c.size, xs.size))
            sums[lo:lo + step] = np.dot(c, basis)

    if flat.size * (c.size - _SPLIT_TERMS) >= _SPLIT_VALUES:
        _pool.fork_fill(fill, len(starts), s)
    else:
        fill(range(len(starts)), s)
    return s.reshape(x.shape)


@dataclass(frozen=True)
class USeries:
    """Finite coefficient sequence over the U basis; index j is the U_j weight."""

    coeffs: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __call__(self, x):
        """The series at x (see _u_sum)."""
        x = _check_x(x)
        return _unwrap(_u_sum(np.asarray(self.coeffs), x) if self.coeffs else np.zeros_like(x))

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
