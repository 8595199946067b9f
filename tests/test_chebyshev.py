import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gkm import (
    P_coeffs,
    ParamSet,
    USeries,
    build_cdf,
    eval_U,
    eval_U_signed,
    gauss_chebU_rule,
    moment,
    sample,
)
from gkm.chebyshev import SERIES_BLOCK, SERIES_ORDER_CAP, u_all
from gkm.conjugate import poisson_mehler_order
from gkm.core import B_prefix, series_truncation_order
from gkm.errors import DomainError, InvalidParameters, Unsupported


def test_eval_U_small_values():
    assert eval_U(1, 0.3) == pytest.approx(0.6)
    assert eval_U(2, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert eval_U(3, 0.5) == pytest.approx(-1.0)


def test_eval_U_matches_trig_form():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, 200)
    theta = np.arccos(x)
    for k in range(61):
        trig = np.sin((k + 1) * theta) / np.sin(theta)
        assert np.max(np.abs(eval_U(k, x) - trig)) < 1e-11


def test_eval_U_domain():
    with pytest.raises(DomainError):
        eval_U(3, 1.5)


def test_eval_U_signed_values():
    assert eval_U_signed(-1, 0.7) == 0.0
    assert eval_U_signed(-2, 0.3) == pytest.approx(-1.0)
    assert eval_U_signed(-3, 0.3) == pytest.approx(-0.6)


def test_eval_U_signed_reflection():
    for k in range(-40, 41):
        assert eval_U_signed(k, 0.37) == pytest.approx(-eval_U_signed(-k - 2, 0.37), abs=1e-12)


def test_useries_from_signed_folds():
    # U_{-2} = -U_0 and U_{-1} = 0
    s = USeries.from_signed([(1, 1.0), (-1, 5.0), (-2, 2.0)])
    assert s.coeffs == (-2.0, 1.0)


@pytest.mark.parametrize("coeffs", [("a",), (True, 0.5), (0.5, np.False_), (1j,), (None,), 0.5, (10**400,)],
                         ids=["text", "True", "np.False_", "complex", "None", "scalar", "overflow"])
def test_useries_coefficients_that_are_not_reals_are_invalid(coeffs):
    # ("a",) raised a bare ValueError, and True was read as 1.0
    with pytest.raises(InvalidParameters, match="coeffs must be a sequence of reals"):
        USeries(coeffs)


def _former_from_signed(pairs):
    # the fold through a dict and USeries.from_dict that from_signed once ran
    d: dict = {}
    for j, c in pairs:
        if j == -1:
            continue
        if j < -1:
            j, c = -j - 2, -c
        d[j] = d.get(j, 0.0) + c
    coeffs = [0.0] * (max(d, default=-1) + 1)
    for j, c in d.items():
        coeffs[j] += c
    return tuple(coeffs)


def test_useries_from_signed_has_the_bits_of_the_dict_fold():
    rng = np.random.default_rng(14)
    for _ in range(50):
        idx = rng.integers(-9, 9, int(rng.integers(0, 12)))
        c = rng.standard_normal(idx.size) * rng.choice([0.0, 1.0, 1e-300], idx.size)
        pairs = list(zip(idx.tolist(), c.tolist()))
        got = USeries.from_signed(pairs).coeffs
        want = _former_from_signed(pairs)
        assert np.array_equal(np.signbit(got), np.signbit(want)) and got == want


def _rule(N, g):
    nodes, weights = gauss_chebU_rule(N)
    return float(np.dot(weights, g(nodes)))


def test_gauss_rule_basic():
    assert _rule(1, lambda x: np.ones_like(x)) == pytest.approx(1.0)
    assert _rule(8, lambda x: eval_U(3, x) ** 2) == pytest.approx(1.0, abs=1e-13)
    assert _rule(8, lambda x: eval_U(2, x) * eval_U(4, x)) == pytest.approx(0.0, abs=1e-13)


def test_gauss_rule_monomial_exactness():
    # exact semicircle-weight moments: odd vanish, even are Catalan(k)/4^k
    from math import comb

    N = 10
    for p in range(2 * N):
        got = _rule(N, lambda x: x ** p)
        if p % 2:
            expect = 0.0
        else:
            half = p // 2
            expect = comb(p, half) / ((half + 1) * 4 ** half)
        assert got == pytest.approx(expect, abs=1e-13)


# The allocating recurrences the in-place ones replaced, kept as references:
# the same operations in the same order must give the same bits.

def _u_all_ref(kmax, x):
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 2.0 * x
    for j in range(2, kmax + 1):
        out[j] = 2.0 * x * out[j - 1] - out[j - 2]
    return out


def _three_term_ref(k, x):
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.shape else float(prev)
    cur = 2.0 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.shape else float(cur)


def _points():
    rng = np.random.default_rng(11)
    return [np.float64(0.37), np.asarray(-1.0), rng.uniform(-1.0, 1.0, 257), rng.uniform(-1.0, 1.0, (7, 9))]


def test_u_all_bit_identical_to_allocating_recurrence():
    for x in _points():
        for kmax in (0, 1, 2, 80):
            want = _u_all_ref(kmax, x)
            assert np.array_equal(u_all(kmax, x), want)


@pytest.mark.parametrize("kmax", [0, 1, 2, 16, 80])
def test_u_all_at_one_point_has_the_bits_of_the_array_path(kmax):
    # a single point steps on Python floats; among other points it takes
    # the numpy rows
    rng = np.random.default_rng(13)
    for v in [-1.0, 1.0, 0.0, 0.5, np.nextafter(1.0, 0.0), *rng.uniform(-1.0, 1.0, 20)]:
        want = u_all(kmax, np.array([v, 0.25]))[:, 0]
        assert np.array_equal(want, _u_all_ref(kmax, v))
        assert u_all(kmax, v).tobytes() == want.tobytes()
        assert u_all(kmax, np.array([v])).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2.5, -1, np.float64(3.0), "2"])
def test_orders_that_are_not_non_negative_integers_are_invalid(k):
    with pytest.raises(InvalidParameters, match="must be"):
        eval_U(k, 0.3)
    with pytest.raises(InvalidParameters, match="must be"):
        u_all(k, 0.3)


def test_integer_orders_of_numpy_types_are_accepted():
    x = np.linspace(-1.0, 1.0, 7)
    assert np.array_equal(eval_U(np.int64(5), x), eval_U(5, x))
    assert np.array_equal(u_all(np.int32(5), x), u_all(5, x))


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("call", [
    lambda b: eval_U(b, 0.3),
    lambda b: u_all(b, 0.3),
    lambda b: B_prefix(ParamSet(a=(0.3, -0.2)), b),
    lambda b: moment(ParamSet(a=(0.3,)), b),
    lambda b: P_coeffs(b, ParamSet(a=(0.3,))),
    lambda b: sample(build_cdf(ParamSet(a=(0.3,)), 64), b, 7),
    lambda b: sample(build_cdf(ParamSet(a=(0.3,)), 64), 5, b),
], ids=["eval_U", "u_all", "B_prefix", "moment", "P_coeffs", "sample_count", "sample_seed"])
def test_bool_indices_are_invalid(call, flag):
    # True used to count as 1: eval_U(True, 0.3) gave 0.6
    with pytest.raises(InvalidParameters, match="must be an integer"):
        call(flag)


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_a_bool_scale_is_invalid(flag):
    # True used to count as the scale c = 1.0, as it did as an index
    for a in ((), (0.1,)):
        with pytest.raises(InvalidParameters, match="scale c must be a real, got"):
            ParamSet(a=a, c=flag)


def test_u_all_allocates_its_result_and_less_than_one_row_more():
    # the rows are computed in place in the returned array
    x = np.random.default_rng(13).uniform(-1.0, 1.0, 100_000)
    u_all(80, x)  # warm up
    tracemalloc.start()
    try:
        u = u_all(80, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - u.nbytes < x.nbytes


def test_eval_U_bit_identical_to_allocating_recurrence():
    for x in _points():
        for k in range(201):
            u, u_ref = eval_U(k, x), _three_term_ref(k, x)
            assert type(u) is type(u_ref) and np.array_equal(u, u_ref)


def test_domain_check_sees_past_nan():
    with pytest.raises(DomainError):
        eval_U(2, [np.nan, 1.5])
    with pytest.raises(DomainError):
        u_all(2, np.array([[np.nan], [-1.0000001]]))
    with pytest.raises(DomainError):
        eval_U(2, np.nan)
    assert u_all(3, np.zeros(0)).shape == (4, 0)


@pytest.mark.parametrize("x", [np.nan, [0.2, np.nan], np.array([[np.nan]])])
def test_every_evaluator_rejects_nan(x):
    for fn in (lambda x: eval_U(3, x), lambda x: u_all(3, x), USeries((1.0, 0.5, -0.2))):
        with pytest.raises(DomainError):
            fn(x)


def _former_recur(k, twox):
    # the three-buffer in-place loop eval_U used to run
    prev = np.ones_like(twox)
    if k == 0:
        return prev
    cur, nxt = twox.copy(), np.empty_like(twox)
    for _ in range(k - 1):
        np.multiply(twox, cur, out=nxt)
        np.subtract(nxt, prev, out=nxt)
        prev, cur, nxt = cur, nxt, prev
    return cur


def _former_eval(k, x):
    x = np.asarray(x, dtype=float)
    r = _former_recur(k, np.multiply(2.0, x, out=np.empty_like(x)))
    return r if r.shape else float(r)


def test_plain_operator_recurrences_match_the_in_place_loop():
    for x in [0.3, *_points()]:
        for k in range(201):
            got, want = eval_U(k, x), _former_eval(k, x)
            assert type(got) is type(want) and np.array_equal(got, want)
            if np.ndim(x) == 0:
                assert type(got) is float


@pytest.mark.parametrize("fn, k", [(eval_U, 0), (eval_U, 1)])
def test_recurrence_result_is_not_the_callers_array(fn, k):
    x = np.array([0.25, -0.5, 0.75])
    keep = x.copy()
    r = fn(k, x)
    assert r is not x
    r[...] = 7.0
    assert np.array_equal(x, keep)


def _series_ref(coeffs, x):
    """The series as one contraction over the whole basis."""
    x = np.asarray(x, dtype=float)
    r = np.tensordot(np.asarray(coeffs), u_all(len(coeffs) - 1, x), axes=(0, 0))
    return r if r.shape else float(r)


def test_useries_within_one_slice_is_one_contraction():
    coeffs = np.random.default_rng(21).normal(size=81)
    s = USeries(coeffs)
    rng = np.random.default_rng(22)
    n = SERIES_BLOCK // 81  # the most points one slice holds
    for x in (0.3, -1.0, rng.uniform(-1, 1, 7), rng.uniform(-1, 1, (40, 25)), rng.uniform(-1, 1, n)):
        got, want = s(x), _series_ref(coeffs, x)
        assert type(got) is type(want) and np.array_equal(got, want)


_FIXED = 200


def _series_truth(coeffs, x):
    """The series at each point of the flat float array x by the forward
    recurrence and the sum over Python integers, in fixed point with
    _FIXED fraction bits: every double of [-1, 1] from 2^-140 up is exact
    there, and each step rounds by at most 2^-_FIXED (60 digits).  mpmath
    at 34 digits gives the same floats in about 8 times the time."""
    one = 1 << _FIXED
    twox_all = [int(Fraction(2 * xv) * one) for xv in x.tolist()]
    cs = [int(Fraction(c) * one) for c in np.asarray(coeffs).tolist()]
    out = []
    for twox in twox_all:
        u0, u1, acc = 0, one, 0  # U_{-1}, U_0
        for c in cs:
            acc += c * u1
            u0, u1 = u1, ((twox * u1) >> _FIXED) - u0
        out.append(float(Fraction(acc, one * one)))
    return np.array(out)


def test_useries_over_many_slices():
    # worst error 8.8e-12 by Clenshaw's recurrence, 9.9e-12 by one
    # contraction with the whole basis
    coeffs = np.random.default_rng(23).normal(size=81)
    x = np.random.default_rng(24).uniform(-1, 1, (3 * (SERIES_BLOCK // 81) + 7,))
    got = USeries(coeffs)(x)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, _series_truth(coeffs, x), rtol=0, atol=1e-11)
    # on a 2-d grid, the same values in the same places
    m = x.size - x.size % 2
    np.testing.assert_array_equal(USeries(coeffs)(x[:m].reshape(2, -1)), got[:m].reshape(2, -1))


def test_useries_peak_memory_is_bounded():
    # degree 80 on 10^5 points: the whole basis would be 65 MB
    s = USeries(np.random.default_rng(25).normal(size=81))
    x = np.random.default_rng(26).uniform(-1.0, 1.0, 100_000)
    s(x)  # warm up
    tracemalloc.start()
    try:
        s(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * SERIES_BLOCK + 3 * x.nbytes


@pytest.mark.parametrize("k", [-1.0, -2.5, -3.0, 2.5, "2"])
def test_eval_U_signed_names_the_index_it_was_given(k):
    # the message names the k the caller gave, not the reflected index -k - 2
    with pytest.raises(InvalidParameters, match=f"k must be an integer, got {k!r}$"):
        eval_U_signed(k, 0.3)
    assert eval_U_signed(np.int64(-3), 0.3) == eval_U_signed(-3, 0.3)


@pytest.mark.parametrize("N", [0, -2, 2.5])
def test_gauss_rule_needs_a_positive_integer_size(N):
    with pytest.raises(InvalidParameters):
        gauss_chebU_rule(N)


# --- the one truncation-order search, against copies of the two loops it replaced

def _series_order_loop(amax, tol):
    if not (0.0 < tol < math.inf):
        raise InvalidParameters(f"tol must be positive and finite, got {tol}")
    if not (0.0 <= amax < 1.0):
        raise InvalidParameters(f"amax must lie in [0, 1), got {amax}")
    if amax == 0.0:
        return 0
    K = 0
    while amax ** (K + 1) * (K + 2) / (1.0 - amax) >= tol:
        K += 1
        if K > SERIES_ORDER_CAP:
            raise Unsupported(f"series order above {SERIES_ORDER_CAP}: amax={amax}, tol={tol}")
    return K


def _poisson_mehler_order_loop(rho, tol):
    if not abs(rho) < 1.0:
        raise InvalidParameters(f"|rho| must be < 1, got {rho}")
    if not (0.0 < tol < math.inf):
        raise InvalidParameters(f"tol must be positive and finite, got {tol}")
    r = abs(rho)
    if r == 0.0:
        return 0
    J = 0
    while (J + 1) ** 2 * r ** J / (1.0 - r) >= tol:
        J += 1
        if J > SERIES_ORDER_CAP:
            raise Unsupported(f"series order above {SERIES_ORDER_CAP}: rho={rho}, tol={tol}")
    return J


def _outcome(fn, *args):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (InvalidParameters, Unsupported) as e:
        return type(e), str(e)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
@pytest.mark.parametrize("r", [0.0, -0.0, 0.5, -0.5, 0.3, 0.9, 0.99, 0.999])
def test_truncation_orders_are_those_of_the_former_loops(r, tol):
    # amax = -0.5 is refused by both; rho = -0.5 is taken as |rho|
    assert _outcome(series_truncation_order, r, tol) == _outcome(_series_order_loop, r, tol)
    got = poisson_mehler_order(r, tol)
    assert type(got) is int and got == _poisson_mehler_order_loop(r, tol)
    if r == 0.0:
        assert got == series_truncation_order(r, tol) == 0


@pytest.mark.parametrize("r, tol", [
    (0.9999, 1e-10), (0.99999, 1e-6),  # above the cap
    (1.0, 1e-10), (2.0, 1e-10), (math.nan, 1e-10), (math.inf, 1e-10), (-1.0, 1e-10),
    (0.5, 0.0), (0.5, -1.0), (0.5, math.nan), (0.5, math.inf),
])
def test_truncation_order_refusals_are_those_of_the_former_loops(r, tol):
    for fn, ref in ((series_truncation_order, _series_order_loop), (poisson_mehler_order, _poisson_mehler_order_loop)):
        want = _outcome(ref, r, tol)
        assert isinstance(want, tuple)
        with pytest.raises(want[0]) as e:
            fn(r, tol)
        assert type(e.value) is want[0] and str(e.value) == want[1]


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_a_zero_ratio_still_refuses_a_bad_tolerance(tol):
    # the order search checks tol before its r = 0 shortcut
    for fn in (series_truncation_order, poisson_mehler_order):
        with pytest.raises(InvalidParameters, match="tol must be positive and finite"):
            fn(0.0, tol)
