import tracemalloc

import numpy as np
import pytest

from gkm import (
    USeries,
    eval_T,
    eval_U,
    eval_U_signed,
    gauss_chebU_rule,
    power_to_U,
    product_linearize,
)
from gkm.chebyshev import u_all
from gkm.errors import DomainError, Unsupported


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


def test_eval_T_values():
    assert eval_T(0, 0.9) == 1.0
    assert eval_T(1, 0.4) == pytest.approx(0.4)
    assert eval_T(2, 0.5) == pytest.approx(-0.5)


def test_power_to_U_small():
    assert power_to_U(0).coeffs == (1.0,)
    assert power_to_U(2).coeffs == (0.25, 0.0, 0.25)
    assert power_to_U(3).coeffs == (0.0, 0.25, 0.0, 0.125)


def test_power_to_U_evaluates_to_monomial():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, 50)
    for k in range(21):
        assert np.max(np.abs(power_to_U(k)(x) - x ** k)) < 1e-12


def test_power_to_U_degree_cap():
    with pytest.raises(Unsupported):
        power_to_U(65)


def test_product_linearize_small():
    assert product_linearize(1, 1).coeffs == (1.0, 0.0, 1.0)
    assert product_linearize(2, 1).coeffs == (0.0, 1.0, 0.0, 1.0)
    assert product_linearize(5, 0).coeffs == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_product_linearize_evaluates_to_product():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, 50)
    for k in range(21):
        for m in range(21):
            lhs = product_linearize(k, m)(x)
            rhs = eval_U(k, x) * eval_U(m, x)
            assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_useries_degree_ignores_trailing_zeros():
    s = USeries((1.0, 2.0, 0.0, 0.0))
    assert s.degree == 1
    assert USeries(()).degree == -1


def test_useries_from_signed_folds():
    # U_{-2} = -U_0 and U_{-1} = 0
    s = USeries.from_signed([(1, 1.0), (-1, 5.0), (-2, 2.0)])
    assert s.coeffs == (-2.0, 1.0)


def test_gauss_rule_basic():
    assert gauss_chebU_rule(1).apply(lambda x: np.ones_like(x)) == pytest.approx(1.0)
    r8 = gauss_chebU_rule(8)
    assert r8.apply(lambda x: eval_U(3, x) ** 2) == pytest.approx(1.0, abs=1e-13)
    assert r8.apply(lambda x: eval_U(2, x) * eval_U(4, x)) == pytest.approx(0.0, abs=1e-13)


def test_gauss_rule_monomial_exactness():
    # exact semicircle-weight moments: odd vanish, even are Catalan(k)/4^k
    from math import comb

    N = 10
    rule = gauss_chebU_rule(N)
    for p in range(2 * N):
        got = rule.apply(lambda x: x ** p)
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


def _three_term_ref(k, x, first):
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.shape else float(prev)
    cur = first(x)
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
            buf = np.full((kmax + 1,) + np.shape(x), np.nan)
            assert u_all(kmax, x, out=buf) is buf
            assert np.array_equal(buf, want)


def test_u_all_into_column_sliced_slab_view():
    x = np.random.default_rng(12).uniform(-1.0, 1.0, 300)
    slab = np.full((81, 512), np.nan)
    view = slab[:, :300]
    u_all(80, x, out=view)
    assert np.array_equal(view, _u_all_ref(80, x))
    assert np.isnan(slab[:, 300:]).all()


def test_u_all_out_shape_is_checked():
    with pytest.raises(ValueError):
        u_all(5, np.zeros(4), out=np.empty((5, 4)))
    with pytest.raises(ValueError):
        u_all(5, 0.1, out=np.empty((6, 1)))


def test_u_all_with_out_allocates_less_than_one_row():
    x = np.random.default_rng(13).uniform(-1.0, 1.0, 100_000)
    buf = np.empty((81, x.size))
    u_all(80, x, out=buf)  # warm up
    tracemalloc.start()
    try:
        u_all(80, x, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


def test_eval_U_and_eval_T_bit_identical_to_allocating_recurrence():
    def twice(x):
        return 2.0 * x

    def copy(x):
        return x.copy()

    for x in _points():
        for k in range(201):
            u, t = eval_U(k, x), eval_T(k, x)
            u_ref, t_ref = _three_term_ref(k, x, twice), _three_term_ref(k, x, copy)
            assert type(u) is type(u_ref) and np.array_equal(u, u_ref)
            assert type(t) is type(t_ref) and np.array_equal(t, t_ref)


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
    for fn in (lambda x: eval_T(3, x), lambda x: u_all(3, x), USeries((1.0, 0.5, -0.2))):
        with pytest.raises(DomainError):
            fn(x)


def _former_recur(k, twox, u1):
    # the three-buffer in-place loop eval_U and eval_T used to run
    prev = np.ones_like(twox)
    if k == 0:
        return prev
    cur, nxt = u1, np.empty_like(twox)
    for _ in range(k - 1):
        np.multiply(twox, cur, out=nxt)
        np.subtract(nxt, prev, out=nxt)
        prev, cur, nxt = cur, nxt, prev
    return cur


def _former_eval(k, x, kind):
    x = np.asarray(x, dtype=float)
    twox = np.multiply(2.0, x, out=np.empty_like(x))
    r = _former_recur(k, twox, twox.copy() if kind == "U" else x.copy())
    return r if r.shape else float(r)


def test_plain_operator_recurrences_match_the_in_place_loop():
    for x in [0.3, *_points()]:
        for k in range(201):
            for kind, fn in (("U", eval_U), ("T", eval_T)):
                got, want = fn(k, x), _former_eval(k, x, kind)
                assert type(got) is type(want) and np.array_equal(got, want)
                if np.ndim(x) == 0:
                    assert type(got) is float


@pytest.mark.parametrize("fn, k", [(eval_T, 1), (eval_U, 0), (eval_T, 0), (eval_U, 1)])
def test_recurrence_result_is_not_the_callers_array(fn, k):
    x = np.array([0.25, -0.5, 0.75])
    keep = x.copy()
    r = fn(k, x)
    assert r is not x
    r[...] = 7.0
    assert np.array_equal(x, keep)
