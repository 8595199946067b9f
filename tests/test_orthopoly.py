import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm import P_coeffs, P_recur_check, ParamSet, elementary_all, eval_U, gram
from gkm.chebyshev import USeries, eval_U_signed
from gkm.core import B_prefix, _UU_sum
from gkm.errors import InvalidParameters


def test_P1_one_parameter():
    poly = P_coeffs(1, ParamSet(a=(0.4,)))
    assert poly.series.coeffs == (-0.4, 1.0)  # 2x - a
    assert P_coeffs(1, ParamSet(a=(0.4,)))(0.5) == pytest.approx(0.6)


def test_P2_two_parameters():
    poly = P_coeffs(2, ParamSet(a=(0.2, 0.3)))
    # U_2 - (a_1 + a_2) U_1 + a_1 a_2
    assert np.allclose(poly.series.coeffs, (0.06, -0.5, 1.0), atol=1e-15)


def test_P1_four_parameters():
    p = ParamSet(a=(0.1, -0.2, 0.4, 0.7))
    S = elementary_all(p.a)
    x = 0.23
    expect = 2.0 * x * (1.0 - S[4]) - S[1] + S[3]
    assert P_coeffs(1, p)(x) == pytest.approx(expect, abs=1e-14)


def test_P0_is_one():
    assert P_coeffs(0, ParamSet(a=(0.3, -0.5)))(0.77) == 1.0


def test_P3_direct_expansion():
    p = ParamSet(a=(0.2, 0.3))
    x = 0.1
    expect = eval_U(3, x) - 0.5 * eval_U(2, x) + 0.06 * eval_U(1, x)
    assert P_coeffs(3, p)(x) == pytest.approx(expect, abs=1e-14)


def test_fold_back_matches_signed_evaluation():
    # for m >= 1, the folded series equals the term-by-term signed-U sum
    rng = np.random.default_rng(30)
    for n in range(1, 7):
        p = ParamSet(a=tuple(rng.uniform(-0.8, 0.8, n)))
        S = elementary_all(p.a)
        for m in range(1, 7):
            x = float(rng.uniform(-1.0, 1.0))
            direct = sum(
                (-1.0) ** j * S[j] * eval_U_signed(m - j, x)
                for j in range(min(n, 2 * m + 2) + 1)
            )
            assert P_coeffs(m, p)(x) == pytest.approx(direct, abs=1e-13)


def test_degree_never_collapses():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        p = ParamSet(a=tuple(rng.uniform(-0.9, 0.9, n)))
        for m in range(8):
            xs = np.cos(np.pi * (np.arange(m + 2) + 0.5) / (m + 2))
            fit = np.polynomial.polynomial.polyfit(xs, P_coeffs(m, p)(xs), m)
            assert abs(fit[m]) > 1e-8


def test_recurrence_holds_for_high_degree():
    assert abs(P_recur_check(3, ParamSet(a=(0.5,)), 0.3)) <= 1e-13
    assert abs(P_recur_check(2, ParamSet(a=(0.2, 0.3)), -0.7)) <= 1e-13
    p3 = ParamSet(a=(0.1, -0.6, 0.4))
    assert abs(P_recur_check(5, p3, 0.81)) <= 1e-12
    with pytest.raises(InvalidParameters, match="m >= n >= 1"):
        P_recur_check(2, p3, 0.0)
    with pytest.raises(InvalidParameters, match="m >= n >= 1"):
        P_recur_check(0, ParamSet(), 0.0)


@pytest.mark.parametrize("m", ["3", None, 3.0, True, -1])
def test_recurrence_index_that_is_not_a_non_negative_integer_is_invalid(m):
    # "3" and None raised a bare TypeError from the comparison with n
    with pytest.raises(InvalidParameters, match="m must be"):
        P_recur_check(m, ParamSet(a=(0.3,)), 0.2)


def test_gram_values():
    p = ParamSet(a=(0.2, 0.3))
    assert gram(0, 0, p) == pytest.approx(1.0, abs=1e-12)
    assert abs(gram(2, 1, p)) <= 1e-11
    for m in range(1, 6):
        assert abs(gram(m, 0, p)) <= 1e-11
        assert gram(m, m, p) > 0.0


def test_gram_truncation_defect_low_degree():
    # for n > 2m + 2 the truncated formula is not orthogonal; the defect of
    # the degree-1 member is exactly S_6 B_3 - S_5 B_2 (S_6 = 0 when n = 5)
    rng = np.random.default_rng(32)
    for n in (5, 6):
        a = rng.uniform(-0.85, 0.85, n)
        p = ParamSet(a=tuple(a))
        S = elementary_all(a)
        B = B_prefix(p, 4).values
        expect = -S[5] * B[2] + (S[6] * B[3] if n == 6 else 0.0)
        assert gram(1, 0, p) == pytest.approx(expect, abs=1e-12)
        # higher-degree members stay orthogonal to everything below them
        for m in range(2, 8):
            for k in range(m):
                assert abs(gram(m, k, p)) <= 1e-11


def test_specialization_single_parameter():
    # n = 1 recovers U_m - a U_{m-1}
    a = 0.45
    p = ParamSet(a=(a,))
    for m in range(1, 8):
        x = 0.3 + 0.05 * m
        expect = eval_U(m, x) - a * eval_U(m - 1, x)
        assert P_coeffs(m, p)(x) == pytest.approx(expect, abs=1e-13)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        P_coeffs(-1, ParamSet(a=(0.2,)))



def test_recurrence_residual_takes_the_shape_of_x():
    # an array x used to raise a bare TypeError
    p = ParamSet(a=(0.1, 0.2))
    xs = np.array([0.1, 0.2, -0.7])
    got = P_recur_check(3, p, xs)
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    for x, r in zip(xs.tolist(), got.tolist()):
        one = P_recur_check(3, p, x)
        assert one == pytest.approx(r, abs=1e-15)
        # a scalar x keeps the bits of the former float(...) of numpy scalars
        former = 2.0 * np.asarray(x, dtype=float) * P_coeffs(3, p)(x) - P_coeffs(4, p)(x) - P_coeffs(2, p)(x)
        assert type(one) is float and one == float(former)
    assert P_recur_check(3, p, [[0.1], [0.2]]).shape == (2, 1)


@pytest.mark.parametrize("a", [(0.5,), (0.1, 0.2), (0.6, -0.3, 0.2, -0.8, 0.45)])
def test_recurrence_residual_has_the_bits_of_three_separate_polynomials(a):
    # P_{m-1}, P_m and P_{m+1} share one U basis, with the bits of each
    # evaluated on its own
    p = ParamSet(a=a)
    xs = np.linspace(-1.0, 1.0, 11)
    for m in range(len(a), 14):
        m = max(m, 1)
        for x in (0.37, -1.0, xs):
            want = 2.0 * x * P_coeffs(m, p)(x) - P_coeffs(m + 1, p)(x) - P_coeffs(m - 1, p)(x)
            got = P_recur_check(m, p, x)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _former_gram(m, k, p):
    # orthopoly._gram as it was, each sum of B values through _UU_sum
    cm = P_coeffs(m, p).series.coeffs
    ck = P_coeffs(k, p).series.coeffs
    total = 0.0
    for i, ci in enumerate(cm):
        if ci == 0.0:
            continue
        for j, cj in enumerate(ck):
            if cj == 0.0:
                continue
            total += ci * cj * _UU_sum(p, abs(i - j), i + j)
    return total


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-0.9, 0.9), max_size=6).filter(lambda a: ParamSet(a=tuple(a)).min_gap >= 0.05),
    st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=12),
)
def test_gram_has_the_bits_of_the_former_loop(a, pairs):
    # on a fresh set, where the sums of B values are computed as the loop
    # reaches them, and again on a set that has them all kept
    fresh, former = ParamSet(a=tuple(a)), ParamSet(a=tuple(a))
    want = [_former_gram(m, k, former).hex() for m, k in pairs]
    assert [gram(m, k, fresh).hex() for m, k in pairs] == want
    warm = ParamSet(a=tuple(a))
    for m, k in pairs:
        _former_gram(m, k, warm)
    assert [gram(m, k, warm).hex() for m, k in pairs] == want
