import json
import math
import tracemalloc

import numpy as np
import pytest

from gkm import (
    A_closed,
    A_special,
    B_coeff,
    B_from_genfun,
    ParamSet,
    Q_poly,
    USeries,
    density,
    density_series,
    eval_U,
    inner_UU,
    moment,
    verify,
)
from gkm.chebyshev import SERIES_BLOCK, SERIES_ORDER_CAP, u_all
from gkm.conjugate import ConjParamSet, f2M, fM_density, poisson_mehler_order
from gkm.core import B_prefix, _products_skipping_each, normalizer, series_truncation_order
from gkm.errors import (
    DegenerateParameters,
    DomainError,
    InvalidParameters,
    Unsupported,
)
from gkm.oracle import integrate_weighted, normalizer_numeric


def test_paramset_validation():
    with pytest.raises(InvalidParameters):
        ParamSet(a=(0.2, 1.0))
    with pytest.raises(InvalidParameters):
        ParamSet(a=(0.2,), c=0.0)
    p = ParamSet(a=(0.4, 0.1))
    assert p.n == 2
    assert p.min_gap == pytest.approx(0.3)
    assert ParamSet().min_gap == math.inf


@pytest.mark.parametrize("kwargs", [{"a": (math.nan,)}, {"a": (0.2, math.inf)}, {"c": math.nan}, {"c": math.inf}])
def test_paramset_rejects_non_finite(kwargs):
    with pytest.raises(InvalidParameters):
        ParamSet(**kwargs)


def test_density_rejects_nan_points():
    p = ParamSet(a=(0.2,))
    for x in (math.nan, [0.0, math.nan]):
        with pytest.raises(DomainError):
            density(p, x)
        with pytest.raises(DomainError):
            density_series(p, x)
    empty = density(p, [])
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_python_ints_beyond_int64_are_reals():
    # numpy holds them in object arrays, which were refused as not real
    p = ParamSet(a=(0.5,))
    for x in (2**70, -(2**70), [0.1, 2**70]):
        with pytest.raises(DomainError):
            density(p, x)
    # a point inside a support wider than 2^63
    wide = ParamSet(a=(0.5,), c=2.0 ** 70)
    assert density(wide, 2**69) == density(wide, 2.0 ** 69) > 0.0
    assert np.array_equal(density(wide, [2**69, -3]), density(wide, [2.0 ** 69, -3.0]))
    with pytest.raises(InvalidParameters, match="float range"):
        density(p, 10**400)


def test_paramset_json_roundtrip():
    p = ParamSet(a=(0.2, -0.3), c=2.0)
    q = ParamSet.from_json(p.to_json())
    assert q == p
    assert json.loads(p.to_json()) == {"c": 2.0, "a": [0.2, -0.3]}
    assert ParamSet.from_json('{"a": [0.2, -0.3], "c": 2}') == p


@pytest.mark.parametrize("text", ['{}', '{"a": 5}', '{"a": [0.2], "c": null}', '[0.2]', '{"a": [null]}',
                                  '{"a": [true]}', '{"a": [0.2, false]}', '{"a": [0.2], "c": "2"}', '"a"',
                                  '{"a": [0.2, 0.3], "C": 2}', '[1', '', None])
def test_from_json_rejects_malformed_objects(text):
    with pytest.raises(InvalidParameters):
        ParamSet.from_json(text)


def test_A_closed_values():
    assert A_closed(ParamSet(a=(0.3,))) == pytest.approx(1.0)
    assert A_closed(ParamSet(a=(0.2, 0.3))) == pytest.approx(0.94)
    assert A_closed(ParamSet(a=(0.1, 0.2, 0.3))) == pytest.approx(0.98 * 0.97 * 0.94)


def test_A_closed_refuses_coincident():
    with pytest.raises(DegenerateParameters):
        A_closed(ParamSet(a=(0.25, 0.25)))


def test_A_special_values():
    assert A_special(ParamSet(a=(0.9,))) == pytest.approx(1.0)
    assert A_special(ParamSet(a=(0.2, 0.3))) == pytest.approx(0.94)
    p4 = ParamSet(a=(0.1, 0.2, 0.3, 0.4))
    assert A_special(p4) == pytest.approx(A_closed(p4), abs=1e-12)
    with pytest.raises(Unsupported):
        A_special(ParamSet(a=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)))


def test_A_special_accepts_coincident():
    # cancellation-free form extends continuously to equal parameters
    assert A_special(ParamSet(a=(0.25, 0.25))) == pytest.approx(0.9375)
    assert normalizer_numeric(ParamSet(a=(0.25, 0.25))) == pytest.approx(0.9375, abs=1e-10)


def test_density_values():
    assert density(ParamSet(), 0.0) == pytest.approx(2.0 / np.pi)
    x = 0.37
    assert density(ParamSet(a=(0.0,)), x) == pytest.approx(density(ParamSet(), x))
    assert density(ParamSet(a=(0.5,)), 0.0) == pytest.approx((2.0 / np.pi) / 1.25)


def test_density_domain_and_scaling():
    with pytest.raises(DomainError):
        density(ParamSet(), 1.2)
    p = ParamSet(a=(0.3, -0.4))
    pc = ParamSet(a=(0.3, -0.4), c=2.5)
    for x in (-2.0, 0.1, 2.4):
        assert density(pc, x) == pytest.approx(density(p, x / 2.5) / 2.5, abs=1e-14)


def test_classical_km_is_the_symmetric_pair_member():
    # v = 1 + 1/a^2, scale c = 2/a maps the (a, -a) member onto the classical
    # Kesten-McKay density v sqrt(4(v-1) - x^2) / (2 pi (v^2 - x^2))
    a = 0.5
    v = 1.0 + 1.0 / a ** 2
    p = ParamSet(a=(a, -a), c=2.0 / a)
    for x in (-3.0, 0.0, 1.7, 3.9):
        classical = v * math.sqrt(4.0 * (v - 1.0) - x * x) / (2.0 * math.pi * (v * v - x * x))
        assert density(p, x) == pytest.approx(classical, abs=1e-14)


def test_B_coeff_values():
    p2 = ParamSet(a=(0.2, 0.3))
    assert B_coeff(p2, 0) == pytest.approx(1.0, abs=1e-12)
    assert B_coeff(p2, 1) == pytest.approx(0.5)
    assert B_coeff(ParamSet(a=(0.4,)), 5) == pytest.approx(0.4 ** 5)


def test_B_prefix_matches_B_coeff():
    p = ParamSet(a=(0.1, -0.4, 0.6))
    pre = B_prefix(p, 15).values
    for k in range(16):
        assert pre[k] == pytest.approx(B_coeff(p, k), abs=1e-14)


def _one_route_sets():
    """Seeded distinct sets, n = 0..10, a quarter of them at c != 1; sets 45
    and 146 are ones where the former per-term and vectorized B forms
    disagreed in the last bit."""
    rng = np.random.default_rng(20151007)
    sets = []
    for i in range(160):
        n = i % 11
        c = 1.0 if i % 4 else float(rng.uniform(0.3, 3.0))
        while True:
            p = ParamSet(a=tuple(rng.uniform(-0.9, 0.9, n)), c=c)
            if p.min_gap >= 0.02:
                sets.append(p)
                break
    return sets


def _former_B_prefix(p, K):
    """The former vectorized closed form of B_prefix, as a fixed reference."""
    ks = np.arange(K + 1)
    return p._A_closed * np.sum(p._a[None, :] ** (p.n + ks[:, None] - 1) / p._pf_den[None, :], axis=1)


def test_B_has_the_same_bits_whichever_indices_are_asked_for():
    for p in _one_route_sets():
        longest = B_prefix(p, 60).values
        for K in (0, 1, 2, 5, 20, 60):
            pre = B_prefix(p, K).values
            assert pre.tobytes() == longest[: K + 1].tobytes()
            for k in range(K + 1):
                assert B_coeff(p, k) == pre[k]


def _moment_per_term(B, k):
    total = 0.0
    for j in range(k // 2 + 1):
        total += (k - 2 * j + 1) * math.comb(k + 1, j) * float(B[k - 2 * j])
    return total / ((k + 1) * 2 ** k)


def _inner_UU_per_term(B, k, m):
    return float(np.add.reduce(B[abs(m - k) : m + k + 1 : 2]))


def test_moment_and_inner_UU_are_per_term_sums_of_B_prefix():
    for p in _one_route_sets():
        B = B_prefix(p, 20).values
        for k in range(9):
            for m in range(9):
                assert inner_UU(p, k, m) == _inner_UU_per_term(B, k, m)
        if p.c == 1.0:
            for k in range(13):
                assert moment(p, k) == _moment_per_term(B, k)


def test_B_prefix_keeps_the_bits_density_series_uses():
    rng = np.random.default_rng(20150713)
    for _ in range(20):
        for n, amax in ((3, 0.7), (1, 0.5), (5, 0.3)):
            a = rng.uniform(-amax, amax, n)
            p = ParamSet(a=tuple(a * (amax / np.max(np.abs(a)))))
            for K in (80, series_truncation_order(amax, 1e-10)):
                assert B_prefix(p, K).values.tobytes() == _former_B_prefix(p, K).tobytes()


def test_coincident_set_refuses_every_B_route():
    from gkm.orthopoly import gram

    p = ParamSet(a=(0.3, 0.3))
    for fn in (lambda: B_coeff(p, 0), lambda: B_prefix(p, 3), lambda: moment(p, 0),
               lambda: inner_UU(p, 0, 0), lambda: gram(1, 0, p)):
        with pytest.raises(DegenerateParameters):
            fn()


def test_density_series_matches_product():
    rng = np.random.default_rng(20)
    x = rng.uniform(-1.0, 1.0, 9)
    for a in ((), (0.5,), (0.2, -0.3)):
        p = ParamSet(a=a)
        assert np.max(np.abs(density_series(p, x, 1e-10) - density(p, x))) < 1e-9
    assert density_series(ParamSet(a=(0.5,)), 0.0, 1e-10) == pytest.approx((2.0 / np.pi) / 1.25, abs=1e-10)


def test_density_series_memory_is_bounded():
    # K = 294 here: the whole (K+1) x N basis would take 470 MB
    p = ParamSet(a=(0.9,))
    x = np.linspace(-1.0, 1.0, 200_001)
    tracemalloc.start()
    try:
        got = density_series(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.max(np.abs(got - density(p, x))) < 1e-9


def test_density_series_slices_keep_values_and_shape():
    # three full slices and a ragged one, against one contraction over all points
    p = ParamSet(a=(0.9,))
    K = series_truncation_order(0.9, 1e-10)
    step = SERIES_BLOCK // (K + 1)
    x = np.random.default_rng(7).uniform(-1.0, 1.0, 3 * step + 102)
    whole = np.tensordot(B_prefix(p, K).values, u_all(K, x), axes=(0, 0))
    got = density_series(p, x)
    assert np.allclose(got, (2.0 / np.pi) * np.sqrt(1.0 - x * x) * whole, rtol=1e-12, atol=0.0)
    assert np.array_equal(density_series(p, x.reshape(3, -1)), got.reshape(3, -1))
    r0 = density_series(p, np.float64(x[5]))
    assert isinstance(r0, float) and r0 == density_series(p, x[5:6])[0]


def test_density_series_is_the_semicircle_times_the_useries_of_B():
    # both sum through one sliced U-series sum, so the bits agree
    p = ParamSet(a=(0.9, -0.3))
    K = series_truncation_order(0.9, 1e-10)
    series = USeries(B_prefix(p, K).values)
    rng = np.random.default_rng(8)
    step = SERIES_BLOCK // (K + 1)
    for x in (np.float64(0.37), np.asarray(-1.0), rng.uniform(-1.0, 1.0, 3 * step + 55), rng.uniform(-1.0, 1.0, (9, 11))):
        want = (2.0 / np.pi) * np.sqrt(1.0 - x * x) * series(x)
        got = density_series(p, x)
        assert np.shape(got) == np.shape(x) and np.array_equal(got, want)


def _density_ref(p, x):
    # the allocating expression density used before its two-buffer form
    x = np.asarray(x, dtype=float)
    c = p.c
    num = 2.0 * normalizer(p) * c ** (p.n - 2) * np.sqrt(np.maximum(c * c - x * x, 0.0))
    den = np.pi * np.ones_like(x)
    for aj in p.a:
        den = den * (c * (1.0 + aj * aj) - 2.0 * aj * x)
    r = num / den
    return r if r.shape else float(r)


def _density_series_ref(p, x):
    # one contraction with a fresh basis for a sum of one slice or less, and
    # Clenshaw's recurrence on all the points at once beyond
    x = np.asarray(x, dtype=float)
    K = series_truncation_order(max((abs(ai) for ai in p.a), default=0.0), 1e-10)
    B = B_prefix(p, K).values
    flat = x.reshape(-1)
    if flat.size * (K + 1) <= SERIES_BLOCK:
        s = np.tensordot(B, u_all(K, flat), axes=(0, 0))
    else:
        b1 = b2 = np.zeros_like(flat)
        for ck in B[::-1]:
            b1, b2 = (2.0 * flat * b1 - b2) + ck, b1
        s = b1
    r = (2.0 / np.pi) * np.sqrt(np.maximum(1.0 - x * x, 0.0)) * s.reshape(x.shape)
    return r if r.shape else float(r)


def test_density_bit_identical_to_allocating_form():
    rng = np.random.default_rng(21)
    for a in ((), (0.6, -0.45, 0.3, 0.1, -0.8)):
        for c in (1.0, 1.7):
            p = ParamSet(a=a, c=c)
            for x in (np.float64(0.3 * c), np.asarray(-c), c * rng.uniform(-1.0, 1.0, (13, 17))):
                got, want = density(p, x), _density_ref(p, x)
                assert type(got) is type(want) and np.array_equal(got, want)


def test_density_series_bit_identical_to_fresh_basis_slices():
    p = ParamSet(a=(0.7, -0.4, 0.2))  # K = 80
    K = series_truncation_order(0.7, 1e-10)
    assert K == 80
    step = SERIES_BLOCK // (K + 1)
    rng = np.random.default_rng(22)
    for size in (1_000_000, 3 * step + 7, step + 1, step):
        x = rng.uniform(-1.0, 1.0, size)
        assert np.array_equal(density_series(p, x), _density_series_ref(p, x))
    x = rng.uniform(-1.0, 1.0, (3, 5))
    assert np.array_equal(density_series(p, x), _density_series_ref(p, x))
    assert density_series(p, 0.25) == _density_series_ref(p, 0.25)


def test_density_series_at_the_longest_order_tracks_the_product_form():
    # K = 3563: Clenshaw's recurrence, with no basis of 3564 rows
    p = ParamSet(a=(0.99,))
    assert series_truncation_order(0.99, 1e-10) == 3563
    x = np.linspace(-1.0, 1.0, 200_001)
    assert np.max(np.abs(density_series(p, x) - density(p, x))) <= 1e-10


def test_moment_values():
    assert moment(ParamSet(), 2) == pytest.approx(0.25, abs=1e-12)
    assert moment(ParamSet(), 4) == pytest.approx(0.125, abs=1e-12)
    assert moment(ParamSet(a=(0.6,)), 1) == pytest.approx(0.3)
    with pytest.raises(InvalidParameters):
        moment(ParamSet(a=(0.3,), c=2.0), 1)


def test_inner_UU_values():
    assert inner_UU(ParamSet(a=(0.2, 0.3)), 0, 0) == pytest.approx(1.0, abs=1e-12)
    assert inner_UU(ParamSet(a=(0.5,)), 0, 3) == pytest.approx(0.125)
    assert inner_UU(ParamSet(), 1, 1) == pytest.approx(1.0)


def test_Q_poly_values():
    assert Q_poly(ParamSet(a=(0.4,))).tolist() == [1.0]
    assert Q_poly(ParamSet(a=(0.2, 0.3))).tolist() == [1.0]
    q3 = Q_poly(ParamSet(a=(0.1, 0.2, 0.3)))
    assert q3[0] == pytest.approx(1.0, abs=1e-12)
    assert q3[1] == pytest.approx(-0.006, abs=1e-12)
    assert len(Q_poly(ParamSet(a=(0.1, -0.2, 0.4, 0.7)))) == 3


def test_B_from_genfun_values():
    got = B_from_genfun(ParamSet(a=(0.4,)), 4).values
    assert np.allclose(got, [1.0, 0.4, 0.16, 0.064, 0.0256], atol=1e-13)
    got2 = B_from_genfun(ParamSet(a=(0.2, 0.3)), 2).values
    assert np.allclose(got2, [1.0, 0.5, 0.19], atol=1e-13)


def _former_poly_from_roots_factors(a, skip):
    """The former numpy-scalar product, as a fixed reference."""
    coeffs = np.zeros(len(a))
    coeffs[0] = 1.0
    pos = 0
    for j, aj in enumerate(a):
        if j == skip:
            continue
        pos += 1
        coeffs[1:pos + 1] = coeffs[1:pos + 1] - aj * coeffs[0:pos]
    return coeffs


def _former_shared_prefix_products(a):
    """The former Python-float products prod_{j != i} (1 - a_j t), which
    applied the factors before i once, to a common prefix, as a fixed
    reference."""
    n = len(a)
    prefix = [1.0] + [0.0] * (n - 1)
    products = []
    for i in range(n):
        coeffs = prefix.copy()
        for j in range(i + 1, n):
            for m in range(j, 0, -1):
                coeffs[m] = coeffs[m] - a[j] * coeffs[m - 1]
        products.append(coeffs)
        if i + 1 < n:
            for m in range(i + 1, 0, -1):
                prefix[m] = prefix[m] - a[i] * prefix[m - 1]
    return products


def test_shared_prefix_products_have_the_bits_of_the_products_one_by_one():
    rng = np.random.default_rng(1015)
    for n in range(11):
        for i in range(30):
            a = rng.uniform(-0.99, 0.99, n)
            if n and i % 3 == 0:
                a[rng.integers(n)] = (0.0, -0.0)[i % 2]  # a zero factor keeps its sign
            a = a.tolist()
            got = _products_skipping_each(a)
            want = _former_shared_prefix_products(a)
            assert len(got) == n
            assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


def _former_Q_poly(p):
    n = p.n
    if n <= 2:
        return np.array([1.0])
    a, den, A = p._a, p._pf_den, p._A_closed
    acc = np.zeros(n)
    for i in range(n):
        acc += (A * a[i] ** (n - 1) / den[i]) * _former_poly_from_roots_factors(a, skip=i)
    return acc[: n - 1]


def _former_B_from_genfun(p, K):
    q = _former_Q_poly(p)
    S = p._S
    d = S * (-1.0) ** np.arange(len(S))
    B = np.zeros(K + 1)
    for k in range(K + 1):
        val = q[k] if k < len(q) else 0.0
        for j in range(1, min(k, len(d) - 1) + 1):
            val -= d[j] * B[k - j]
        B[k] = val
    return B


def _genfun_sets():
    """Seeded distinct sets, n = 0..16, max|a_j| up to 0.99; every third one
    symmetric (a = ±b, plus 0 for odd n)."""
    rng = np.random.default_rng(20151019)
    sets = []
    for i in range(17 * 12):
        n = i % 17
        amax = float(rng.uniform(0.1, 0.99))
        while True:
            if i % 3 == 0:
                b = rng.uniform(-1.0, 1.0, n // 2)
                a = np.concatenate((b, -b, np.zeros(n % 2)))
            else:
                a = rng.uniform(-1.0, 1.0, n)
            if np.any(a):
                a = a * (amax / np.max(np.abs(a)))
            p = ParamSet(a=tuple(a))
            if p.min_gap >= 1e-3:
                sets.append(p)
                break
    return sets


def test_genfun_route_has_the_bits_of_the_former_numpy_scalar_code():
    for p in _genfun_sets():
        q = Q_poly(p)
        want = _former_Q_poly(p)
        assert q.dtype == want.dtype and q.tobytes() == want.tobytes()
        for K in (0, 1, 20, 40):
            assert B_from_genfun(p, K).values.tobytes() == _former_B_from_genfun(p, K).tobytes()


def test_genfun_route_keeps_its_refusal_and_its_short_numerator():
    with pytest.raises(DegenerateParameters):
        Q_poly(ParamSet(a=(0.3, 0.3, -0.2)))
    with pytest.raises(DegenerateParameters):
        B_from_genfun(ParamSet(a=(0.5, -0.1, 0.5)), 20)
    for a in ((), (0.4,), (0.2, 0.3), (0.3, 0.3)):
        q = Q_poly(ParamSet(a=a))
        assert q.dtype == np.float64 and q.tolist() == [1.0]


def test_residual_an2():
    assert verify._residual_an2(ParamSet(a=(0.2, 0.5))) == pytest.approx(0.0, abs=1e-14)
    assert abs(verify._residual_an2(ParamSet(a=(0.1, 0.2, 0.3)))) <= 1e-12
    assert abs(verify._residual_an2(ParamSet(a=(-0.5, 0.1, 0.4, 0.8)))) <= 1e-11


def test_residual_id():
    # vanishes for k <= n - 2; k = n - 1 hits the exact nonzero constant
    assert abs(verify._residual_id(1, ParamSet(a=(0.3, 0.6, 0.9)))) <= 1e-11
    assert abs(verify._residual_id(2, ParamSet(a=(0.1, -0.4, 0.5, 0.7)))) <= 1e-10
    top = verify._residual_id(1, ParamSet(a=(0.2, 0.5)))
    assert top == pytest.approx(-1.0 / (2.0 * 0.2 * 0.5), rel=1e-12)


def test_residual_id2():
    from gkm import elementary_all

    p = ParamSet(a=(0.2, 0.3))
    # m=2 is the classical e-h identity Delta_2 - S_1 Delta_1 + S_2 Delta_0
    S = elementary_all(p.a)
    h = verify._delta_all(2, p)
    direct = h[2] - S[1] * h[1] + S[2]
    assert direct == pytest.approx(0.0, abs=1e-15)
    assert abs(verify._residual_id2(2, p)) <= 1e-13
    assert abs(verify._residual_id2(1, ParamSet(a=(0.1, 0.2, 0.3)))) <= 1e-12
    assert abs(verify._residual_id2(5, ParamSet(a=(0.1, -0.2, 0.4, 0.7)))) <= 1e-11


def test_normalizer_fallback_paths():
    # n <= 6 goes through the special form even when coincident
    assert normalizer(ParamSet(a=(0.25, 0.25))) == pytest.approx(0.9375)
    # n = 7 distinct uses the partial-fraction form
    p7 = ParamSet(a=(-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6))
    assert normalizer(p7) == pytest.approx(normalizer_numeric(p7), abs=1e-9)


def _residual_id_double_loop(k, a):
    # the denominators rebuilt term by term, as _residual_id once did
    from gkm import elementary_all

    a = np.asarray(a, dtype=float)
    n = len(a)
    g = (1.0 + a * a) / (2.0 * a)
    total = 0.0
    for i in range(n):
        Sk = elementary_all(np.delete(g, i))[k]
        den = 1.0
        for j in range(n):
            if j != i:
                den *= (a[j] - a[i]) * (1.0 - a[i] * a[j])
        total += a[i] ** (n - 2) * Sk / den
    return float(total)


def test_residual_id_has_the_bits_of_the_double_loop():
    rng = np.random.default_rng(77)
    for n in range(2, 9):
        for _ in range(5):
            while True:
                a = tuple(rng.uniform(-0.9, 0.9, n))
                if ParamSet(a=a).min_gap >= 0.05 and min(map(abs, a)) > 0.05:
                    break
            for k in range(1, n):
                got = verify._residual_id(k, ParamSet(a=a))
                assert np.array_equal(got, _residual_id_double_loop(k, a)), (a, k)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_series_tolerance_must_be_positive_and_finite(tol):
    # nan and inf used to give K = 0, and tol <= 0 spun to the iteration cap
    with pytest.raises(InvalidParameters):
        density_series(ParamSet(a=(0.7, -0.4, 0.2)), 0.3, tol)
    with pytest.raises(InvalidParameters):
        density_series(ParamSet(), 0.3, tol)


@pytest.mark.parametrize("fn", [B_prefix, B_from_genfun])
def test_negative_prefix_length_raises(fn):
    p = ParamSet(a=(0.3, 0.5))
    with pytest.raises(ValueError, match="non-negative"):
        fn(p, -1)
    assert fn(p, 0).values.tolist() == [1.0]


def test_series_order_above_the_cap_is_unsupported():
    # K would pass SERIES_ORDER_CAP; this used to raise InternalInconsistency
    with pytest.raises(Unsupported):
        density_series(ParamSet(a=(0.9999,)), 0.3)
    assert series_truncation_order(0.999, 1e-10) <= SERIES_ORDER_CAP


@pytest.mark.parametrize("amax", [1.0, 2.0, math.inf, math.nan, -0.5])
def test_series_truncation_order_needs_amax_in_zero_to_one(amax):
    # the tail bound needs 0 <= amax < 1, and NaN fails that test too
    with pytest.raises(InvalidParameters, match="amax"):
        series_truncation_order(amax, 1e-10)


@pytest.mark.parametrize("call, message", [
    (lambda: integrate_weighted(lambda x: x, None), "tol must be"),
    (lambda: density_series(ParamSet(a=(0.3,)), 0.3, None), "tol must be"),
    (lambda: f2M(0.1, 0.2, None), "rho"),
    (lambda: poisson_mehler_order("x", 1e-3), "rho"),
    (lambda: poisson_mehler_order("0.5", 1e-3), "rho"),
    (lambda: density(ParamSet(a=(0.3,)), "x"), "x must be real"),
    (lambda: fM_density(ConjParamSet(rho=(0.3,), y=(0.2,)), "x"), "x must be real"),
    # points numpy converts to floats, which gave values before
    (lambda: density(ParamSet(a=(0.5,)), "0.3"), "x must be real"),
    (lambda: density(ParamSet(a=(0.5,)), b"0.3"), "x must be real"),
    (lambda: density(ParamSet(a=(0.5,)), True), "x must be real"),
    (lambda: density(ParamSet(a=(0.5,)), np.array([True, False])), "x must be real"),
    (lambda: density(ParamSet(a=(0.5,)), [True, 0.2]), "x must be real"),
    (lambda: density(ParamSet(a=(0.5,)), 0.3 + 0j), "x must be real"),
    (lambda: density(ParamSet(a=(0.5,)), np.array([0.3], dtype=object)), "x must be real"),
    (lambda: eval_U(2, "0.5"), "x must be real"),
    (lambda: fM_density(ConjParamSet(rho=(0.3,), y=(0.2,)), "0.1"), "x must be real"),
    (lambda: series_truncation_order("x", 1e-3), "amax must lie"),
    (lambda: series_truncation_order(None, 1e-3), "amax must lie"),
    (lambda: series_truncation_order(0.5j, 1e-3), "amax must lie"),
    # parameter fields float() parses, which gave parameter sets before
    (lambda: ParamSet(a=("0.5",)), "^a must be a sequence of reals"),
    (lambda: ParamSet(a=(0.2, b"0.5")), "^a must be a sequence of reals"),
    (lambda: ParamSet(c="2"), "^scale c must be a real"),
    (lambda: ParamSet(c=b"2"), "^scale c must be a real"),
    (lambda: ConjParamSet(rho=("0.3",), y=(0.1,)), "^rho must be a sequence of reals"),
    (lambda: ConjParamSet(rho=(0.3,), y=("0.1",)), "^y must be a sequence of reals"),
    (lambda: USeries(("1.5",)), "^coeffs must be a sequence of reals"),
    # tolerances float() reads as 1.0, which were taken before
    (lambda: integrate_weighted(lambda x: x, True), "tol must be"),
    (lambda: density_series(ParamSet(a=(0.3,)), 0.3, True), "tol must be"),
], ids=["integrate_weighted", "density_series", "f2M", "poisson_mehler_order", "text_rho", "density",
        "fM_density", "density_text_number", "density_bytes", "density_bool", "density_bool_array",
        "density_list_with_bool", "density_complex", "density_object_array", "eval_U_text", "fM_density_text_number",
        "series_order_text", "series_order_None", "series_order_complex", "paramset_a_text", "paramset_a_bytes",
        "paramset_c_text", "paramset_c_bytes", "conj_rho_text", "conj_y_text", "useries_text",
        "integrate_weighted_bool", "density_series_bool"])
def test_non_numeric_inputs_are_invalid(call, message):
    # a bare TypeError, ValueError or IndexError before, from the comparison,
    # abs, len or numpy's conversion inside the shared checks, or a value
    # read from a point or a field float() converts
    with pytest.raises(InvalidParameters, match=message):
        call()


@pytest.mark.parametrize("kwargs, field", [
    ({"a": 0.5}, "a"), ({"a": ("x",)}, "a"), ({"a": (0.1, None)}, "a"), ({"c": None}, "c"), ({"c": "wide"}, "c"),
])
def test_paramset_fields_that_are_not_reals_are_invalid(kwargs, field):
    # a bare TypeError or ValueError before
    with pytest.raises(InvalidParameters, match=f"^(scale )?{field} must be"):
        ParamSet(**kwargs)


@pytest.mark.parametrize("a", [(False, 0.2), (0.1, True), (np.True_,), np.array([False, True])],
                         ids=["False", "True", "np.True_", "bool_array"])
def test_bools_in_the_parameter_vector_are_invalid(a):
    # float(False) is 0.0: ParamSet(a=(False, 0.2)) had a = (0.0, 0.2), while
    # c and every index argument refused bools
    with pytest.raises(InvalidParameters, match="^a must be a sequence of reals"):
        ParamSet(a=a)


# the names `import gkm` exports; a name leaves or joins this set only with
# a note in the README's API changes
EXPORTS = {
    "A2k_closed", "A_closed", "A_special", "BSeq", "B_coeff", "B_from_genfun", "CdfTable", "ConjParamSet",
    "IntegrationResult", "OrthoPoly", "P_coeffs", "P_recur_check", "ParamSet", "Q_poly", "USeries", "build_cdf",
    "chapman_residual", "conditional_bridge", "density", "density_series", "elementary_all", "eval_U", "f2M",
    "fM_density", "g3", "gauss_chebU_rule", "gram", "inner_UU", "integrate_2d", "integrate_3d",
    "integrate_weighted", "ks_statistic", "moment", "normalizer_numeric", "poisson_mehler", "sample",
    "transition_density", "wigner_density",
}


def test_the_exported_names_are_pinned():
    import inspect
    import types

    import gkm
    from gkm import errors, symfun

    exported = {name for name, v in vars(gkm).items()
                if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == EXPORTS and len(EXPORTS) == 38
    functions = [name for name, v in vars(symfun).items() if inspect.isfunction(v) and not name.startswith("_")]
    assert functions == ["elementary_all"]
    assert not hasattr(errors, "ZeroParameter")
