"""What a ParamSet keeps must not change any result.

Every closed form is evaluated on a fresh instance (nothing kept yet), on
the same instance again after all of them have run (everything kept), and
on an equal but distinct instance; the three answers must agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm import (
    A_closed,
    A_special,
    B_coeff,
    B_from_genfun,
    BSeq,
    OrthoPoly,
    P_coeffs,
    ParamSet,
    Q_poly,
    density,
    gram,
    inner_UU,
    moment,
    residual_id2,
)
from gkm.chebyshev import USeries
from gkm.core import MOMENT_ORDER_CAP, B_prefix, normalizer
from gkm.errors import DegenerateParameters, DomainError, GKMError, InvalidParameters, Unsupported

CLOSED_FORMS = {
    "normalizer": normalizer,
    "A_closed": A_closed,
    "A_special": A_special,
    "B_coeff": lambda p: [B_coeff(p, k) for k in range(13)],
    "B_prefix": lambda p: B_prefix(p, 20),
    "moment": lambda p: [moment(p, k) for k in range(13)],
    "inner_UU": lambda p: [inner_UU(p, k, m) for k in range(4) for m in range(4)],
    "Q_poly": Q_poly,
    "B_from_genfun": lambda p: B_from_genfun(p, 20),
    "P_coeffs": lambda p: [P_coeffs(m, p) for m in range(7)],
    "gram": lambda p: [gram(m, k, p) for m in range(7) for k in range(m + 1)],
    "density": lambda p: density(p, np.linspace(-p.c, p.c, 9)),
}


def _bits(result) -> bytes:
    """The exact bytes of a result."""
    if isinstance(result, list):
        return b"|".join(_bits(r) for r in result)
    if isinstance(result, BSeq):
        result = result.values
    if isinstance(result, OrthoPoly):
        result = result.series.coeffs
    return np.asarray(result, dtype=float).tobytes()


def _call(fn, p) -> bytes:
    try:
        return _bits(fn(p))
    except GKMError as exc:  # e.g. moment at c != 1, A_special above n = 6
        return type(exc).__name__.encode()


def _seeded_sets():
    rng = np.random.default_rng(20150713)
    sets = [ParamSet()]
    for n, c in ((1, 1.0), (3, 1.0), (6, 1.0), (8, 1.0), (10, 1.0), (4, 2.5), (9, 0.7)):
        sets.append(ParamSet(a=tuple(rng.uniform(-0.9, 0.9, n)), c=c))
    return sets


@pytest.mark.parametrize("p", _seeded_sets(), ids=lambda p: f"n={p.n},c={p.c}")
def test_cached_operands_leave_every_result_bit_identical(p):
    fresh = {name: _call(fn, ParamSet(a=p.a, c=p.c)) for name, fn in CLOSED_FORMS.items()}
    for fn in CLOSED_FORMS.values():
        _call(fn, p)
    twin = ParamSet(a=p.a, c=p.c)
    for name, fn in CLOSED_FORMS.items():
        assert _call(fn, p) == fresh[name], name
        assert _call(fn, twin) == fresh[name], name
    # the sets actually reach the closed forms, not only their refusals
    assert fresh["B_prefix"] != b"DegenerateParameters"
    assert fresh["density"] != b"DomainError"


def test_B_prefix_is_a_prefix_of_a_longer_one():
    p = ParamSet(a=(0.7, -0.2, 0.45, 0.1))
    long = B_prefix(p, 30).values
    for K in (0, 1, 5, 20):
        assert long[: K + 1].tobytes() == B_prefix(p, K).values.tobytes()


def test_coincident_set_refuses_on_every_call():
    p = ParamSet(a=(0.3, 0.3, -0.2))
    for _ in range(3):
        for fn in (A_closed, Q_poly, lambda q: B_coeff(q, 2), lambda q: B_prefix(q, 4),
                   lambda q: moment(q, 2), lambda q: gram(1, 1, q)):
            with pytest.raises(DegenerateParameters):
                fn(p)
        assert normalizer(p) == pytest.approx(0.91 * 1.06 * 1.06)
        assert density(p, 0.1) > 0.0
    assert "_pf_den" not in vars(p)


def test_cached_arrays_are_read_only():
    p = ParamSet(a=(0.2, -0.5, 0.6))
    B_prefix(p, 3)
    arrays = (p._a, p._S, p._pf_den)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_warm_and_cold_instances_are_the_same_value():
    warm = ParamSet(a=(0.2, -0.5, 0.6), c=1.5)
    cold = ParamSet(a=(0.2, -0.5, 0.6), c=1.5)
    for fn in CLOSED_FORMS.values():
        _call(fn, warm)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert {warm: 1}[cold] == 1
    assert repr(warm) == repr(cold) == "ParamSet(a=(0.2, -0.5, 0.6), c=1.5)"
    assert warm.to_json() == cold.to_json() == '{"c": 1.5, "a": [0.2, -0.5, 0.6]}'


# Reference copies of the closed forms that keep nothing between calls: each
# computes its B values afresh from a, and gram its sums of them.

def _B_uncached(a, ks):
    a = np.asarray(a, dtype=float)
    n, rows = len(a), len(ks)
    if n == 0:
        return (ks == 0).astype(float)
    den = np.ones(n)
    for i in range(n):
        for j in range(n):
            if j != i:
                den[i] *= (a[i] - a[j]) * (1.0 - a[i] * a[j])
    A = float(1.0 / np.sum(a ** (n - 1) / den))
    bases = np.repeat(a[None, :], rows, axis=0).ravel()
    table = np.power(bases, np.repeat(ks + (n - 1.0), n)).reshape(rows, n)
    np.divide(table, den, out=table)
    return A * np.add.reduce(table, axis=1)


def _moment_uncached(a, k):
    total = 0.0
    for j, b in enumerate(_B_uncached(a, np.arange(k, -1, -2)).tolist()):
        total += (k - 2 * j + 1) * math.comb(k + 1, j) * b
    return total / ((k + 1) * 2 ** k)


def _inner_UU_uncached(a, k, m):
    return float(np.add.reduce(_B_uncached(a, abs(m - k) + 2 * np.arange(min(m, k) + 1))))


def _P_uncached(a, m):
    if m == 0:
        return (1.0,)
    S = ParamSet(a=a)._S
    pairs = [(m - j, (-1.0) ** j * S[j]) for j in range(min(len(a), 2 * m + 2) + 1)]
    return USeries.from_signed(pairs).coeffs


def _gram_uncached(a, m, k):
    cm, ck = _P_uncached(a, m), _P_uncached(a, k)
    B = _B_uncached(a, np.arange(len(cm) + len(ck) + 1))
    total = 0.0
    for i, ci in enumerate(cm):
        for j, cj in enumerate(ck):
            if ci != 0.0 and cj != 0.0:
                total += ci * cj * float(np.add.reduce(B[abs(i - j) : i + j + 1 : 2]))
    return total


def _table_reads(p, K):
    """What the table readers give for prefix length K, as exact bytes."""
    m = min(K, 6)
    return [
        _bits(B_prefix(p, K)),
        _bits([moment(p, k) for k in range(K + 1)]),
        _bits([inner_UU(p, k, K - k) for k in range(K + 1)]),
        _bits([P_coeffs(j, p) for j in range(m + 1)]),
        _bits([gram(m, k, p) for k in range(m + 1)]),
    ]


def _uncached_reads(a, K):
    m = min(K, 6)
    return [
        _bits(_B_uncached(a, np.arange(K + 1))),
        _bits([_moment_uncached(a, k) for k in range(K + 1)]),
        _bits([_inner_UU_uncached(a, k, K - k) for k in range(K + 1)]),
        _bits([_P_uncached(a, j) for j in range(m + 1)]),
        _bits([_gram_uncached(a, m, k) for k in range(m + 1)]),
    ]


@pytest.mark.parametrize("p", [q for q in _seeded_sets() if q.c == 1.0], ids=lambda p: f"n={p.n}")
def test_table_readers_have_the_bits_of_the_uncached_expressions(p):
    orders = (5, 100, 3)
    expected = {K: _uncached_reads(p.a, K) for K in orders}
    fresh = ParamSet(a=p.a)
    for K in orders:  # the table grows from 6 values to 101, then serves K = 3
        assert _table_reads(fresh, K) == expected[K], K
    twin = ParamSet(a=p.a)
    for K in orders:
        assert _table_reads(fresh, K) == expected[K], K  # warm
        assert _table_reads(twin, K) == expected[K], K  # equal but distinct
    assert len(fresh._B(0)) >= 101
    assert P_coeffs(4, fresh) is P_coeffs(4, fresh)
    assert P_coeffs(4, twin) is not P_coeffs(4, fresh)


def test_table_at_least_doubles_when_it_grows():
    p = ParamSet(a=(0.6, -0.3, 0.15))
    assert len(p._B(5)) == 6
    assert len(p._B(6)) == 12
    assert len(p._B(100)) == 101
    assert len(p._B(3)) == 101


def test_B_coeff_does_not_grow_the_table():
    p = ParamSet(a=(0.6, -0.3, 0.15))
    B_coeff(p, 10_000)
    assert "_B_table" not in vars(p)
    B_prefix(p, 4)
    assert B_coeff(p, 10_000) == float(_B_uncached(p.a, np.array([10_000]))[0])
    assert len(p._B(0)) == 5


def test_coincident_set_stores_no_table():
    p = ParamSet(a=(0.3, 0.3, -0.2))
    for fn in (lambda q: B_prefix(q, 4), lambda q: moment(q, 3), lambda q: inner_UU(q, 1, 2),
               lambda q: gram(2, 1, q), lambda q: residual_id2(1, q)):
        with pytest.raises(DegenerateParameters):
            fn(p)
    assert "_B_table" not in vars(p)
    assert not [key for key in vars(p) if isinstance(key, tuple) and key[0] != "P"]


def test_B_prefix_results_never_share_a_buffer():
    p = ParamSet(a=(0.6, -0.3, 0.15))
    first, second = B_prefix(p, 8).values, B_prefix(p, 8).values
    shorter = B_prefix(p, 3).values
    for arr in (first, second, shorter):
        assert arr.flags.writeable and arr.flags.owndata
        assert not np.shares_memory(arr, p._B(0))
    assert not np.shares_memory(first, second)
    first[0] = 7.0
    assert B_prefix(p, 8).values[0] == second[0] != 7.0


# --- the scalar closed forms kept on a set

# each kept form, called with a drawn index i in [0, 40]
KEPT_FORMS = {
    "moment": lambda p, i: moment(p, i),
    "gram": lambda p, i: gram(i % 7, i // 7 % 7, p),
    "P_coeffs": lambda p, i: P_coeffs(i % 9, p),
    "inner_UU": lambda p, i: inner_UU(p, i % 6, i // 6 % 6),
    "Q_poly": lambda p, i: Q_poly(p),
    "B_from_genfun": lambda p, i: B_from_genfun(p, i),
    "B_prefix": lambda p, i: B_prefix(p, i),
    "density": lambda p, i: density(p, i / 20.0 - 1.0),
}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-0.9, 0.9), max_size=8),
    st.lists(st.tuples(st.sampled_from(sorted(KEPT_FORMS)), st.integers(0, 40)), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_kept_forms_in_any_order_have_the_fresh_instance_bits(a, calls, rnd):
    fresh = [_call(lambda q: KEPT_FORMS[name](q, i), ParamSet(a=tuple(a))) for name, i in calls]
    warm = ParamSet(a=tuple(a))
    for _ in range(2):
        assert [_call(lambda q: KEPT_FORMS[name](q, i), warm) for name, i in calls] == fresh
    twin = ParamSet(a=tuple(a))
    order = list(range(len(calls)))
    rnd.shuffle(order)
    for j in order:
        name, i = calls[j]
        assert _call(lambda q: KEPT_FORMS[name](q, i), twin) == fresh[j], (name, i)


def test_gram_keeps_each_order_of_a_pair_on_its_own():
    p = ParamSet(a=(0.7, -0.2, 0.45, 0.1, -0.6))
    pairs = [(m, k) for m in range(7) for k in range(7)]
    for m, k in pairs:
        assert gram(m, k, p) == gram(m, k, ParamSet(a=p.a))
    assert {key[1] for key in vars(p) if isinstance(key, tuple) and key[0] == "gram"} == set(pairs)


def test_coincident_set_keeps_nothing_it_refuses():
    p = ParamSet(a=(0.3, 0.3, -0.2))
    refused = [lambda q: moment(q, 3), lambda q: gram(2, 1, q), lambda q: inner_UU(q, 1, 2),
               Q_poly, lambda q: B_from_genfun(q, 5), lambda q: B_prefix(q, 4)]
    for _ in range(3):
        for fn in refused:
            with pytest.raises(DegenerateParameters):
                fn(p)
    # only the polynomials P_m, which need no partial fractions, are kept
    assert {key[0] for key in vars(p) if isinstance(key, tuple)} == {"P"}


def test_returned_arrays_can_be_written_without_changing_later_results():
    p = ParamSet(a=(0.6, -0.3, 0.15, 0.8))
    for fn in (Q_poly, lambda q: B_from_genfun(q, 12).values, lambda q: B_prefix(q, 12).values):
        first = fn(p)
        want = first.copy()
        assert first.flags.writeable
        first[:] = 7.0
        assert fn(p).tobytes() == want.tobytes()
    # a longer genfun prefix extends the kept one, and a shorter one reads it
    assert B_from_genfun(p, 30).values[:13].tobytes() == B_from_genfun(p, 12).values.tobytes()
    assert B_from_genfun(p, 30).values.tobytes() == B_from_genfun(ParamSet(a=p.a), 30).values.tobytes()


@pytest.mark.parametrize("p", _seeded_sets(), ids=lambda p: f"n={p.n},c={p.c}")
def test_scalar_density_is_a_float_with_the_bits_of_the_array_path(p):
    for x in np.linspace(-p.c, p.c, 17).tolist():
        got = density(p, x)
        assert type(got) is float
        assert np.float64(got).tobytes() == density(p, np.array([x]))[0].tobytes()
        assert density(p, np.float64(x)) == got and type(density(p, np.float64(x))) is float
    # a bad point raises what the array path raises
    for bad in (math.nan, np.float64(math.nan), math.inf, -math.inf, math.nextafter(p.c, 2 * p.c), 1e300):
        for x in (bad, -bad):
            with pytest.raises(DomainError) as got:
                density(p, x)
            with pytest.raises(DomainError) as want:
                density(p, np.array([x]))
            assert str(got.value) == str(want.value) == f"x outside [-{p.c}, {p.c}]"


INDEXED = {
    "moment": lambda p, k: moment(p, k),
    "B_coeff": lambda p, k: B_coeff(p, k),
    "B_prefix": lambda p, k: B_prefix(p, k),
    "B_from_genfun": lambda p, k: B_from_genfun(p, k),
    "inner_UU": lambda p, k: inner_UU(p, k, 0),
    "inner_UU_m": lambda p, k: inner_UU(p, 0, k),
    "P_coeffs": lambda p, k: P_coeffs(k, p),
    "gram": lambda p, k: gram(k, 0, p),
    "gram_k": lambda p, k: gram(0, k, p),
}


@pytest.mark.parametrize("name", sorted(INDEXED))
@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), "2", None, -1, np.int64(-3)])
def test_an_index_that_is_not_a_non_negative_integer_is_invalid(name, bad):
    p = ParamSet(a=(0.3, -0.5, 0.7))
    with pytest.raises(InvalidParameters):
        INDEXED[name](p, bad)
    with pytest.raises(ValueError):  # callers that catch ValueError still do
        INDEXED[name](p, bad)
    # nothing was kept under the bad index
    assert not [key for key in vars(p) if isinstance(key, tuple)]


@pytest.mark.parametrize("name", sorted(INDEXED))
@pytest.mark.parametrize("bad", [2.0, np.float64(2.0), 2.5, -2, np.int64(-2)])
def test_a_kept_value_is_reached_by_no_bad_index(name, bad):
    # 2.0 and np.float64(2.0) hash like the kept index 2
    p = ParamSet(a=(0.3, -0.5, 0.7))
    for k in range(4):
        INDEXED[name](p, k)
    with pytest.raises(InvalidParameters):
        INDEXED[name](p, bad)


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_numpy_integer_indices_give_the_int_results(name):
    p = ParamSet(a=(0.3, -0.5, 0.7))
    want = _bits(INDEXED[name](ParamSet(a=p.a), 3))
    assert _bits(INDEXED[name](p, np.int64(3))) == want
    assert _bits(INDEXED[name](p, 3)) == want
    assert type(moment(p, np.int64(3))) is float


def test_moment_above_the_order_cap_is_unsupported():
    p = ParamSet(a=(0.3, -0.5, 0.7))
    # the cap is the last order whose divisor (k + 1) 2^k is a float
    float((MOMENT_ORDER_CAP + 1) * 2**MOMENT_ORDER_CAP)
    with pytest.raises(OverflowError):
        float((MOMENT_ORDER_CAP + 2) * 2 ** (MOMENT_ORDER_CAP + 1))
    assert math.isfinite(moment(p, MOMENT_ORDER_CAP))
    for k in (MOMENT_ORDER_CAP + 1, np.int64(2**63 - 1), 10**30):
        with pytest.raises(Unsupported):
            moment(p, k)
    assert ("moment", MOMENT_ORDER_CAP + 1) not in vars(p)


def test_moment_at_order_1000_is_the_semicircle_catalan_moment():
    # C_500 / 4^500, the 1000th moment of the semicircle on [-1, 1]
    catalan = math.comb(1000, 500) // 501
    assert moment(ParamSet(), 1000) == pytest.approx(catalan / 2**1000, rel=1e-13)
