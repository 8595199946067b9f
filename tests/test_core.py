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
    density,
    density_classical_km,
    density_series,
    inner_UU,
    moment,
    residual_an2,
    residual_id,
    residual_id2,
)
from gkm.chebyshev import u_all
from gkm.core import SERIES_BLOCK, B_prefix, normalizer, series_truncation_order
from gkm.errors import (
    DegenerateParameters,
    DomainError,
    InvalidParameters,
    Unsupported,
    ZeroParameter,
)
from gkm.oracle import normalizer_numeric


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


def test_paramset_json_roundtrip():
    p = ParamSet(a=(0.2, -0.3), c=2.0)
    q = ParamSet.from_json(p.to_json())
    assert q == p
    assert json.loads(p.to_json()) == {"c": 2.0, "a": [0.2, -0.3]}


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


def test_density_classical_km():
    assert density_classical_km(2.0, 0.0) == pytest.approx(1.0 / (2.0 * np.pi))
    # v = 2 is the arcsine law, which diverges at the support endpoint; the
    # density vanishes there only for v > 2
    assert density_classical_km(3.0, 2.0 * math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert density_classical_km(3.0, 0.0) == pytest.approx(3.0 * math.sqrt(8.0) / (2.0 * np.pi * 9.0))
    with pytest.raises(DomainError):
        density_classical_km(2.0, 2.1)


def test_classical_km_is_the_symmetric_pair_member():
    # v = 1 + 1/a^2, scale c = 2/a maps the (a, -a) member onto Eq-free form
    a = 0.5
    v = 1.0 + 1.0 / a ** 2
    p = ParamSet(a=(a, -a), c=2.0 / a)
    for x in (-3.0, 0.0, 1.7, 3.9):
        assert density(p, x) == pytest.approx(density_classical_km(v, x), abs=1e-14)


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


def test_residual_an2():
    assert residual_an2((0.2, 0.5)) == pytest.approx(0.0, abs=1e-14)
    assert abs(residual_an2((0.1, 0.2, 0.3))) <= 1e-12
    assert abs(residual_an2((-0.5, 0.1, 0.4, 0.8))) <= 1e-11


def test_residual_id():
    # vanishes for k <= n - 2; k = n - 1 hits the exact nonzero constant
    assert abs(residual_id(1, (0.3, 0.6, 0.9))) <= 1e-11
    assert abs(residual_id(2, (0.1, -0.4, 0.5, 0.7))) <= 1e-10
    top = residual_id(1, (0.2, 0.5))
    assert top == pytest.approx(-1.0 / (2.0 * 0.2 * 0.5), rel=1e-12)
    with pytest.raises(ZeroParameter):
        residual_id(1, (0.0, 0.5, 0.7))


def test_residual_id2():
    from gkm import delta, elementary_all

    p = ParamSet(a=(0.2, 0.3))
    # m=2 is the classical e-h identity Delta_2 - S_1 Delta_1 + S_2 Delta_0
    S = elementary_all(p.a)
    direct = delta(2, p.a) - S[1] * delta(1, p.a) + S[2]
    assert direct == pytest.approx(0.0, abs=1e-15)
    assert abs(residual_id2(2, p)) <= 1e-13
    assert abs(residual_id2(1, ParamSet(a=(0.1, 0.2, 0.3)))) <= 1e-12
    assert abs(residual_id2(5, ParamSet(a=(0.1, -0.2, 0.4, 0.7)))) <= 1e-11


def test_normalizer_fallback_paths():
    # n <= 6 goes through the special form even when coincident
    assert normalizer(ParamSet(a=(0.25, 0.25))) == pytest.approx(0.9375)
    # n = 7 distinct uses the partial-fraction form
    p7 = ParamSet(a=(-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6))
    assert normalizer(p7) == pytest.approx(normalizer_numeric(p7), abs=1e-9)
