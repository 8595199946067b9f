import json

import numpy as np
import pytest

from gkm import (
    A2k_closed,
    ConjParamSet,
    chapman_residual,
    conditional_bridge,
    f2M,
    fM_density,
    g3,
    poisson_mehler,
    transition_density,
    w3_eval,
    w_eval,
    wigner_density,
)
from gkm import oracle
from gkm.chebyshev import SERIES_ORDER_CAP
from gkm.conjugate import poisson_mehler_order
from gkm.errors import DomainError, InvalidParameters, Unsupported
from gkm.oracle import integrate_weighted, normalizer_numeric


def test_conj_paramset_validation():
    with pytest.raises(InvalidParameters):
        ConjParamSet(rho=(1.0,), y=(0.0,))
    with pytest.raises(InvalidParameters):
        ConjParamSet(rho=(0.5,), y=(1.2,))
    with pytest.raises(InvalidParameters):
        ConjParamSet(rho=(0.5, 0.2), y=(0.1,))


@pytest.mark.parametrize("rho, y", [((float("nan"),), (0.1,)), ((0.5,), (float("nan"),))])
def test_conj_paramset_rejects_nan(rho, y):
    with pytest.raises(InvalidParameters):
        ConjParamSet(rho=rho, y=y)
    p = ConjParamSet(rho=(0.5,), y=(1.0,))
    assert p.k == 1


@pytest.mark.parametrize("x", [float("nan"), [0.1, float("nan")]])
def test_conjugate_densities_reject_nan_points(x):
    with pytest.raises(DomainError):
        fM_density(ConjParamSet(rho=(0.5,), y=(0.2,)), x)
    with pytest.raises(DomainError):
        f2M(x, 0.3, 0.4)
    with pytest.raises(DomainError):
        f2M(0.3, x, 0.4)


def test_conj_json_roundtrip():
    p = ConjParamSet(rho=(0.5, -0.2), y=(0.1, 0.9))
    assert ConjParamSet.from_json(p.to_json()) == p
    assert json.loads(p.to_json()) == {"rho": [0.5, -0.2], "y": [0.1, 0.9]}


@pytest.mark.parametrize("text", ['{"rho": [0.5]}', '{"y": [0.5]}', '[0.5]', '{"rho": 0.5, "y": [0.1]}',
                                  '{"rho": [0.5], "y": [null]}', '{"rho": [0.5], "y": [0.1], "c": 1.0}',
                                  '{"rho": [0.5], "y": [true]}', '{"rho": [false], "y": [0.1]}'])
def test_conj_from_json_rejects_malformed_objects(text):
    with pytest.raises(InvalidParameters):
        ConjParamSet.from_json(text)


# every function that takes a raw correlation rho, with rho in one position
RAW_RHO_CALLS = {
    "ConjParamSet": lambda r: ConjParamSet(rho=(0.2, r), y=(0.1, 0.3)),
    "poisson_mehler_order": lambda r: poisson_mehler_order(r, 1e-12),
    "poisson_mehler": lambda r: poisson_mehler(0.2, 0.3, r),
    "f2M": lambda r: f2M(0.2, 0.3, r),
    "transition_density": lambda r: transition_density(0.2, 0.3, r),
    "g3_r1": lambda r: g3(0.1, 0.2, 0.3, r, 0.2, 0.3),
    "g3_r2": lambda r: g3(0.1, 0.2, 0.3, 0.2, r, 0.3),
    "g3_r3": lambda r: g3(0.1, 0.2, 0.3, 0.2, 0.3, r),
    "chapman_residual_r1": lambda r: chapman_residual(0.3, -0.5, r, 0.6),
    "chapman_residual_r2": lambda r: chapman_residual(0.3, -0.5, 0.4, r),
    "conditional_bridge_r1": lambda r: conditional_bridge(0.1, 0.2, 0.3, r, 0.5),
    "conditional_bridge_r2": lambda r: conditional_bridge(0.1, 0.2, 0.3, 0.5, r),
}


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, float("nan")])
@pytest.mark.parametrize("call", RAW_RHO_CALLS.values(), ids=RAW_RHO_CALLS.keys())
def test_raw_rho_must_lie_inside_the_unit_interval(call, rho):
    # before, rho = 1.5 gave negative densities, NaN gave 1.0 from
    # poisson_mehler and rho = +-1 divided by zero
    with pytest.raises(InvalidParameters):
        call(rho)


def test_w_eval_values():
    assert w_eval(0.3, -0.8, 0.0) == pytest.approx(1.0)
    assert w_eval(1.0, 1.0, 0.6) == pytest.approx(0.4 ** 4)
    # squared modulus of 1 + rho^2 e^{2 i theta} - 2 x rho e^{i theta}
    x, rho = 0.3, 0.5
    theta = np.arccos(-0.2)
    z = 1.0 + rho ** 2 * np.exp(2j * theta) - 2.0 * x * rho * np.exp(1j * theta)
    assert w_eval(x, -0.2, rho) == pytest.approx(abs(z) ** 2, abs=1e-14)


def test_w_eval_positive_on_square():
    g = np.linspace(-1.0, 1.0, 41)
    for rho in (-0.95, -0.3, 0.3, 0.95):
        assert np.min(w_eval(g[:, None], g[None, :], rho)) > 0.0


def test_w3_special_cases():
    assert w3_eval(0.1, 0.2, 0.3, 0.0, 0.0, 0.0) == pytest.approx(1.0)
    r1, r2 = 0.4, -0.6
    assert w3_eval(0.1, 0.2, 0.3, r1, r2, 0.0) == pytest.approx(1.0 - r1 ** 2 * r2 ** 2)


def test_A2k_values():
    assert A2k_closed(ConjParamSet(rho=(0.5,), y=(0.3,))) == pytest.approx(0.75)
    assert A2k_closed(ConjParamSet(rho=(0.0, 0.0), y=(0.2, -0.7))) == pytest.approx(1.0)
    p3 = ConjParamSet(rho=(0.4, -0.5, 0.3), y=(0.1, 0.6, -0.2))
    assert A2k_closed(p3) == pytest.approx(normalizer_numeric(p3), abs=1e-9)
    with pytest.raises(Unsupported):
        A2k_closed(ConjParamSet(rho=(0.1,) * 4, y=(0.0, 0.1, 0.2, 0.3)))


def test_fM_density_reduces_to_wigner():
    p = ConjParamSet(rho=(0.0,), y=(0.4,))
    for x in (-0.9, 0.0, 0.55):
        assert fM_density(p, x) == pytest.approx(wigner_density(x))


def test_fM_density_one_pair_closed_form():
    rho, y, x = 0.6, -0.3, 0.25
    p = ConjParamSet(rho=(rho,), y=(y,))
    expect = (1.0 - rho ** 2) * (2.0 / np.pi) * np.sqrt(1.0 - x * x) / w_eval(x, y, rho)
    assert fM_density(p, x) == pytest.approx(expect, abs=1e-14)
    assert fM_density(p, x) == pytest.approx(transition_density(x, y, rho), abs=1e-14)


def test_fM_density_matches_real_branch():
    # two pairs: the product of w kernels equals the expanded real quartic
    p = ConjParamSet(rho=(0.5, -0.3), y=(0.2, 0.7))
    a = p.complex_a()
    xs = np.linspace(-0.9, 0.9, 7)
    den = np.ones_like(xs, dtype=complex)
    for ai in a:
        den *= 1.0 + ai * ai - 2.0 * ai * xs
    expect = 2.0 * A2k_closed(p) * np.sqrt(1.0 - xs ** 2) / (np.pi * den.real)
    assert np.max(np.abs(fM_density(p, xs) - expect)) < 1e-12


def test_poisson_mehler_values():
    assert poisson_mehler(0.3, -0.6, 0.0) == pytest.approx(1.0)
    x, y, rho = 0.2, 0.4, 0.5
    closed = (1.0 - rho ** 2) / w_eval(x, y, rho)
    assert poisson_mehler(x, y, rho, 1e-10) == pytest.approx(closed, abs=1e-10)
    # at the origin the even terms are (rho^2)^m (U_{2m}(0)^2 = 1), summing to
    # 1/(1 - rho^2) = 4/3, which the closed kernel confirms: w(0,0|0.5) =
    # (1 - 0.25)^2 = 0.5625 and 0.75/0.5625 = 4/3
    assert poisson_mehler(0.0, 0.0, 0.5) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert (1.0 - 0.25) / w_eval(0.0, 0.0, 0.5) == pytest.approx(4.0 / 3.0)


def test_f2M_basics():
    # uncorrelated case factorizes into two Wigner densities
    for x, y in ((0.0, 0.0), (0.3, -0.8)):
        assert f2M(x, y, 0.0) == pytest.approx(wigner_density(x) * wigner_density(y))
    assert f2M(0.3, -0.5, 0.4) == pytest.approx(f2M(-0.5, 0.3, 0.4))
    # chain rule against the transition kernel
    assert f2M(0.2, 0.6, 0.35) == pytest.approx(
        transition_density(0.2, 0.6, 0.35) * wigner_density(0.6), abs=1e-14
    )


def test_g3_special_cases():
    y = (0.1, -0.4, 0.6)
    assert g3(*y, 0.0, 0.0, 0.0) == pytest.approx(
        wigner_density(y[0]) * wigner_density(y[1]) * wigner_density(y[2])
    )
    r1, r2 = 0.5, -0.3
    assert g3(*y, r1, r2, 0.0) == pytest.approx(
        f2M(y[0], y[1], r1 * r2) * wigner_density(y[2]), abs=1e-13
    )


def test_transition_kernel_row_normalizes():
    rho, y = 0.6, 0.3
    res = integrate_weighted(lambda x: (1.0 - rho ** 2) / w_eval(x, y, rho), 1e-10)
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_chapman_kolmogorov():
    assert abs(chapman_residual(0.3, -0.5, 0.4, 0.6)) <= 1e-8
    assert abs(chapman_residual(0.2, 0.7, 0.0, 0.5)) <= 1e-8
    assert abs(chapman_residual(-0.1, 0.2, 0.5, 0.0)) <= 1e-8


def test_conditional_bridge():
    x, y1, y2, r1, r2 = 0.15, -0.4, 0.6, 0.5, -0.3
    expect = fM_density(ConjParamSet(rho=(r1, r2), y=(y1, y2)), x)
    assert conditional_bridge(x, y1, y2, r1, r2) == pytest.approx(expect, abs=1e-12)
    # degenerate links drop out
    assert conditional_bridge(x, y1, y2, 0.0, r2) == pytest.approx(
        fM_density(ConjParamSet(rho=(r2,), y=(y2,)), x), abs=1e-12
    )


@pytest.mark.parametrize("y1", [-1.0, -0.4, 1.0])
@pytest.mark.parametrize("y2", [-1.0, 0.6, 1.0])
def test_conditional_bridge_on_the_support_boundary(y1, y2):
    # at y1 or y2 = +-1 the kernel ratio is 0/0; its limit is the two-pair
    # density, whose closed form has no such factor
    for x in (-1.0, -0.55, 0.15, 0.9, 1.0):
        for r1, r2 in ((0.5, -0.3), (-0.85, 0.7), (0.0, 0.4)):
            expect = fM_density(ConjParamSet(rho=(r1, r2), y=(y1, y2)), x)
            got = conditional_bridge(x, y1, y2, r1, r2)
            assert np.isfinite(got)
            assert got == pytest.approx(expect, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("bad", [float("nan"), 1.5, -float("inf")])
def test_conjugate_kernels_check_every_point(bad):
    with pytest.raises(DomainError):
        wigner_density(bad)
    with pytest.raises(DomainError):
        transition_density(bad, 0.3, 0.4)
    with pytest.raises(DomainError):
        transition_density(0.3, bad, 0.4)
    for pos in range(3):
        y = [0.1, -0.2, 0.3]
        y[pos] = bad
        with pytest.raises(DomainError):
            g3(*y, 0.5, -0.4, 0.3)
        with pytest.raises(DomainError):
            conditional_bridge(*y, 0.5, -0.4)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_poisson_mehler_tolerance_must_be_positive_and_finite(tol):
    # tol <= 0 used to loop forever once rho**J underflowed to zero
    for rho in (0.5, 0.0):
        with pytest.raises(InvalidParameters):
            poisson_mehler(0.1, 0.2, rho, tol)


def test_poisson_mehler_order_above_the_cap_is_unsupported():
    # J would be 635 630, and the (J + 1)-row bases about 5 MB per point
    with pytest.raises(Unsupported):
        poisson_mehler(0.1, 0.2, 0.9999, 1e-12)
    assert poisson_mehler_order(0.999, 1e-12) <= SERIES_ORDER_CAP


def test_the_numeric_normalizer_of_four_pairs_is_computed_once(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return normalizer_numeric(p)

    monkeypatch.setattr(oracle, "normalizer_numeric", counted)
    p = ConjParamSet(rho=(0.3, -0.4, 0.5, 0.2), y=(0.1, 0.2, -0.3, 0.9))
    values = [fM_density(p, x) for x in (-0.9, -0.3, 0.0, 0.4, 0.8)]
    assert calls == [p]
    assert p._A == normalizer_numeric(p)
    # a fresh, equal set computes it again, with the same bits
    assert fM_density(ConjParamSet(rho=p.rho, y=p.y), 0.4) == values[3]
    assert len(calls) == 2


@pytest.mark.parametrize("kwargs, field", [
    ({"rho": 0.5, "y": 0.2}, "rho"), ({"rho": (0.5,), "y": 0.2}, "y"), ({"rho": ("x",), "y": (0.2,)}, "rho"),
    # bools, which float() takes as 0.0 and 1.0
    ({"rho": (0.1,), "y": (True,)}, "y"), ({"rho": (False,), "y": (0.2,)}, "rho"),
    ({"rho": (0.1, 0.2), "y": (0.3, np.False_)}, "y"),
])
def test_conj_paramset_fields_that_are_not_reals_are_invalid(kwargs, field):
    with pytest.raises(InvalidParameters, match=f"^{field} must be a sequence of reals"):
        ConjParamSet(**kwargs)
