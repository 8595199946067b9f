import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkm

from gkm import ConjParamSet, ParamSet, conjugate, density, eval_U, gauss_chebU_rule, oracle
from gkm.conjugate import f2M, g3
from gkm.errors import InvalidParameters, NonConvergence
from gkm.oracle import (
    integrate_2d,
    integrate_3d,
    integrate_plain,
    integrate_weighted,
    normalizer_numeric,
)


def test_weighted_basics():
    assert integrate_weighted(lambda x: np.ones_like(x), 1e-12).value == pytest.approx(1.0, abs=1e-12)
    assert integrate_weighted(lambda x: eval_U(3, x) ** 2, 1e-12).value == pytest.approx(1.0, abs=1e-11)
    assert integrate_weighted(lambda x: x ** 2, 1e-12).value == pytest.approx(0.25, abs=1e-12)


def test_weighted_agrees_with_gauss_rule():
    nodes, weights = gauss_chebU_rule(20)
    rng = np.random.default_rng(40)
    coeffs = rng.uniform(-1.0, 1.0, 12)

    def g(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    assert integrate_weighted(g, 1e-12).value == pytest.approx(float(np.dot(weights, g(nodes))), abs=1e-12)


def test_plain_integration():
    # integrand carrying its own sqrt factor: plain integral of the semicircle
    assert integrate_plain(lambda x: (2.0 / np.pi) * np.sqrt(1.0 - x ** 2), 1e-12).value == pytest.approx(
        1.0, abs=1e-12
    )


def test_error_estimates_are_honest():
    rng = np.random.default_rng(41)
    ok = 0
    total = 20
    for _ in range(total):
        k = int(rng.integers(0, 6))
        res = integrate_weighted(lambda x, k=k: x ** (2 * k), 1e-10)
        from math import comb

        expect = comb(2 * k, k) / ((k + 1) * 4 ** k)
        if abs(res.value - expect) <= 5.0 * max(res.abs_error_estimate, 1e-16):
            ok += 1
    assert ok >= 19


def test_budget_exhaustion_raises(monkeypatch):
    assert oracle.BUDGET == 10_000_000
    # a smaller budget runs out on the same path in a fraction of the time
    monkeypatch.setattr(oracle, "BUDGET", 100_000)
    rng = np.random.default_rng(42)

    def noisy(x):
        return rng.standard_normal(np.shape(x))

    with pytest.raises(NonConvergence, match="budget 100000 exhausted"):
        integrate_weighted(noisy, 1e-14)


def test_normalizer_numeric_values():
    assert normalizer_numeric(ParamSet(a=(0.3,))) == pytest.approx(1.0, abs=1e-10)
    assert normalizer_numeric(ParamSet(a=(0.25, 0.25))) == pytest.approx(0.9375, abs=1e-10)
    from gkm import ConjParamSet

    assert normalizer_numeric(ConjParamSet(rho=(0.6,), y=(0.2,))) == pytest.approx(0.64, abs=1e-10)


@pytest.mark.parametrize("k", [62, 64, 128])
def test_high_chebyshev_modes_are_not_aliased(k):
    # T_k times the weight holds the modes k and k +- 2; a grid of N points per
    # period aliases each mode N divides to a constant, so a rule that stops
    # when two unshifted grids agree reports 1.0 for T_64
    assert abs(integrate_weighted(lambda x: np.cos(k * np.arccos(x)), 1e-11).value) <= 1e-11


def test_near_pole_normalizer_matches_mpmath():
    # n = 7 with coincident parameters takes the numeric route; max|a| = 0.9999
    # puts a pole 1e-4 from the support.  Reference values from mpmath at 30
    # digits: A = 1 / ((2/pi) quad(sin(t)^2 prod_j 1/(1 + a_j^2 - 2 a_j cos t),
    # [0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, pi])), and the density at x = 0.5.
    p = ParamSet(a=(0.9999, 0.3, 0.3, -0.5, 0.2, 0.1, 0.1))
    assert normalizer_numeric(p) == pytest.approx(0.46540563684151121689, rel=1e-10)
    assert density(p, 0.5) == pytest.approx(0.33777812374002058363, rel=1e-10)


def test_integrate_2d():
    assert integrate_2d(lambda x, y: f2M(x, y, 0.0), 1e-9).value == pytest.approx(1.0, abs=1e-8)
    assert integrate_2d(lambda x, y: f2M(x, y, 0.5), 1e-9).value == pytest.approx(1.0, abs=1e-8)
    got = integrate_2d(lambda x, y: f2M(x, y, 0.5) * x * y, 1e-10).value
    assert got == pytest.approx(0.125, abs=1e-8)


def test_integrate_3d():
    res = integrate_3d(lambda a, b, c: g3(a, b, c, 0.0, 0.0, 0.0), 1e-7)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    res2 = integrate_3d(lambda a, b, c: g3(a, b, c, 0.5, -0.4, 0.3), 1e-7)
    assert res2.value == pytest.approx(1.0, abs=1e-6)


def test_import_does_not_load_scipy_stats():
    # the 2D/3D quadrature and the sampling suite run on numpy alone
    src = str(Path(gkm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, gkm\n"
        "from gkm.verify import run_verify\n"
        "assert run_verify(('trivariate', 'sampling'))['pass']\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("dim", [2, 3])
def test_panel_refinement_exhaustion_raises(dim, monkeypatch):
    # the 2D and 3D rules double their panels within the one budget, which
    # stops them at tol 0 after a few levels when set to 10^4 evaluations
    monkeypatch.setattr(oracle, "BUDGET", 10_000)
    with pytest.raises(NonConvergence, match="^evaluation budget 10000 exhausted$"):
        if dim == 2:
            integrate_2d(lambda x, y: f2M(x, y, 0.5), 0.0)
        else:
            integrate_3d(lambda a, b, c: g3(a, b, c, 0.5, -0.4, 0.3), 0.0)


@pytest.mark.parametrize("r", [(0.0, 0.0, 0.0), (0.5, -0.4, 0.3), (0.6, 0.6, 0.0), (0.8, -0.7, 0.75)])
def test_lattice_catches_a_relative_error_of_1e_6(r):
    # the three verify sets and a harder one.  Each shifted tensor grid is a
    # shifted lattice rule; an error of 1e-6 planted in one grid's sum keeps
    # the two grids apart at every level, so no level is accepted
    def h(a, b, c):
        return g3(a, b, c, *r)

    assert integrate_3d(h, 1e-7).value == pytest.approx(1.0, abs=1e-7)

    def planted(a, b, c):
        # the rule hands h both grids at once, along the leading axis of each
        # argument: scale the values of the first grid
        v = h(a, b, c)
        assert v.shape[0] == 2
        v[0] *= 1.0 + 1e-6
        return v

    with pytest.raises(NonConvergence, match="^evaluation budget 10000000 exhausted$"):
        integrate_3d(planted, 1e-7)


_INTEGRATE = {1: integrate_plain, 2: integrate_2d, 3: integrate_3d}


def _mode(dim, k):
    # sqrt(1 - x^2) T_k(x) becomes sin(theta)^2 cos(k theta) after
    # x = cos(theta): the modes k and k +- 2, with integral 0 for k > 2; in
    # dim variables, the product of one such factor per variable
    def m(x):
        return np.sqrt(1.0 - x * x) * np.cos(k * np.arccos(x))

    return {1: m, 2: lambda x, y: m(x) * m(y), 3: lambda x, y, z: m(x) * m(y) * m(z)}[dim]


@pytest.mark.parametrize("dim, k", [(2, 30), (2, 32), (2, 64), (3, 14), (3, 16), (3, 32)])
def test_high_modes_are_not_aliased_in_2d_and_3d(dim, k):
    assert abs(_INTEGRATE[dim](_mode(dim, k), 1e-11).value) <= 1e-11


@pytest.mark.parametrize("dim, k", [(1, 64), (2, 32), (3, 16)])
def test_unshifted_grids_would_report_an_aliased_mode(dim, k, monkeypatch):
    # the control of the aliasing tests: on unshifted grids of 64 >> dim and
    # twice as many points per axis, the mode k is a constant on both levels,
    # which agree, so the rule stops with a wrong value
    monkeypatch.setattr(oracle, "_shifts", lambda dim: np.zeros((2, dim)))
    # the kept 1D levels lie on the shifted grids: compute every level afresh
    monkeypatch.setattr(oracle, "_kept_nodes", oracle._nodes)
    assert _INTEGRATE[dim](_mode(dim, k), 1e-11).value == pytest.approx((np.pi / 2) ** dim, rel=1e-12)


def test_tensor_evaluation_counts():
    # two grids of n**dim points each at the accepted level n
    assert integrate_2d(lambda x, y: f2M(x, y, 0.0), 1e-9).evaluations == 2 * 32 ** 2
    assert integrate_2d(lambda x, y: f2M(x, y, 0.5), 1e-9).evaluations == 2 * 64 ** 2
    assert integrate_2d(lambda x, y: f2M(x, y, 0.5) * x * y, 1e-10).evaluations == 2 * 128 ** 2
    assert integrate_3d(lambda a, b, c: g3(a, b, c, 0.0, 0.0, 0.0), 1e-7).evaluations == 2 * 16 ** 3
    assert integrate_3d(lambda a, b, c: g3(a, b, c, 0.5, -0.4, 0.3), 1e-7).evaluations == 2 * 32 ** 3
    assert integrate_3d(lambda a, b, c: g3(a, b, c, 0.6, 0.6, 0.0), 1e-7).evaluations == 2 * 64 ** 3


_BAD_TOLS = [float("nan"), -1e-9, float("inf")]


@pytest.mark.parametrize("tol", _BAD_TOLS)
@pytest.mark.parametrize("integrate, dim", [
    (integrate_weighted, 1), (integrate_plain, 1), (integrate_2d, 2), (integrate_3d, 3),
])
def test_a_tolerance_outside_zero_to_infinity_is_refused_before_any_evaluation(integrate, dim, tol):
    # NaN used to spend the whole budget and inf to accept the first level
    calls = []

    def spy(*x):
        calls.append(x)
        return np.ones(np.broadcast_shapes(*map(np.shape, x)))

    with pytest.raises(InvalidParameters, match="tol must be non-negative and finite"):
        integrate(spy, tol)
    assert calls == []


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_chapman_residual_refuses_the_tolerance_before_any_evaluation(tol, monkeypatch):
    calls = []
    w_eval = conjugate.w_eval

    def spy(*args):
        calls.append(args)
        return w_eval(*args)

    monkeypatch.setattr(conjugate, "w_eval", spy)
    with pytest.raises(InvalidParameters, match="tol"):
        conjugate.chapman_residual(0.1, -0.2, 0.3, 0.4, tol)
    assert calls == []
    # a good tolerance goes through the spy
    assert abs(conjugate.chapman_residual(0.1, -0.2, 0.3, 0.4, 1e-10)) <= 1e-8 and calls


def test_a_tolerance_of_zero_runs_until_the_budget_is_spent(monkeypatch):
    monkeypatch.setattr(oracle, "BUDGET", 10_000)
    with pytest.raises(NonConvergence, match="budget 10000 exhausted"):
        integrate_weighted(lambda x: np.ones_like(x), 0.0)


# --- kept 1D levels, with the bits of levels computed afresh

def _former_1d(g, tol, plain):
    # the 1D rule as it was, computing every level's angles, cosines and
    # sines afresh for each integral
    shifts = oracle._shifts(1).T[:, :, None, None]

    def F(theta):
        if plain:
            return g(np.cos(theta)) * np.abs(np.sin(theta))
        return (2.0 / np.pi) * g(np.cos(theta)) * np.sin(theta) ** 2

    def sums(offsets, n):
        angles = shifts + (2.0 * np.pi / n) * (np.arange(n) + offsets[:, None, :, None])
        return (np.pi / n) * F(angles[0].ravel()).reshape(2, -1).sum(axis=1)

    n = 32
    t = sums(np.zeros((1, 1)), n)
    evals = 2 * n
    while True:
        new = 0.5 * (t + sums(oracle._halves(1), n))
        evals += 2 * n
        n *= 2
        err = max(abs(new[0] - new[1]), 0.5 * abs(new.sum() - t.sum()))
        if err <= tol:
            return oracle.IntegrationResult(float(0.5 * new.sum()), float(err), evals)
        t = new


def _bits(r):
    return r.value.hex(), r.abs_error_estimate.hex(), r.evaluations


@pytest.mark.parametrize("integrate, plain", [(integrate_weighted, False), (integrate_plain, True)],
                         ids=["weighted", "plain"])
@pytest.mark.parametrize("tol, a", [(1e-11, 0.5), (1e-6, 0.5), (1e-6, 0.99), (1e-11, 0.99)])
def test_kept_levels_give_the_bits_of_fresh_ones(integrate, plain, tol, a, monkeypatch):
    # a = 0.99 at 1e-6 and 1e-11 runs past the kept levels, to n = 1024 and 4096
    def g(x):
        return (np.sqrt(1.0 - x * x) if plain else 1.0) / (1.0 + a * a - 2.0 * a * x)

    oracle._kept_nodes.cache_clear()
    cold = integrate(g, tol)
    warm = integrate(g, tol)
    assert _bits(cold) == _bits(warm) == _bits(_former_1d(g, tol, plain))
    # every level kept up to _KEPT_N and none above: the first level and the
    # doublings at n = 32, 64, ..., _KEPT_N
    kept = oracle._kept_nodes.cache_info().currsize
    assert kept == min(cold.evaluations // 4, oracle._KEPT_N).bit_length() - 4
    if a == 0.99:
        assert cold.evaluations > 4 * oracle._KEPT_N
    monkeypatch.setattr(oracle, "_kept_nodes", oracle._nodes)
    assert _bits(integrate(g, tol)) == _bits(cold)


def test_kept_levels_are_read_only():
    for v in (oracle._kept_nodes(32, False), oracle._kept_nodes(64, True)):
        assert not any(a.flags.writeable for a in v)


def test_an_integrand_that_writes_into_its_argument_cannot_change_a_later_integral():
    want = [_bits(integrate(lambda x: x ** 2, 1e-12)) for integrate in (integrate_weighted, integrate_plain)]

    def vandal(x):
        y = x ** 2
        x[:] = 0.5
        x += 1.0
        return y

    for integrate in (integrate_weighted, integrate_plain):
        assert _bits(integrate(vandal, 1e-12)) == _bits(integrate(lambda x: x ** 2, 1e-12))
    assert [_bits(integrate(lambda x: x ** 2, 1e-12)) for integrate in (integrate_weighted, integrate_plain)] == want


def _former_g(p, x):
    # the former integrands: numpy-scalar constants, a new array per division
    r = np.ones_like(x)
    if isinstance(p, ParamSet):
        for aj in p._a:
            r = r / (1.0 + aj * aj - 2.0 * aj * x)
    else:
        for ri, yi in zip(np.asarray(p.rho), np.asarray(p.y)):
            r = r / conjugate.w_eval(x, yi, ri)
    return r


@pytest.mark.parametrize("size", [1, 64, 2048])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.lists(st.floats(-0.99, 0.99), max_size=8),
    st.lists(st.tuples(st.floats(-0.99, 0.99), st.floats(-1.0, 1.0)), max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_g_has_the_bits_of_the_former_loop(size, a, pairs, seed):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size)
    x[: min(size, 3)] = (-1.0, 1.0, 0.0)[: min(size, 3)]
    conj = ConjParamSet(rho=tuple(r for r, _ in pairs), y=tuple(y for _, y in pairs))
    for p in (ParamSet(a=tuple(a)), conj):
        got = p._g(x.copy())
        assert got.dtype == float and got.shape == x.shape
        assert got.tobytes() == _former_g(p, x).tobytes()


# --- families: one sweep, each row accepted on its own

def _family(x):
    # an all-zero row, a polynomial, and poles ever closer to the support:
    # rows accepted at different levels, the last past the kept ones
    return np.array([np.zeros_like(x), x ** 2] + [1.0 / (1.0 + a * a - 2.0 * a * x) for a in (0.3, 0.9, 0.99)])


@pytest.mark.parametrize("tol", [1e-6, 1e-11])
def test_each_row_of_a_family_has_the_bits_of_its_integral_alone(tol):
    calls = []

    def g(x):
        calls.append(x.size)
        return _family(x)

    rows = integrate_weighted(g, tol, rows=5)
    assert isinstance(rows, tuple) and len(rows) == 5
    assert [_bits(r) for r in rows] == [_bits(integrate_weighted(lambda x, i=i: _family(x)[i], tol)) for i in range(5)]
    evaluations = [r.evaluations for r in rows]
    assert len(set(evaluations)) >= 3 and max(evaluations) > 4 * oracle._KEPT_N
    assert rows[0].value == rows[0].abs_error_estimate == 0.0
    # one call of g per level, until the last row is accepted
    assert sum(calls) == max(evaluations)


def test_a_family_of_one_row_is_the_scalar_integral():
    (one,) = integrate_weighted(lambda x: (x ** 2)[None, :], 1e-12, rows=1)
    assert _bits(one) == _bits(integrate_weighted(lambda x: x ** 2, 1e-12))


@pytest.mark.parametrize("integrate", [integrate_weighted, integrate_plain], ids=["weighted", "plain"])
@pytest.mark.parametrize("g", [
    lambda x: np.append(x, 1.0),
    lambda x: "a",
    lambda x: 1.0,
    lambda x: x[:, None],
    lambda x: np.array([x, x]),
    lambda x: x + 0j,
    lambda x: np.array([None] * x.size),
], ids=["one_value_more", "text", "scalar", "column", "two_rows", "complex", "objects"])
def test_an_integrand_of_another_shape_or_kind_is_refused(integrate, g):
    # the first two used to raise a bare ValueError and TypeError
    with pytest.raises(InvalidParameters, match="the integrand must return reals of shape"):
        integrate(g, 1e-10)


@pytest.mark.parametrize("g, rows", [
    (lambda x: x, 1),
    (lambda x: np.array([x, x]), 3),
    (lambda x: np.array([x, x]).T, 2),
], ids=["one_row_flat", "too_few_rows", "transposed"])
def test_a_family_of_another_shape_is_refused(g, rows):
    with pytest.raises(InvalidParameters, match=rf"shape \({rows}, 64\)"):
        integrate_weighted(g, 1e-10, rows=rows)


@pytest.mark.parametrize("rows", [0, -1, True, 2.0, "2"])
def test_a_row_count_that_is_not_a_positive_integer_is_refused(rows):
    with pytest.raises(InvalidParameters, match="rows must be"):
        integrate_weighted(lambda x: np.array([x]), 1e-10, rows=rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("integrate", [integrate_weighted, integrate_plain, integrate_2d, integrate_3d],
                         ids=["weighted", "plain", "2d", "3d"])
def test_an_integrand_that_is_not_finite_fails_at_the_first_level(integrate, bad):
    # NaN used to spend the whole budget (10^7 evaluations, about half a
    # second) and inf to warn of inf - inf before it did the same
    calls = []

    def g(*x):
        calls.append(x)
        return np.full(np.broadcast_shapes(*map(np.shape, x)), bad)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match=r"not finite on the grids of \d+ points per axis \(row 0 of 1\)"):
            integrate(g, 1e-10)
    assert len(calls) == 1


def test_a_family_names_its_first_row_that_is_not_finite():
    def g(x):
        return np.array([x, np.where(x > 0.0, np.nan, x), np.full_like(x, np.inf)])

    with pytest.raises(NonConvergence, match=r"grids of 32 points per axis \(row 1 of 3\)"):
        integrate_weighted(g, 1e-10, rows=3)
