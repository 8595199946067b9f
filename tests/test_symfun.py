import math

import numpy as np
import pytest

from gkm import ParamSet, elementary_all
from gkm.verify import _delta_all


def test_elementary_small():
    t = elementary_all((0.1, 0.2, 0.3))
    assert t[0] == 1.0
    assert t[1] == pytest.approx(0.6)
    assert t[2] == pytest.approx(0.11)
    assert t[3] == pytest.approx(0.006)


def test_elementary_empty_and_cancelling():
    assert elementary_all(()).tolist() == [1.0]
    t = elementary_all((0.5, -0.5))
    assert t[1] == pytest.approx(0.0, abs=1e-16)
    assert t[2] == pytest.approx(-0.25)


def test_elementary_generating_identity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(0, 9))
        a = rng.uniform(-1.0, 1.0, n)
        S = elementary_all(a)
        for t in rng.uniform(-1.0, 1.0, 10):
            lhs = float(np.prod(1.0 + t * a))
            rhs = float(np.polyval(S[::-1], t))
            assert abs(lhs - rhs) <= 1e-13


def test_elementary_complex_dtype():
    a = np.array([0.2 + 0.1j, 0.2 - 0.1j])
    S = elementary_all(a)
    assert S.dtype == complex
    assert np.max(np.abs(S.imag)) < 1e-16
    assert S[1].real == pytest.approx(0.4)
    assert S[2].real == pytest.approx(0.05)


def test_delta_small():
    assert _delta_all(1, ParamSet(a=(0.3, 0.4)))[1] == pytest.approx(0.7)
    assert _delta_all(2, ParamSet(a=(0.1, 0.2)))[2] == pytest.approx(0.07)
    assert _delta_all(3, ParamSet(a=(0.5,)))[3] == pytest.approx(0.125)
    assert _delta_all(0, ParamSet())[0] == 1.0
    assert _delta_all(2, ParamSet())[2] == 0.0


def test_delta_equal_parameters_count():
    # all parameters equal: h_m = C(m+n-1, m) a^m
    for n in (1, 2, 3, 4):
        for m in (0, 1, 2, 3):
            got = _delta_all(m, ParamSet(a=(0.5,) * n))[m]
            expect = math.comb(m + n - 1, m) * 0.5 ** m
            assert got == pytest.approx(expect, abs=1e-14)


def test_eh_duality():
    # sum_m h_m t^m * sum_k (-1)^k S_k t^k = 1 through order 30
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-0.9, 0.9, n)
        h = _delta_all(30, ParamSet(a=tuple(a)))
        S = elementary_all(a)
        e = np.zeros(31)
        e[: n + 1] = S * (-1.0) ** np.arange(n + 1)
        conv = np.convolve(h, e)[:31]
        expect = np.zeros(31)
        expect[0] = 1.0
        assert np.max(np.abs(conv - expect)) <= 1e-12
