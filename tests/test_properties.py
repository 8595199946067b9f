"""Property tests: symmetries and exact laws of the density family, checked on
parameter sets that hypothesis draws (derandomized, so every run sees the same
examples)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkm import A_closed, A_special, ParamSet, density, moment
from gkm.core import normalizer

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)

coord = st.floats(-0.9, 0.9)
point = st.floats(-1.0, 1.0)


def _separated(a, gap=0.05):
    return ParamSet(a=tuple(a)).min_gap >= gap


params = st.lists(coord, max_size=8).filter(_separated)


@PROPERTY
@given(params, point)
def test_reflection(a, x):
    # f(x | a) = f(-x | -a), bit for bit: every factor and S_k only changes sign
    a = np.asarray(a)
    assert density(ParamSet(a=tuple(a)), x) == density(ParamSet(a=tuple(-a)), -x)


@PROPERTY
@given(params, point, st.data())
def test_permutation_invariance(a, x, data):
    b = data.draw(st.permutations(a))
    p, q = ParamSet(a=tuple(a)), ParamSet(a=tuple(b))
    assert normalizer(q) == pytest.approx(normalizer(p), rel=1e-13)
    assert density(q, x) == pytest.approx(density(p, x), rel=1e-13)


@PROPERTY
@given(params, point, st.integers(-3, 3))
def test_scaling_law_exact_for_power_of_two_scales(a, x, e):
    # c x, c (1 + a^2) - 2 a c x and sqrt(c^2 - (c x)^2) are exact multiples
    c = 2.0 ** e
    assert density(ParamSet(a=tuple(a), c=c), c * x) == density(ParamSet(a=tuple(a)), x) / c


@PROPERTY
@given(params, st.floats(-0.99, 0.99), st.floats(0.5, 3.0))
def test_scaling_law(a, x, c):
    # kept off the edges: rounding c x moves sqrt(c^2 - (c x)^2) by a
    # relative eps / (1 - x^2), which no tolerance on the law can absorb
    got = density(ParamSet(a=tuple(a), c=c), c * x)
    assert got == pytest.approx(density(ParamSet(a=tuple(a)), x) / c, rel=1e-13)


@PROPERTY
@given(params)
def test_unit_mass(a):
    assert moment(ParamSet(a=tuple(a)), 0) == pytest.approx(1.0, abs=1e-12)


@PROPERTY
@given(st.lists(st.floats(0.025, 0.9), max_size=4), st.booleans())
def test_odd_moments_vanish_for_symmetric_parameters(b, with_zero):
    a = tuple(b) + tuple(-v for v in b) + ((0.0,) if with_zero else ())
    assume(_separated(a))
    p = ParamSet(a=a)
    for k in range(1, 12, 2):
        assert abs(moment(p, k)) <= 1e-12


@PROPERTY
@given(st.lists(coord, min_size=1, max_size=6).filter(_separated))
def test_special_normalizer_agrees_with_partial_fractions(a):
    p = ParamSet(a=tuple(a))
    assert A_special(p) == pytest.approx(A_closed(p), rel=1e-11)
