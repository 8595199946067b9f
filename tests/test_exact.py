"""The normalizer and the B prefix against exact rational values
(tests/_exact.py), on parameter sets that hypothesis draws (derandomized,
so every run sees the same examples)."""

import numpy as np
import pytest
from _exact import exact_A_B
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm import ParamSet
from gkm.core import B_prefix, normalizer

K = 12
# Measured on 4 466 sets built as `separated` builds them (400 random and six
# packed against -0.95, 0 or 0.95 per n = 0..10): at worst 2.4e-13 relative in
# A and 2.5e-12 absolute in B_0..B_12, both at n = 10.  Each bound has about
# eight times that.
A_REL_BOUND = 2e-12
B_ABS_BOUND = 2e-11


@st.composite
def separated(draw):
    """Up to ten parameters in [-0.95, 0.95] with gaps of at least 0.05 (up
    to rounding), in a drawn order."""
    n = draw(st.integers(0, 10))
    u = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    free = 1.9 - 0.05 * (n - 1)
    return draw(st.permutations([-0.95 + 0.05 * i + free * ui for i, ui in enumerate(u)]))


def _errors(a, K):
    """The relative error of normalizer and the largest absolute error of
    B_prefix up to K, against the exact values."""
    p = ParamSet(a=tuple(a))
    A, B = exact_A_B(a, K)
    return abs(normalizer(p) - A) / A, float(np.max(np.abs(B_prefix(p, K).values - B)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(separated())
def test_normalizer_and_B_prefix_against_exact_rationals(a):
    err_A, err_B = _errors(a, K)
    assert err_A <= A_REL_BOUND
    assert err_B <= B_ABS_BOUND


def test_exact_values_of_one_parameter():
    # A = 1 and B_k = a^k, exactly
    assert exact_A_B([0.6], 3) == (1.0, [1.0, 0.6, 0.6 ** 2, 0.6 ** 3])
    assert exact_A_B([], 2) == (1.0, [1.0, 0.0, 0.0])


# The smallest gap, 1.1e-6, passes the distinctness gate, so the partial
# fractions run and lose digits silently: A is 2.7e-5 off, relative, and
# B_0..B_6 5.8e-5, absolute (ROADMAP item 1).
CLUSTER = (0.5, 0.5 + 1.1e-6, 0.5 + 2.2e-6, -0.3, 0.1, 0.8, -0.7, 0.2)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the partial fractions lose digits on a cluster")
def test_cluster_admitted_by_the_distinctness_gate():
    err_A, err_B = _errors(CLUSTER, 6)
    assert err_A <= A_REL_BOUND
    assert err_B <= B_ABS_BOUND
