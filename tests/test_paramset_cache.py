"""The operands a ParamSet caches must not change any result.

Every closed form is evaluated on a fresh instance (nothing cached yet), on
the same instance again after all of them have run (everything cached), and
on an equal but distinct instance; the three answers must agree bit for bit.
"""

import numpy as np
import pytest

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
)
from gkm.core import B_prefix, normalizer
from gkm.errors import DegenerateParameters, GKMError

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
