"""The numpy CSV formatter against repr and str themselves."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm import _csvtext, cli

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def _repr_lines(values) -> str:
    return "".join(f"{v!r}\n" for v in values)


def _same(got: str, want: str) -> bool:
    """got == want; on a mismatch, the first differing line is asserted on
    (a diff of the whole texts would take minutes)."""
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        i, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        assert (i, g) == (i, w)
        assert len(got) == len(want)
    return True


def _rows(cols, block) -> bytes:
    """format_rows with BLOCK_ROWS set to block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_csvtext, "BLOCK_ROWS", block)
        return bytes(_csvtext.format_rows(cols))


def _format(arr, block=257) -> str:
    return _rows([arr], block).decode("ascii")


def _ulps(x, n):
    """x and its n neighbours on each side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def _corpus():
    rng = np.random.default_rng(20)
    vals = []
    for k in range(-300, 301):
        vals += _ulps(float(f"1e{k}"), 2)
    vals += [2.0**k for k in range(-1000, 1001)]
    bits = rng.integers(0, 1 << 64, size=200_000, dtype=np.uint64)
    u = rng.uniform(-1e4, 1e4, 50_000)
    v = np.concatenate([vals, bits.view(np.float64), u.round(2), u.round(5), rng.uniform(-1, 1, 50_000)])
    return np.concatenate([v, -v])


def test_corpus_matches_repr():
    v = _corpus()
    assert _same(_format(v, 4096), _repr_lines(v.tolist()))
    # the check is not all fallback: the decimals and the uniform draws are
    # certified (values rounded to few digits included)
    ok = _csvtext.certify(v[-150_000:])[0]
    assert ok.mean() > 0.99


def test_one_digit_values_and_their_neighbours():
    # a 1-digit value is a multiple of 10^16 after scaling, where a float
    # remainder would be off by up to 1
    xs = [x for m in range(1, 10) for e in range(-21, 22) for x in _ulps(m * 10.0**e, 3)]
    xs += [float(f"{m}e{e}") for m in range(1, 10) for e in range(-21, 22)]
    v = np.array(xs + [-x for x in xs])
    assert _same(_format(v), _repr_lines(v.tolist()))
    # 3e-05, 7e-07, ... are certified, not left to repr (from 7e15 on, an
    # exact integer's interval ends on integers, which is left to repr)
    one = np.array([float(f"{m}e{e}") for m in (3, 7, 9) for e in range(-20, 15)])
    assert _csvtext.certify(one)[0].all()


def test_values_just_below_a_power_of_ten():
    # log10 puts these in the decade above, and 10^k·x rounds up to the
    # power of ten; the scale is moved back by one
    below = np.array([np.nextafter(float(f"1e{e}"), 0.0) for e in range(-19, 22)])
    assert _same(_format(below), _repr_lines(below.tolist()))
    assert repr(below.tolist()[15]) == "9.999999999999999e-05"
    # from 1e16 on they are integers whose interval ends on integers
    assert _csvtext.certify(below[:35])[0].all()


def test_ties_are_left_to_repr():
    # 2^50 + m/4 scales to a half-integer: two 17-digit strings are equally
    # near, and repr picks the even one
    ties = np.array([2.0**50 + m / 4 for m in range(1, 400, 2)])
    assert _same(_format(ties), _repr_lines(ties.tolist()))
    assert repr(ties.tolist()[0]) == "1125899906842624.2"
    assert not _csvtext.certify(ties)[0].any()


@pytest.mark.parametrize("x", [
    1e-4, 1e-5, 9.999999999999999e-05, 0.00010000000000000002, 0.00012345,
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1234567890123456.0, 1.5e16,
    2.0**53, 2.0**53 + 2, 2.0**53 - 1, 0.1, 0.3, 1.0, 100.0, 123.0, 5e-324, 1e21, 1e-20,
])
def test_boundaries(x):
    for y in (x, -x):
        assert _format(np.array([y])) == f"{y!r}\n"


def test_ints_match_str():
    ints = np.array([0, 1, -1, 9, 10, 99, 100, 2**53, 2**53 + 1, -(2**53) - 1, 10**16, 10**17 - 1, 10**17,
                     -(10**17), 2**63 - 1, -(2**63), -(2**63) + 1])
    assert _format(ints) == "".join(f"{i}\n" for i in ints.tolist())
    assert _rows([range(-5, 10**17 + 5, 10**16 - 1)], 3) == "".join(
        f"{i}\n" for i in range(-5, 10**17 + 5, 10**16 - 1)).encode()


@PROPERTY
@given(st.lists(st.floats(width=64), min_size=1, max_size=40), st.integers(1, 9))
def test_any_floats_match_repr(xs, block):
    # NaN, +-inf, +-0.0 and subnormals included
    assert _format(np.array(xs, dtype=np.float64), block) == _repr_lines(xs)


@PROPERTY
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40), st.integers(1, 9))
def test_any_int64_matches_str(xs, block):
    assert _format(np.array(xs, dtype=np.int64), block) == "".join(f"{i}\n" for i in xs)


def test_every_value_through_the_fallback(monkeypatch):
    # a certifier that rejects everything: every float goes to repr, with the
    # same bytes
    v = _corpus()[::7]
    want = _format(v)
    real = _csvtext.certify

    def reject(x, ws=None):
        ok, C, E = real(x, ws)
        return np.zeros_like(ok), np.zeros_like(C), E

    monkeypatch.setattr(_csvtext, "certify", reject)
    assert _same(_format(v), want) and _same(want, _repr_lines(v.tolist()))


def test_rows_of_mixed_columns():
    rng = np.random.default_rng(3)
    n = 1000
    cols = [range(n), rng.normal(size=n), np.arange(n, dtype=np.int32) * -3, rng.uniform(-1e-6, 1e-6, n)]
    want = "".join(",".join(map(str, row)) + "\n" for row in zip(*(c if isinstance(c, range) else c.tolist() for c in cols)))
    for block in (1, 64, 999, 1000, 5000):
        assert _same(_rows(cols, block).decode("ascii"), want)


@pytest.mark.parametrize("piece", [1, 7, 64, 1000])
def test_nuls_dropped_in_pieces_of_any_size(piece, monkeypatch):
    # a piece ends anywhere in a cell, or covers a whole block
    rng = np.random.default_rng(4)
    cols = [range(300), rng.normal(size=300)]
    want = _rows(cols, 64)
    monkeypatch.setattr(_csvtext, "_PIECE_BYTES", piece)
    for block in (1, 64, 300):
        assert _rows(cols, block) == want


def test_supported_columns():
    assert all(map(_csvtext.supported, [range(3), np.zeros(3), np.arange(3), np.arange(3, dtype=np.int8)]))
    for col in ([0.5], (1, 2), np.zeros(3, np.float32), np.zeros((2, 2)), np.array(["a"]), range(2**63, 2**63 + 2)):
        assert not _csvtext.supported(col)


def test_import_builds_no_table():
    # import gkm and the short CSV commands load no formatter; importing it
    # builds no table
    code = (
        "import sys, gkm, gkm.cli\n"
        "gkm.cli.main(['eval', '--a', '0.2', '--x', '0.5'])\n"
        "gkm.cli.main(['grid', '--a', '0.2', '--n-points', '257'])\n"
        "assert 'gkm._csvtext' not in sys.modules\n"
        "from gkm import _csvtext\n"
        "assert _csvtext._tables.cache_info().currsize == 0\n"
        "assert _csvtext._layouts.cache_info().currsize == 0\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, check=True, capture_output=True)


@pytest.mark.parametrize("block", [1000, _csvtext.BLOCK_ROWS - 1, _csvtext.BLOCK_ROWS + 1, 3 * _csvtext.BLOCK_ROWS + 7])
def test_ragged_blocks_give_the_bytes_of_one_block(block):
    # every block, the last one shorter, takes its arrays from one workspace
    # per call: no value of one block or column leaks into the next
    n = 3 * _csvtext.BLOCK_ROWS + 7
    rng = np.random.default_rng(block)
    v = rng.uniform(-2, 2, n)
    v[::97] = rng.integers(0, 1 << 64, v[::97].size, dtype=np.uint64).view(np.float64)  # left to repr
    ints = rng.integers(-(1 << 63), 1 << 63, n, dtype=np.int64) >> rng.integers(0, 64, n)
    cols = [range(-n, 5 * n, 6), v, ints, np.round(rng.uniform(-2, 2, n), 3), ints.astype(np.int32), range(n)]
    want = "".join(",".join(map(str, row)) + "\n" for row in zip(*(c if isinstance(c, range) else c.tolist() for c in cols)))
    got = _rows(cols, block)
    assert got == _rows(cols, n)
    assert _same(got.decode("ascii"), want)
    for col in cols:
        assert _rows([col], block) == _rows([col], n)
