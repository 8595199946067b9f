import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import gkm
from gkm import CdfTable, ParamSet, build_cdf, ks_statistic, moment, sample
from gkm.errors import DomainError, InvalidParameters
from gkm.oracle import integrate_weighted
from gkm.sampler import _BLOCK, KS_CRIT_99


def test_cdf_endpoints_and_symmetry():
    t = build_cdf(ParamSet(), 512)
    assert t.Fs[0] == 0.0
    assert t.Fs[-1] == 1.0
    assert float(t.cdf(0.0)) == pytest.approx(0.5, abs=1e-9)
    assert np.all(np.diff(t.Fs) >= 0.0)


def test_cdf_matches_oracle_mass():
    from gkm.core import normalizer

    p = ParamSet(a=(0.5,))
    t = build_cdf(p, 2048)
    # mass of [-1, 0] from the oracle; a > 0 shifts mass toward +1
    A = normalizer(p)
    half = A * integrate_weighted(lambda x: (x <= 0.0) / (1.0 + 0.25 - x), 1e-9).value
    assert float(t.cdf(0.0)) < 0.5
    assert float(t.cdf(0.0)) == pytest.approx(half, abs=1e-6)


def test_cdf_is_zero_below_the_table_and_one_above_it():
    # the cubic extrapolated before: cdf(2.0) was -2.7e7 and cdf(1e200) -inf
    t = build_cdf(ParamSet(a=(0.5, -0.3), c=1.5))
    x = np.array([-np.inf, -1e200, -2.0, np.nextafter(-1.5, -2.0), -1.5, -0.4, 0.3, 1.5,
                  np.nextafter(1.5, 2.0), 2.0, 1e200, np.inf])
    got = t.cdf(x)
    inside = (x >= -1.5) & (x <= 1.5)
    assert np.array_equal(got[inside], t._cdf(x[inside]))
    assert got[x < -1.5].tolist() == [0.0] * 4 and got[x > 1.5].tolist() == [1.0] * 4
    assert t.cdf(-2.0).shape == () and float(t.cdf(2.0)) == 1.0
    assert t.cdf(x.reshape(3, 4)).tolist() == got.reshape(3, 4).tolist()
    assert t.cdf([]).shape == (0,)
    # the integers of a list are real points too
    assert t.cdf([-2, 0, 2]).tolist() == [0.0, float(t._cdf(0.0)), 1.0]


def test_python_ints_beyond_int64_are_real_points():
    # numpy holds them in object arrays, which were refused as not real
    t = build_cdf(ParamSet(a=(0.5, -0.3)), 64)
    assert t.cdf([-(2**70), 0, 2**70]).tolist() == [0.0, float(t._cdf(0.0)), 1.0]
    assert float(t.cdf(2**64)) == 1.0
    assert ks_statistic([0.1, -0.2, 2**70], t) == ks_statistic([0.1, -0.2, 2.0 ** 70], t)


@pytest.mark.parametrize("x", [None, "0.3", 0.3j, True, [0.1, True], [[0.1], [0.2, 0.3]]])
def test_cdf_refuses_points_that_are_not_real(x):
    t = build_cdf(ParamSet(a=(0.5, -0.3)), 64)
    with pytest.raises(InvalidParameters, match="x must be real numbers"):
        t.cdf(x)


def test_cdf_refuses_nan():
    t = build_cdf(ParamSet(a=(0.5, -0.3)), 64)
    for x in (np.nan, [0.1, np.nan, 3.0]):
        with pytest.raises(DomainError, match="x must not be NaN"):
            t.cdf(x)


@pytest.mark.parametrize("u", [-0.5, 1.5, np.nextafter(1.0, 2.0), -1e-300, np.nan, np.inf, [0.5, 1.2]])
def test_inverse_refuses_u_outside_the_unit_interval(u):
    # inverse(-0.5) was 7.5e19 and inverse(1.5) -4.2e18
    t = build_cdf(ParamSet(a=(0.5, -0.3)))
    with pytest.raises(DomainError, match=r"u outside \[0, 1\]"):
        t.inverse(u)


def test_inverse_on_the_unit_interval_is_the_cubic():
    t = build_cdf(ParamSet(a=(0.5, -0.3)))
    u = np.array([0.0, 1e-300, 0.25, 0.5, 1.0])
    assert np.array_equal(t.inverse(u), t._inverse(u))
    assert float(t.inverse(0)) == -1.0 and float(t.inverse(1)) == 1.0
    for bad in (None, "0.5", 0.5j):
        with pytest.raises(InvalidParameters, match="u must be real numbers"):
            t.inverse(bad)


def test_cdf_requires_minimum_grid():
    with pytest.raises(InvalidParameters, match="at least 64"):
        build_cdf(ParamSet(), 32)


def test_sample_determinism_and_range():
    t = build_cdf(ParamSet(a=(0.3,)), 512)
    d1 = sample(t, 5000, seed=42)
    d2 = sample(t, 5000, seed=42)
    assert np.array_equal(d1, d2)
    assert np.all(np.abs(d1) <= 1.0)
    d3 = sample(t, 5000, seed=43)
    assert not np.array_equal(d1, d3)


def test_sample_mean_recovery():
    t = build_cdf(ParamSet(a=(0.6,)), 2048)
    draws = sample(t, 100_000, seed=7)
    assert abs(float(np.mean(draws)) - 0.3) <= 0.006


def test_sample_moment_recovery():
    p = ParamSet(a=(-0.4,))
    t = build_cdf(p, 2048)
    draws = sample(t, 100_000, seed=8)
    for k in range(1, 5):
        mk = moment(p, k)
        se = float(np.std(draws ** k, ddof=1)) / np.sqrt(len(draws))
        assert abs(float(np.mean(draws ** k)) - mk) <= 5.0 * se


def test_ks_roundtrip_passes():
    t = build_cdf(ParamSet(a=(0.2, -0.5)), 2048)
    draws = sample(t, 100_000, seed=9)
    assert ks_statistic(draws, t) * np.sqrt(len(draws)) < KS_CRIT_99


def test_ks_detects_point_mass():
    t = build_cdf(ParamSet(), 512)
    assert ks_statistic(np.zeros(1000), t) == pytest.approx(0.5, abs=1e-6)


def test_ks_detects_mismatched_parameters():
    t_pos = build_cdf(ParamSet(a=(0.6,)), 2048)
    t_neg = build_cdf(ParamSet(a=(-0.6,)), 2048)
    draws = sample(t_pos, 10_000, seed=10)
    assert ks_statistic(draws, t_neg) * np.sqrt(len(draws)) > 10.0 * KS_CRIT_99


def test_import_does_not_load_scipy_interpolate():
    # sampling, KS and the sampling suite run on numpy alone
    src = str(Path(gkm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for mod in ("gkm", "gkm.cli"):
        code = (
            f"import sys, {mod}\n"
            "from gkm import ParamSet, build_cdf, ks_statistic, sample\n"
            "t = build_cdf(ParamSet(a=(0.5,)))\n"
            "ks_statistic(sample(t, 1000, seed=1), t)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", mod


def _parent_ks_statistic(samples, t):
    # ks_statistic as it was, on scipy's interpolant, with a temporary per step
    s = np.sort(np.asarray(samples, dtype=float))
    F = np.clip(PchipInterpolator(t.xs, t.Fs)(np.clip(s, t.xs[0], t.xs[-1])), 0.0, 1.0)
    n = s.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def test_lazy_interpolators_give_the_same_draws_and_cdf():
    # against PchipInterpolator built directly on the table, as sampler did
    # with its module-level import, and KS against its former spelling
    p = ParamSet(a=(0.7, -0.4, 0.2), c=1.3)
    t = build_cdf(p, 1024)
    u = np.random.Generator(np.random.Philox(key=99)).random(20_000)
    want = np.clip(PchipInterpolator(t.Fs, t.xs)(u), t.xs[0], t.xs[-1])
    draws = sample(t, 20_000, seed=99)
    assert np.array_equal(draws, want)
    x = np.linspace(-1.3, 1.3, 1001)
    assert np.array_equal(t.cdf(x), PchipInterpolator(t.xs, t.Fs)(x))
    # draws, draws beyond the table on both sides, and a point mass; then
    # draws around one and two blocks of the run path, and many blocks
    more = [sample(t, n, seed=n) for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 150_001)]
    for s in (draws, 1.5 * draws, np.zeros(1000), *more):
        kept = s.copy()
        assert ks_statistic(s, t) == _parent_ks_statistic(s, t)
        assert np.array_equal(s, kept)


def _assert_same_bits(got, want):
    assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


@pytest.mark.parametrize("c", [0.7, 1.0, 2.5])
@pytest.mark.parametrize("a", [(0.99,), (0.9, 0.9)])
def test_monotone_cubic_has_the_bits_of_pchip(c, a):
    t = build_cdf(ParamSet(a=a, c=c), 2048)
    rng = np.random.default_rng(17)
    for f, x, y in ((t._cdf, t.xs, t.Fs), (t._inverse, t.Fs, t.xs)):
        ref = PchipInterpolator(x, y)
        lo, hi = x[0], x[-1]
        span = hi - lo
        inside = rng.uniform(lo, hi, 20_000)
        points = (
            inside,
            inside.reshape(100, 200),
            x,  # the knots exactly, the last one closing the last interval
            np.array([lo, hi, 0.0, 1.0, np.nan, np.inf, -np.inf]),
            np.array([0x7FF8000000000001, 0xFFF8000000000002], np.uint64).view(float),  # NaN payloads
            rng.uniform(lo - span, hi + span, 2_000),  # the end pieces, extrapolated
            np.nextafter(x, np.inf),
            np.nextafter(x, -np.inf),
            np.array([]),
        )
        for q in points:
            _assert_same_bits(f(q), ref(q))
        for q in (0.0, 1.0, 0.5 * (lo + hi), np.float64(hi), np.array(lo), 2):
            _assert_same_bits(f(q), ref(q))


@pytest.mark.parametrize("xs, Fs", [([-1.0, 1.0], [0.0, 1.0]), ([-1.0, 0.2, 1.0], [0.0, 0.7, 1.0])])
def test_monotone_cubic_has_the_bits_of_pchip_on_tiny_tables(xs, Fs):
    # two knots: one straight piece; three: both end slopes from the edge rule
    t = CdfTable(xs=np.array(xs), Fs=np.array(Fs))
    q = np.linspace(-1.5, 1.5, 301)
    _assert_same_bits(t._cdf(q), PchipInterpolator(xs, Fs)(q))
    _assert_same_bits(t._inverse(q), PchipInterpolator(Fs, xs)(q))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=3),
    st.floats(0.25, 4.0),
    st.integers(64, 300),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
    st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=40),
)
def test_monotone_cubic_has_the_bits_of_pchip_on_drawn_tables(a, c, N, xq, uq):
    t = build_cdf(ParamSet(a=tuple(a), c=c), N)
    xq = np.concatenate([np.array(xq), c * np.array(uq)])
    _assert_same_bits(t._cdf(xq), PchipInterpolator(t.xs, t.Fs)(xq))
    _assert_same_bits(t._inverse(np.array(uq)), PchipInterpolator(t.Fs, t.xs)(np.array(uq)))


_LOOKUP_TABLES = [build_cdf(ParamSet(a=(a,))) for a in (0.5, -0.99, 0.999999)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.sampled_from(range(len(_LOOKUP_TABLES))),
    st.booleans(),
    st.lists(st.one_of(st.floats(-1.5, 1.5), st.integers(0, 2047), st.floats(0.0, 1e-6), st.floats(1 - 1e-6, 1.0)),
             min_size=1, max_size=60),
)
def test_interval_lookup_counts_the_interior_knots_at_or_below(table, inverse, picks):
    # the knots crowd near 0 and 1 in an inverse table and near -1 and 1 in
    # a CDF table; an integer pick is a knot itself, one below or one above
    t = _LOOKUP_TABLES[table]
    f = t._inverse if inverse else t._cdf
    x = t.Fs if inverse else t.xs
    q = np.array([x[p] if isinstance(p, int) else p for p in picks], dtype=float)
    q = np.concatenate([q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf)])
    assert np.array_equal(f._interval(q), np.searchsorted(x[1:-1], q, side="right"))


def test_interval_lookup_of_nan_and_infinities():
    for t in _LOOKUP_TABLES:
        for f, x in ((t._cdf, t.xs), (t._inverse, t.Fs)):
            got = f._interval(np.array([np.nan, -np.inf, np.inf]))
            assert got.tolist() == [0, 0, x.size - 2]


# --- typed errors at the entry points

@pytest.mark.parametrize("count, seed, message", [
    (2.5, 0, "count must be an integer"),
    (0, 0, "count must be positive"),
    (10, -1, "seed must be non-negative"),
    (10, 0.5, "seed must be an integer"),
    (10, 1 << 128, "seed must be below 2"),
])
def test_sample_rejects_bad_counts_and_seeds(count, seed, message):
    t = build_cdf(ParamSet(a=(0.3,)), 64)
    with pytest.raises(InvalidParameters, match=message):
        sample(t, count, seed)
    # the largest seed Philox takes
    assert sample(t, 3, (1 << 128) - 1).shape == (3,)


@pytest.mark.parametrize("N", [100.5, np.float64(128.0)])
def test_build_cdf_needs_an_integer_size(N):
    # refused, not truncated to a table of int(N) + 1 points
    with pytest.raises(InvalidParameters, match="N must be an integer"):
        build_cdf(ParamSet(), N)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_statistic_rejects_samples_that_are_not_finite(bad):
    t = build_cdf(ParamSet(a=(0.3,)), 64)
    for samples in ([bad], [0.1, bad, -0.2]):
        with pytest.raises(DomainError, match="finite"):
            ks_statistic(samples, t)
    with pytest.raises(InvalidParameters, match="nonempty"):
        ks_statistic([], t)


@pytest.mark.parametrize("samples", [
    np.array([True, False]),
    [True, False],
    ["0.1", "0.2"],
    np.array([b"0.1", b"0.2"]),
    np.array([0.1 + 0.5j, 0.2]),
    np.array([0.1, 0.2], dtype=object),
    [0.1, None],
], ids=["bool_array", "bool_list", "str", "bytes", "complex", "object", "none"])
def test_ks_statistic_refuses_samples_that_are_not_real(samples):
    # taken before as 0 and 1, parsed, or cut to their real part
    t = build_cdf(ParamSet(a=(0.3,)), 64)
    with pytest.raises(InvalidParameters, match="real numbers"):
        ks_statistic(samples, t)


@pytest.mark.parametrize("samples", [[True, 0.5], (0.5, np.True_), [2, False], [0.1, np.False_, 0.3]])
def test_ks_statistic_refuses_a_bool_among_numbers(samples):
    # numpy converts such a list to floats or ints, the bool to 0 or 1
    t = build_cdf(ParamSet(a=(0.3,)), 64)
    with pytest.raises(InvalidParameters, match="real numbers, got a sequence that holds a bool"):
        ks_statistic(samples, t)


def test_ks_statistic_takes_integer_and_narrow_float_samples():
    t = build_cdf(ParamSet(a=(0.3,)), 64)
    for samples in ([0, 1], np.array([0, 1], np.uint8), np.array([0.0, 1.0], np.float32)):
        assert ks_statistic(samples, t) == ks_statistic(np.array([0.0, 1.0]), t)


def test_ks_statistic_refuses_samples_that_are_not_flat():
    # numpy's "truth value ... ambiguous" ValueError before
    t = build_cdf(ParamSet(a=(0.3,)), 64)
    for samples in (np.zeros((2, 2)), 0.1):
        with pytest.raises(InvalidParameters, match="1-D"):
            ks_statistic(samples, t)


def test_a_cdf_table_with_repeated_knots_is_invalid():
    t = CdfTable(xs=np.array([0.0, 0.0]), Fs=np.array([0.0, 1.0]))
    with pytest.raises(InvalidParameters, match="strictly increasing"):
        t.cdf(0.5)


# --- one workspace per call, with the bits of the former per-block code

def _former_interval(f, q):
    # _MonotoneCubic._interval as it was, with a fresh array per step
    b = q - f._x[0]
    b *= f._scale
    np.fmax(b, 0.0, out=b)
    np.fmin(b, f._top, out=b)
    b = b.astype(np.intp)
    i = f._guide.take(b)
    i += f._next.take(b) <= q
    crowded = np.flatnonzero(f._crowded.take(b))
    if crowded.size:
        i[crowded] = np.searchsorted(f._x[1:-1], np.fmax(q.take(crowded), -np.inf), side="right")
    return i


def _former_cubic(f, q):
    # _MonotoneCubic.__call__ as it was, block by block
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape)
    flat_q, flat_out = q.reshape(-1), out.reshape(-1)
    c0, c1, c2, c3 = f._coef
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, q.size, _BLOCK):
            qk = flat_q[k:k + _BLOCK]
            i = _former_interval(f, qk)
            s = qk - f._x.take(i)
            ss = s * s
            r = c1.take(i)
            r *= s
            r += c0.take(i)
            t = c2.take(i)
            t *= ss
            r += t
            ss *= s
            t = c3.take(i)
            t *= ss
            np.add(r, t, out=flat_out[k:k + _BLOCK])
    return out


def _former_ks_statistic(s, t):
    # ks_statistic as it was, on the former cubic
    s = np.sort(np.asarray(s, dtype=float))
    F = np.clip(_former_cubic(t._cdf, np.clip(s, t.xs[0], t.xs[-1])), 0.0, 1.0)
    steps = np.arange(s.size + 1) / s.size
    return float(max(np.max(steps[1:] - F), np.max(F - steps[:-1])))


# a table whose inverse crowds many knots into its first and last buckets
_CROWDED = _LOOKUP_TABLES[2]


_TABLES = [_CROWDED, build_cdf(ParamSet(a=(0.7, -0.4, 0.2), c=1.3), 1024)]


def _probe(rng, x, n):
    # n points on, between and beyond the knots x, where they crowd, and
    # NaN and infinities
    lo, hi = x[0], x[-1]
    span = hi - lo
    q = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, n)  # inside and outside the table
    q[::5] = rng.choice(x, q[::5].size)  # on the knots
    q[1::7] = rng.uniform(lo, lo + 1e-6 * span, q[1::7].size)  # where the knots crowd
    q[-1] = hi
    q[::11] = np.nan
    q[2::13] = np.inf
    q[3::17] = -np.inf
    return q


@pytest.mark.parametrize("t", _TABLES, ids=["crowded", "spread"])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_monotone_cubic_has_the_bits_of_the_former_block_loop(t, n):
    rng = np.random.default_rng(n)
    for f, x in ((t._cdf, t.xs), (t._inverse, t.Fs)):
        q = _probe(rng, x, n)
        lo, hi = x[0], x[-1]
        _assert_same_bits(f(q), _former_cubic(f, q))
        _assert_same_bits(f(q.reshape(1, n)), _former_cubic(f, q.reshape(1, n)))
        assert np.array_equal(f._interval(q), _former_interval(f, q))
        for p in (q[0], np.array(q[-1]), 0.5 * (lo + hi)):
            _assert_same_bits(f(p), _former_cubic(f, p))


@pytest.mark.parametrize("t", _TABLES, ids=["crowded", "spread"])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK + 1, 10 ** 5 + 3])
def test_monotone_cubic_in_place_has_the_bits_of_the_allocating_call(t, n):
    rng = np.random.default_rng(n)
    for f, x in ((t._cdf, t.xs), (t._inverse, t.Fs)):
        q = _probe(rng, x, n)
        want = _former_cubic(f, q)
        _assert_same_bits(f(q), want)
        for shape in ((n,), (1, n)):
            buf = q.reshape(shape).copy()
            assert f(buf, out=buf) is buf
            _assert_same_bits(buf, want.reshape(shape))
        out = np.full(n, -1.0)
        assert f(q, out=out) is out
        _assert_same_bits(out, want)


_READ_ONLY = np.empty(5)
_READ_ONLY.flags.writeable = False


@pytest.mark.parametrize("out", [np.empty(4), np.empty(5, np.float32), np.empty(10)[::2], [0.0] * 5, _READ_ONLY],
                         ids=["shape", "dtype", "strided", "list", "read_only"])
def test_monotone_cubic_refuses_an_out_it_cannot_fill(out):
    with pytest.raises(InvalidParameters, match="out must be"):
        _TABLES[1]._cdf(np.zeros(5), out=out)


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_sample_and_ks_have_the_bits_of_the_former_block_loop(n):
    for t in (_CROWDED, build_cdf(ParamSet(a=(0.5, -0.3)))):
        u = np.random.Generator(np.random.Philox(key=n)).random(n)
        draws = sample(t, n, seed=n)
        assert np.array_equal(draws, np.clip(_former_cubic(t._inverse, u), t.xs[0], t.xs[-1]))
        for s in (draws, 1.5 * draws, np.zeros(n)):
            assert ks_statistic(s, t) == _former_ks_statistic(s, t)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads glibc's heap behaviour through ru_minflt")
def test_a_million_points_fault_in_few_pages():
    # With glibc's mmap threshold fixed at 128 KiB (as the benchmark fixes
    # it), fresh 64 KiB temporaries per block made glibc grow and trim its
    # heap on every block: about 8 200 minor faults per call, against about
    # 2 100 for the 8 MB result and the one workspace (fewer with huge pages)
    src = str(Path(gkm.__file__).resolve().parents[1])
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from gkm import ParamSet, build_cdf\n"
        "t = build_cdf(ParamSet(a=(0.7, -0.4, 0.2)))\n"
        "u = np.random.default_rng(1).random(10**6)\n"
        "for f, q in ((t.inverse, u), (t.cdf, 2.0 * u - 1.0)):\n"
        "    f(q)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    f(q)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=src, MALLOC_MMAP_THRESHOLD_="131072", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    faults = [int(v) for v in out.stdout.split()]
    assert len(faults) == 2 and max(faults) < 3000, faults


# --- the CDF on sorted points, by runs


def _sorted_probe(rng, x, n, kind):
    # n sorted points of one kind, on or about the knots x
    lo, hi = x[0], x[-1]
    if kind == "uniform":
        q = rng.uniform(lo, hi, n)
    elif kind == "knots":  # every knot, then more knots, repeated
        q = np.resize(x, n)
    elif kind == "repeated":
        q = np.full(n, rng.choice(x[1:-1]) if x.size > 2 else lo)
    elif kind == "one_interval":
        j = rng.integers(0, x.size - 1)
        q = rng.uniform(x[j], x[j + 1], n)
    elif kind == "ends":  # both ends of the table, and just inside them
        q = rng.choice([lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)], n)
    else:  # beyond both ends, as far as infinity
        q = rng.choice([-np.inf, lo - 0.5, hi + 0.5, np.inf, 0.5 * (lo + hi)], n)
    return np.sort(q)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-0.9, 0.9), max_size=5),
    st.sampled_from([1.0, 1.7]),
    st.sampled_from([64, 2048]),
    st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10 ** 5 + 3]),
    st.sampled_from(["uniform", "knots", "repeated", "one_interval", "ends", "beyond"]),
    st.integers(0, 2 ** 32 - 1),
)
def test_the_cubic_on_sorted_points_has_the_bits_of_the_guide_table(a, c, N, n, kind, seed):
    t = build_cdf(ParamSet(a=tuple(a), c=c), N)
    rng = np.random.default_rng(seed)
    for f, x in ((t._cdf, t.xs), (t._inverse, t.Fs)):
        q = _sorted_probe(rng, x, n, kind)
        want = f(q)
        _assert_same_bits(f._sorted(q, np.empty(n)), want)
        assert f._sorted(q, q) is q  # in place, as _ks_sorted calls it
        _assert_same_bits(q, want)


def test_ks_statistic_evaluates_the_cdf_by_runs(monkeypatch):
    # the guide table is for unsorted points; KS has sorted its sample
    t = build_cdf(ParamSet(a=(0.5, -0.3)))
    s = sample(t, 3 * _BLOCK + 7, seed=3)
    want = ks_statistic(s, t)

    def refuse(self, q, out=None):
        raise AssertionError("the guide table was used on sorted points")

    monkeypatch.setattr(type(t._cdf), "__call__", refuse)
    assert ks_statistic(s, t) == want
