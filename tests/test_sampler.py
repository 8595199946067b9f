import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import gkm
from gkm import CdfTable, ParamSet, build_cdf, ks_statistic, moment, sample
from gkm.oracle import integrate_weighted
from gkm.sampler import KS_CRIT_99, ks_passes


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


def test_cdf_requires_minimum_grid():
    with pytest.raises(ValueError):
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
    assert ks_passes(draws, t)


def test_ks_detects_point_mass():
    t = build_cdf(ParamSet(), 512)
    assert ks_statistic(np.zeros(1000), t) == pytest.approx(0.5, abs=1e-6)


def test_ks_detects_mismatched_parameters():
    t_pos = build_cdf(ParamSet(a=(0.6,)), 2048)
    t_neg = build_cdf(ParamSet(a=(-0.6,)), 2048)
    draws = sample(t_pos, 10_000, seed=10)
    assert ks_statistic(draws, t_neg) * np.sqrt(len(draws)) > 10.0 * KS_CRIT_99


def test_import_does_not_load_scipy_interpolate():
    # PchipInterpolator is imported when a table is first evaluated
    src = str(Path(gkm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for mod in ("gkm", "gkm.cli"):
        code = f"import sys, {mod}; print('scipy.interpolate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False", mod


def test_lazy_interpolators_give_the_same_draws_and_cdf():
    # against PchipInterpolator built directly on the table, as sampler did
    # with its module-level import
    p = ParamSet(a=(0.7, -0.4, 0.2), c=1.3)
    t = build_cdf(p, 1024)
    u = np.random.Generator(np.random.Philox(key=99)).random(20_000)
    want = np.clip(PchipInterpolator(t.Fs, t.xs)(u), t.xs[0], t.xs[-1])
    assert np.array_equal(sample(t, 20_000, seed=99), want)
    x = np.linspace(-1.3, 1.3, 1001)
    assert np.array_equal(t.cdf(x), PchipInterpolator(t.xs, t.Fs)(x))
