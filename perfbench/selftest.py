"""Tests of the benchmark itself: its references, its checks and its tracer.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

The negative controls run one round of each workload (bulk_arrays on
20 000 points instead of 10^6), then perturb one output by 1e-6 and require
the workload's check to fail.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

gkm = worker.load_gkm()

SMALL_POINTS = 20_000


def _round(workload: str, inp: dict, workdir: str):
    wl = worker.WORKLOAD_CLASSES[workload](gkm, inp, workdir)
    _, results, ok = worker.run_ops(worker._flat(wl.segments()), gkm.errors)
    return wl, wl.keep(results, ok), ok


def _small_bulk(seed: int) -> dict:
    inp = inputs.bulk_arrays(seed)
    inp["points"] = SMALL_POINTS
    inp["check_idx"] = list(range(0, SMALL_POINTS, SMALL_POINTS // 16))
    inp["grid_check_rows"] = list(range(3, SMALL_POINTS, SMALL_POINTS // 16))
    return inp


def test_reference_exact_values():
    # semicircle moments, and A = 1, B_k = a^k, mean a/2 for one parameter
    w = reference.real_set((), 4, 2)
    assert w["A"] == 1.0 and abs(w["moments"][2] - 0.25) < 1e-16 and abs(w["moments"][4] - 0.125) < 1e-16
    r = reference.real_set((0.6,), 2, 5)
    assert abs(r["A"] - 1.0) < 1e-16
    assert all(abs(b - 0.6 ** k) < 1e-16 for k, b in enumerate(r["B"]))
    assert abs(r["moments"][1] - 0.3) < 1e-16
    assert abs(reference.real_cdf((0.0,), 1.0, [0.0])[0] - 0.5) < 1e-16
    # one conjugate pair: A = 1 - rho^2
    assert abs(reference.conj_set((0.5,), (0.3,))["A"] - 0.75) < 1e-16


def test_negative_control_closed_forms():
    inp = inputs.closed_forms(5)
    refs = run.compute_refs("closed_forms", inp)
    with tempfile.TemporaryDirectory() as d:
        wl, kept, ok = _round("closed_forms", inp, d)
        assert sum(not o for o in ok) == 36
        assert wl.check(kept, refs, ok) == []
        bad = copy.deepcopy(kept)
        i = inp["checked"][2] * len(wl._real_ops(*wl.real[0])) + 3 + 2  # moment 2 of a checked set
        assert kept["values"][i] == gkm.core.moment(wl.real[inp["checked"][2]][0], 2)
        bad["values"][i] += 1e-6
        assert wl.check(bad, refs, ok)


def test_negative_control_verify_all():
    inp = inputs.make("verify_all", 0)
    refs = run.compute_refs("verify_all", inp)
    wl, kept, ok = _round("verify_all", inp, None)
    assert wl.check(kept, refs, ok) == []
    bad = copy.deepcopy(kept)
    bad["report"]["checks"][0]["max_residual"] += 1e-6
    assert wl.check(bad, refs, ok)


def test_negative_control_bulk_arrays():
    inp = _small_bulk(3)
    refs = run.compute_refs("bulk_arrays", inp)
    with tempfile.TemporaryDirectory() as d:
        wl, kept, ok = _round("bulk_arrays", inp, d)
        assert all(ok)
        assert wl.check(kept, refs, ok) == []
        bad = copy.deepcopy(kept)
        bad["sets"][1]["series"][4] += 1e-6
        assert wl.check(bad, refs, ok)


def test_tracer_counts_and_restores():
    core, chebyshev, verify = gkm.core, gkm.chebyshev, gkm.verify
    original = core.density
    tr = tracing.Tracer(gkm)
    assert tr.install() > 50
    try:
        assert core.density is not original and gkm.density is core.density
        assert verify.u_all is chebyshev.u_all and core.u_all is chebyshev.u_all
        p = core.ParamSet(a=(0.7, -0.2))
        core.density_series(p, [0.1, 0.2, 0.3])
        try:
            core.moment(core.ParamSet(a=(0.3, 0.3)), 4)
        except gkm.errors.DegenerateParameters:
            pass
        m = tr.metrics(1, 1.0)
    finally:
        tr.uninstall()
    assert core.density is original
    K = core.series_truncation_order(0.7, 1e-10)
    assert m["core.density_series.points"][0] == 3
    assert m["core.density_series.terms"][0] == K + 1
    assert m["chebyshev.u_all.elements"][0] == 3 * (K + 1)
    assert m["core.degenerate_refusals"][0] == 1
    assert m["core.B_prefix.calls"][0] == 1
    names = [tr.names[i] for i in tr.span_name]
    assert names[0] == "core.density_series"
    assert tr.span_parent[names.index("chebyshev.u_all")] == 0


def test_metric_names_match_benchmark_json():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = {k: u for k, (_, u) in tracing.Tracer(gkm).metrics(1, 1.0).items()}
    layer.update({"setup.import_s": "s", "setup.warmup_s": "s"})
    assert layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {name}: {exc!r}")
    sys.exit(1 if failures else 0)
