import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gkm import ParamSet, _pool, verify
from gkm.errors import InvalidParameters, NonConvergence


def test_draw_params_with_no_parameters_draws_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert verify._draw_params(rng, 0) == ParamSet()
    assert rng.bit_generator.state == before


# --- the suites in forked workers

CONJ_SUITES = verify.CONJ_SUITES


def _report_bytes(suite) -> bytes:
    return (json.dumps(verify.run_verify(suite), indent=2, sort_keys=True) + "\n").encode()


def test_suites_are_submitted_longest_first(monkeypatch):
    submitted = []

    def fake_fork_map(fn, items):
        submitted.append(list(items))
        return map(fn, items)

    monkeypatch.setattr(_pool, "fork_map", fake_fork_map)
    for name in verify.SUITES:
        monkeypatch.setitem(verify._SUITE_FN, name, lambda name=name: verify._Worst().checks({f"{name}/c": 0.0}))
    verify.run_verify(CONJ_SUITES)
    verify.run_verify("all")
    assert submitted == [["trivariate", "conjugate", "markov"], list(verify.SUITES)]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_reports_pinned_to_one_cpu_have_the_bytes_of_forked_workers(monkeypatch):
    # the child is pinned to one CPU, so it takes the serial loop; here, three
    # workers run the suites whatever the number of CPUs
    child = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from gkm import _pool, verify\n"
        "assert _pool.usable_cpus() == 1\n"
        "import json\n"
        "for suite in ('all', %r):\n"
        "    sys.stdout.write(json.dumps(verify.run_verify(suite), indent=2, sort_keys=True) + '\\n')\n"
    ) % (CONJ_SUITES,)
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    pinned = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, check=True).stdout
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 3)
    assert pinned == _report_bytes("all") + _report_bytes(CONJ_SUITES)


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_suite_that_raises_raises_in_the_caller(cpus, monkeypatch):
    def fails():
        raise NonConvergence("evaluation budget exhausted")

    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    monkeypatch.setitem(verify._SUITE_FN, "markov", fails)
    with pytest.raises(NonConvergence, match="evaluation budget exhausted"):
        verify.run_verify(("identities", "markov", "conjugate"))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_a_tolerance_outside_zero_to_infinity_is_invalid(tol, monkeypatch):
    # each check keeps its own tolerance: run_verify takes none, and refuses
    # one, as any other, before any suite runs
    monkeypatch.setitem(verify._SUITE_FN, "identities", _no_suite)
    assert list(inspect.signature(verify.run_verify).parameters) == ["suite"]
    with pytest.raises(TypeError):
        verify.run_verify("identities", tol)


def test_an_unknown_suite_is_invalid():
    with pytest.raises(InvalidParameters, match="unknown suite 'nope'"):
        verify.run_verify(("identities", "nope"))


def test_an_empty_tuple_of_suites_is_invalid():
    # it used to report "pass": true with no check run
    with pytest.raises(InvalidParameters, match="no suite"):
        verify.run_verify(())


def _no_suite():
    raise AssertionError("a suite ran")
