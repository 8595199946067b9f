"""Mutation controls: each row patches one closed form, runs the suite that
checks it, and requires the named check to fail.  A NaN row needs the worst
residual to keep a NaN, which max() drops.  Each finite size is the
smallest of 1e-12, 1e-10, ..., 1e-2 that the check catches, relative but
for the absolute U_2 coefficient of P_4; sizes are only ever lowered.
Reference: DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978.
"""

import json
import math

import numpy as np
import pytest

from gkm import _pool, cli, conjugate, core, orthopoly, verify

NAN = float("nan")


def _wrap(monkeypatch, module, name, mutate):
    """Replace module.name by f(*args) -> mutate(args, real(*args))."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: mutate(args, real(*args)))


def _moment_3(scale):
    return lambda mp: _wrap(mp, core, "moment", lambda args, v: v * scale if args[1] == 3 else v)


def _A_special_6(scale):
    return lambda mp: _wrap(mp, core, "A_special", lambda args, v: v * scale if args[0].n == 6 else v)


def _B_where(picked, scale):
    """B_k scaled at each index k of the array ks where picked(ks) holds."""
    def mutate(args, values):
        values[picked(args[1])] *= scale
        return values

    return lambda mp: _wrap(mp, core, "_B_values", mutate)


def _B_7(scale):
    return _B_where(lambda ks: ks == 7, scale)


def _runtime_A(scale):
    # the kept normalizer every density reads, replaced by a property, which
    # takes precedence over a value kept in the instance
    def mutate(mp):
        real = core.ParamSet._A.func
        mp.setattr(core.ParamSet, "_A", property(lambda p: real(p) * scale))

    return mutate


def _density_above_half(scale):
    return lambda mp: _wrap(mp, core, "density", lambda args, v: v * np.where(np.asarray(args[1]) > 0.5, scale, 1.0))


def _scaled(module, name, scale):
    return lambda mp: _wrap(mp, module, name, lambda args, v: v * scale)


def _gram_3_1(mp):
    _wrap(mp, orthopoly, "gram", lambda args, v: NAN if args[:2] == (3, 1) else v)


def _one_density_value(mp):
    # the middle value of the first array of densities the suite asks for
    done = []

    def mutate(args, v):
        if np.ndim(v) and not done:
            done.append(True)
            v[v.size // 2] = NAN
        return v

    _wrap(mp, core, "density", mutate)


def _P_4_U_2(mp):
    def mutate(args, P):
        if args[0] != 4:
            return P
        coeffs = list(P.series.coeffs)
        coeffs[2] += 1e-10
        return orthopoly.OrthoPoly(P.m, orthopoly.USeries(coeffs))

    _wrap(mp, orthopoly, "_build_P", mutate)


NAN_ROWS = {
    "moment_3": ("genfun", "moments/closed_vs_quadrature", _moment_3(NAN)),
    "gram_3_1": ("orthogonality", "orthogonality/gram_offdiagonal", _gram_3_1),
    "density_value": ("normalization", "normalization/positivity", _one_density_value),
    "B_7": ("identities", "identities/B3_homogeneous_relation", _B_7(NAN)),
    "A_special_6": ("normalization", "normalization/A_special_vs_closed/n=6", _A_special_6(NAN)),
}

FINITE_ROWS = {
    "B_7_1e-12": ("identities", "identities/B3_homogeneous_relation", _B_7(1.0 + 1e-12)),
    "A_special_6_1e-10": ("normalization", "normalization/A_special_vs_closed/n=6", _A_special_6(1.0 + 1e-10)),
    "P_4_U_2_1e-10": ("orthogonality", "orthogonality/three_term_recurrence", _P_4_U_2),
    "moment_3_1e-8": ("genfun", "moments/closed_vs_quadrature", _moment_3(1.0 + 1e-8)),
    "A2k_closed_1e-8": ("conjugate", "conjugate/A2k_closed_vs_numeric", _scaled(conjugate, "A2k_closed", 1.0 + 1e-8)),
    "runtime_A_1e-8": ("genfun", "genfun/series_vs_product_density", _runtime_A(1.0 + 1e-8)),
    "density_above_half_1e-12": ("normalization", "normalization/scaling_law", _density_above_half(1.0 + 1e-12)),
    "B_from_30_1e-8": ("genfun", "genfun/B_vs_generating_function", _B_where(lambda ks: ks >= 30, 1.0 + 1e-8)),
    "f2M_1e-6": ("markov", "markov/bivariate_normalization", _scaled(conjugate, "f2M", 1.0 + 1e-6)),
    "g3_1e-6": ("trivariate", "trivariate/density_marginal", _scaled(conjugate, "g3", 1.0 + 1e-6)),
    "wigner_density_1e-6": ("conjugate", "conjugate/wigner_marginal", _scaled(conjugate, "wigner_density", 1.0 + 1e-6)),
}


def _record(report, check):
    (record,) = [c for c in report["checks"] if c["check"] == check]
    return record


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("suite, check, mutate", NAN_ROWS.values(), ids=NAN_ROWS)
def test_a_nan_residual_fails_its_check(suite, check, mutate, cpus, monkeypatch):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    mutate(monkeypatch)
    # with a second suite the two run in forked workers on three CPUs
    report = verify.run_verify(suite if cpus == 1 else (suite, "markov"))
    record = _record(report, check)
    assert math.isnan(record["max_residual"])
    assert record["pass"] is False and report["pass"] is False


@pytest.mark.parametrize("suite, check, mutate", FINITE_ROWS.values(), ids=FINITE_ROWS)
def test_a_finite_mutation_fails_its_check(suite, check, mutate, monkeypatch):
    assert _record(verify.run_verify(suite), check)["pass"] is True
    mutate(monkeypatch)
    record = _record(verify.run_verify(suite), check)
    assert record["max_residual"] > record["tol"] and record["pass"] is False


def test_verify_exits_1_and_prints_nan_for_a_nan_residual(tmp_path, monkeypatch):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 3)
    _moment_3(NAN)(monkeypatch)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--suite", "genfun", "--out", str(out)]) == 1
    text = out.read_text()
    assert '"max_residual": NaN' in text
    assert _record(json.loads(text), "moments/closed_vs_quadrature")["pass"] is False


# --- the accumulator

@pytest.mark.parametrize("residuals", [(NAN, 1.0, 2.0), (1.0, NAN, 2.0), (1.0, 2.0, NAN)],
                         ids=["first", "middle", "last"])
def test_a_nan_residual_stays_wherever_it_is_seen(residuals):
    w = verify._Worst()
    for r in residuals:
        w.see("c", r)
    (record,) = w.checks({"c": 3.0})
    assert math.isnan(record["max_residual"]) and record["pass"] is False


def test_the_worst_residual_is_the_largest_and_a_tie_keeps_the_first():
    w = verify._Worst()
    for r in (0.5, np.float64(2.0), 1.0):
        w.see("c", r)
    # as at a positivity check whose minimum is 0.0: -0.0 ties, and the
    # report keeps 0.0
    w.see("zero", 0.0)
    w.see("zero", -0.0)
    big, zero = w.checks({"c": 2.0, "zero": 0.0})
    assert big == {"check": "c", "max_residual": 2.0, "tol": 2.0, "pass": True}
    assert type(big["max_residual"]) is float
    assert math.copysign(1.0, zero["max_residual"]) == 1.0 and zero["pass"] is True


def test_a_check_that_sees_nothing_reports_zero():
    assert verify._Worst().checks({"c": 0.0}) == [{"check": "c", "max_residual": 0.0, "tol": 0.0, "pass": True}]


def test_a_residual_under_a_name_without_tolerance_is_refused():
    w = verify._Worst()
    w.see("typo", 1.0)
    with pytest.raises(KeyError, match="typo"):
        w.checks({"c": 0.0})
