import json

import pytest

from gkm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--a", "0.2,0.3", "--x", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "x,density"
    x, d = lines[2].split(",")
    assert float(x) == 0.5
    assert float(d) == pytest.approx(0.7809661870049495)


def test_eval_rejects_bad_parameter(capsys):
    code, _, err = run(capsys, "eval", "--a", "0.2,1.5", "--x", "0")
    assert code == 2
    assert "a_2" in err


def test_eval_rejects_nan_point(capsys):
    code, out, err = run(capsys, "eval", "--a", "0.2", "--x", "nan")
    assert code == 2
    assert out == ""
    assert "outside" in err


def test_params_file_rejects_nan(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"a": [float("nan"), 0.2]}))  # written as NaN, which json.loads accepts
    code, out, err = run(capsys, "eval", "--params-file", str(f), "--x", "0.0")
    assert code == 2
    assert out == ""
    assert "a_1" in err


def test_moments(capsys):
    code, out, _ = run(capsys, "moments", "--a", "0.6", "--K", "1")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert float(rows[0].split(",")[1]) == pytest.approx(1.0)
    assert float(rows[1].split(",")[1]) == pytest.approx(0.3)


def test_poly(capsys):
    code, out, _ = run(capsys, "poly", "--a", "0.2,0.3", "--m", "2")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[2:]]
    assert [float(r[2]) for r in rows] == pytest.approx([0.06, -0.5, 1.0])


def test_genfun(capsys):
    code, out, _ = run(capsys, "genfun", "--a", "0.1,0.2,0.3", "--K", "3")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[2:]]
    q = [float(r[2]) for r in rows if r[0] == "Q"]
    assert q == pytest.approx([1.0, -0.006], abs=1e-12)
    b = [float(r[2]) for r in rows if r[0] == "B"]
    assert b[0] == pytest.approx(1.0)


def test_grid(capsys):
    code, out, _ = run(capsys, "grid", "--a", "0.4", "--n-points", "9")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 9
    assert float(rows[0].split(",")[1]) == 0.0
    assert float(rows[-1].split(",")[1]) == 0.0


def test_params_file(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"c": 1.0, "a": [0.5]}))
    code, out, _ = run(capsys, "eval", "--params-file", str(f), "--x", "0.0")
    assert code == 0
    assert float(out.strip().splitlines()[-1].split(",")[1]) == pytest.approx(0.5092958178940651)


def test_verify_suite(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "normalization", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == 1
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert run(capsys, "verify", "--suite", "identities", "--out", str(p1))[0] == 0
    assert run(capsys, "verify", "--suite", "identities", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_tol_override_fails(capsys):
    # an impossible tolerance must flip the exit status
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--tol", "0")
    assert code == 1


def test_sample(tmp_path, capsys):
    out_path = tmp_path / "draws.csv"
    code, _, _ = run(
        capsys, "sample", "--a", "0.3", "--n-points", "500", "--seed", "11", "--out", str(out_path)
    )
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "# schema_version=1"
    assert len(rows) == 502
    sidecar = json.loads((tmp_path / "draws.csv.json").read_text())
    assert sidecar["seed"] == 11
    assert sidecar["count"] == 500
    assert sidecar["params"] == {"c": 1.0, "a": [0.3]}


def test_sample_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run(capsys, "sample", "--a", "0.3", "--n-points", "200", "--seed", "5", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_conj_eval(capsys):
    code, out, _ = run(capsys, "conj-eval", "--rho", "0.5", "--y", "0.2", "--x", "0.0")
    assert code == 0
    got = float(out.strip().splitlines()[-1].split(",")[1])
    from gkm import ConjParamSet, fM_density

    assert got == pytest.approx(fM_density(ConjParamSet(rho=(0.5,), y=(0.2,)), 0.0))


def test_conj_eval_rejects_bad_rho(capsys):
    code, _, err = run(capsys, "conj-eval", "--rho", "1.2", "--y", "0.0", "--x", "0")
    assert code == 2
    assert "rho_1" in err


def test_conj_eval_rejects_unpaired_rho(capsys):
    code, _, err = run(capsys, "conj-eval", "--rho", "0.5,0.2", "--y", "0.1", "--x", "0")
    assert code == 2
    assert "same length" in err
