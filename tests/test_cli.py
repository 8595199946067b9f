import inspect
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gkm import _csvtext, _pool, cli, conjugate, core, orthopoly, sampler, verify
from gkm.cli import SCHEMA_VERSION, main
from gkm.errors import NonConvergence


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


def test_conj_eval_rejects_nan_point(capsys):
    code, out, err = run(capsys, "conj-eval", "--rho", "0.5", "--y", "0.2", "--x", "nan")
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


@pytest.mark.parametrize("command, text, what", [
    ("eval", "{}", "missing key 'a'"),
    ("eval", '{"a": 5}', "'a' must be a list of reals"),
    ("eval", '{"a": [0.2], "c": null}', "'c' must be a real"),
    ("eval", "[0.2]", "expected a JSON object"),
    ("conj-eval", '{"rho": [0.5]}', "missing key 'y'"),
    ("eval", '{"a": [0.2, 0.3], "C": 2}', "unknown key(s) 'C'"),
    ("conj-eval", '{"rho": [0.5], "y": [0.1], "Y": [0.2]}', "unknown key(s) 'Y'"),
])
def test_malformed_params_file_exits_2(tmp_path, capsys, command, text, what):
    f = tmp_path / "p.json"
    f.write_text(text)
    code, out, err = run(capsys, command, "--params-file", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and what in err


@pytest.mark.parametrize("command", ["eval", "conj-eval"])
def test_unreadable_params_file_exits_2(tmp_path, capsys, command):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run(capsys, command, "--params-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: --params-file: cannot read")


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_tol_outside_zero_to_infinity_exits_2(tol, capsys):
    # a usage error, not a report whose checks all fail
    code, out, err = run(capsys, "verify", "--suite", "identities", "--tol", tol)
    assert (code, out) == (2, "")
    assert err.startswith("error: tol must be non-negative and finite")


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


# --- reference for the CSV bytes: a writer that builds the whole text row by row

def _csv(header: list, rows: list) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _grid_rows():
    p = core.ParamSet(a=(0.7, -0.3))
    xs = cli._cheb_grid(p.c, 1001)
    return list(zip(xs.tolist(), np.asarray(core.density(p, xs)).tolist()))


def _sample_rows():
    draws = sampler.sample(sampler.build_cdf(core.ParamSet(a=(0.3, -0.8))), 1001, 7)
    return [(i, float(x)) for i, x in enumerate(draws)]


def _genfun_rows():
    p = core.ParamSet(a=(0.1, 0.2, 0.3, -0.4, 0.55))
    rows = [("Q", j, float(cj)) for j, cj in enumerate(core.Q_poly(p))]
    return rows + [("B", k, float(bk)) for k, bk in enumerate(core.B_prefix(p, 30).values)]


CSV_COMMANDS = {
    "eval": (
        ["eval", "--a", "0.2,-0.5,0.7", "--x=-1,-0.3,0,1e-05,0.1,1"],
        ["x", "density"],
        lambda: [(x, float(core.density(core.ParamSet(a=(0.2, -0.5, 0.7)), x))) for x in (-1.0, -0.3, 0.0, 1e-05, 0.1, 1.0)],
    ),
    "grid": (["grid", "--a", "0.7,-0.3", "--n-points", "1001"], ["x", "density"], _grid_rows),
    "moments": (
        ["moments", "--a", "0.6,-0.1,0.3", "--K", "15"],
        ["k", "moment"],
        lambda: [(k, core.moment(core.ParamSet(a=(0.6, -0.1, 0.3)), k)) for k in range(16)],
    ),
    "poly": (
        ["poly", "--a", "0.2,0.3,-0.6", "--m", "5"],
        ["j", "U_index", "coefficient"],
        lambda: [(j, j, cj) for j, cj in enumerate(orthopoly.P_coeffs(5, core.ParamSet(a=(0.2, 0.3, -0.6))).series.coeffs)],
    ),
    "genfun": (["genfun", "--a", "0.1,0.2,0.3,-0.4,0.55", "--K", "30"], ["kind", "index", "value"], _genfun_rows),
    "sample": (["sample", "--a", "0.3,-0.8", "--n-points", "1001", "--seed", "7"], ["i", "x"], _sample_rows),
    "conj-eval": (
        ["conj-eval", "--rho", "0.5,-0.3", "--y", "0.2,0.9", "--x=-0.5,0,0.25"],
        ["x", "density"],
        lambda: [
            (x, float(conjugate.fM_density(conjugate.ConjParamSet(rho=(0.5, -0.3), y=(0.2, 0.9)), x)))
            for x in (-0.5, 0.0, 0.25)
        ],
    ),
}


@pytest.mark.parametrize("chunk", [None, 4])
@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_csv_bytes_match_row_writer(command, chunk, tmp_path, capsys, monkeypatch):
    if chunk:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    _check_csv_bytes(command, tmp_path, capsys)


@pytest.mark.parametrize("chunk, block", [(None, 64), (250, 100), (1000, 1000)])
@pytest.mark.parametrize("command", ["grid", "sample"])
def test_csv_bytes_match_row_writer_in_numpy_blocks(command, chunk, block, tmp_path, capsys, monkeypatch):
    # blocks shorter than the 1001 rows: grid and sample go through _csvtext,
    # in blocks of that many rows (a 1-row last chunk prints through repr)
    if chunk:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    monkeypatch.setattr(_csvtext, "BLOCK_ROWS", block)
    _check_csv_bytes(command, tmp_path, capsys)


def _check_csv_bytes(command, tmp_path, capsys):
    argv, header, rows = CSV_COMMANDS[command]
    want = _csv(header, rows()).encode()
    out_path = tmp_path / "out.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == want
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == want


def test_write_csv_matches_row_writer_on_mixed_columns(tmp_path, capsys, monkeypatch):
    n = 2 * cli.CSV_CHUNK_ROWS + 3
    values = [1e16, 5e-324, -0.0, 0.1, 1e-05, 1.0, -2.5e-300]
    kinds = [("Q", "B", "x")[i % 3] for i in range(n)]
    floats = [values[i % len(values)] for i in range(n)]
    arr = np.array(floats[::-1])
    want = _csv(["kind", "i", "v", "w"], list(zip(kinds, range(n), floats, arr.tolist()))).encode()
    out_path = tmp_path / "mixed.csv"
    cli._write_csv(str(out_path), ["kind", "i", "v", "w"], kinds, range(n), floats, arr)
    assert out_path.read_bytes() == want
    cli._write_csv(None, ["kind", "i", "v", "w"], kinds, range(n), floats, arr)
    assert capsys.readouterr().out.encode() == want
    # numeric columns only, longer than a block: formatted by _csvtext, in
    # several chunks, with certified values and values left to repr
    ints = np.arange(n) * -7
    want = _csv(["i", "w", "j"], list(zip(range(n), arr.tolist(), ints.tolist()))).encode()
    calls = []
    format_rows = _csvtext.format_rows

    def spy(chunk):
        calls.append(len(chunk[0]))
        return format_rows(chunk)

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(_csvtext, "format_rows", spy)
    cli._write_csv(str(out_path), ["i", "w", "j"], range(n), arr, ints)
    assert out_path.read_bytes() == want
    # the 3-row last chunk is shorter than a block
    assert calls == [cli.CSV_CHUNK_ROWS, cli.CSV_CHUNK_ROWS]


# --- the forked writer against the serial one

def _cpus(monkeypatch, n):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: n)


@pytest.mark.parametrize("chunk", [3, 4, 250])
@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_forked_writer_matches_serial(command, chunk, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    argv = CSV_COMMANDS[command][0]
    got = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out_path = tmp_path / f"{cpus}.csv"
        assert run(capsys, *argv, "--out", str(out_path))[0] == 0
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got[cpus] = (out_path.read_bytes(), out.encode())
    assert got[2] == got[1]
    assert got[1][0] == got[1][1]


@pytest.mark.parametrize("chunk", [5, 64, 4096])
def test_forked_writer_matches_serial_on_mixed_columns(chunk, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    n = 2 * chunk + 3
    values = [1e16, 5e-324, -0.0, 0.1, 1e-05, 1.0, -2.5e-300]
    kinds = [("Q", "B", "x")[i % 3] for i in range(n)]
    floats = [values[i % len(values)] for i in range(n)]
    columns = (kinds, range(n), floats, np.array(floats[::-1]), np.arange(n))
    got = {}
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        out_path = tmp_path / f"{cpus}.csv"
        cli._write_csv(str(out_path), ["kind", "i", "v", "w", "j"], *columns)
        cli._write_csv(None, ["kind", "i", "v", "w", "j"], *columns)
        got[cpus] = (out_path.read_bytes(), capsys.readouterr().out.encode())
    assert got[3] == got[1]
    assert got[1][0] == got[1][1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_csv_to_stdout_follows_the_text_already_written(cpus, tmp_path, monkeypatch):
    # a text layer that holds what was printed before the CSV: it is
    # written out first, and what is printed after follows the CSV
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
    _cpus(monkeypatch, cpus)
    columns = (range(30), np.linspace(-1.0, 1.0, 30))
    out_path = tmp_path / "out.csv"
    cli._write_csv(str(out_path), ["i", "x"], *columns)
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    print("before")
    cli._write_csv(None, ["i", "x"], *columns)
    print("after")
    stdout.flush()
    assert raw.getvalue() == b"before\n" + out_path.read_bytes() + b"after\n"


def test_fork_map_pickles_neither_the_function_nor_the_items(monkeypatch):
    # a lambda and a lock do not pickle; the forked workers inherit them
    _cpus(monkeypatch, 2)
    lock = threading.Lock()
    items = [(lock, i) for i in range(5)]
    assert list(_pool.fork_map(lambda item: item[1] * item[1], items)) == [0, 1, 4, 9, 16]


def _no_pool(*args, **kwargs):
    raise RuntimeError("a process pool was started")


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_one_chunk_starts_no_pool(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_pool._Workers, "fork", _no_pool)
    _cpus(monkeypatch, 4)
    argv = CSV_COMMANDS[command][0] + ["--out", str(tmp_path / "out.csv")]
    assert run(capsys, *argv)[0] == 0
    if command in ("grid", "sample"):
        # the same command over two chunks does start one
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1000)
        with pytest.raises(RuntimeError, match="process pool"):
            main(argv)
        # except to a stdout without a file descriptor, which takes the
        # serial loop
        assert run(capsys, *CSV_COMMANDS[command][0])[0] == 0


def _no_numpy_format(*args, **kwargs):
    raise RuntimeError("the numpy formatter was reached")


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_short_csv_never_reaches_the_numpy_formatter(command, capsys, monkeypatch):
    # every command of fewer rows than one block prints through repr and str
    monkeypatch.setattr(_csvtext, "format_rows", _no_numpy_format)
    argv = CSV_COMMANDS[command][0]
    assert run(capsys, *argv)[0] == 0
    if command in ("grid", "sample"):
        # the same command over one block does reach it
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 1000)
        with pytest.raises(RuntimeError, match="numpy formatter"):
            main(argv)


def test_forked_cli_writes_each_byte_once(tmp_path, monkeypatch):
    # through a real pipe and a real file, a forked worker that flushed a
    # copy of the parent's buffer would repeat the header
    argv = ["grid", "--a", "0.7,-0.4,0.2", "--n-points", "200001"]
    _cpus(monkeypatch, 1)
    serial = tmp_path / "serial.csv"
    assert main(argv + ["--out", str(serial)]) == 0
    want = serial.read_bytes()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-W", "error::DeprecationWarning", "-m", "gkm.cli", *argv]
    piped = subprocess.run(cmd, env=env, capture_output=True, check=True)
    assert piped.stderr == b""
    assert piped.stdout == want
    forked = tmp_path / "forked.csv"
    subprocess.run(cmd + ["--out", str(forked)], env=env, capture_output=True, check=True)
    assert forked.read_bytes() == want


# --- the forked workers write their own chunks, taking turns

# _write_csv in a fresh interpreter, with three forked workers whatever the
# machine: 20 rows of `i` in chunks of 4 rows, to the file argv[1] or to
# stdout for "-"; the chunk starting at row argv[2] raises on reading
_WRITER = """
import sys
from gkm import _pool, cli

class Column:
    def __len__(self):
        return 20

    def __getitem__(self, rows):
        if rows.start == int(sys.argv[2]):
            raise ValueError(f"chunk at row {rows.start} cannot be read")
        return range(rows.start, min(rows.stop, 20))

_pool.usable_cpus = lambda: 3
cli.CSV_CHUNK_ROWS = 4
try:
    cli._write_csv(None if sys.argv[1] == "-" else sys.argv[1], ["i"], Column())
except ValueError as exc:
    print(exc, file=sys.stderr)
"""


def _run_python(code: str, *args: str):
    """The (stdout, stderr) of code run by a fresh interpreter; it and its
    workers are killed, and the test fails, if it has not finished within a
    minute."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        return proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        pytest.fail("the forked writer hung")


def _rows(stop: int) -> bytes:
    return f"# schema_version={SCHEMA_VERSION}\ni\n".encode() + b"".join(b"%d\n" % i for i in range(stop))


@pytest.mark.parametrize("bad_row", [0, 8, 16])
def test_a_failed_chunk_raises_and_no_later_chunk_is_written(bad_row, tmp_path):
    out_path = tmp_path / "out.csv"
    out, err = _run_python(_WRITER, str(out_path), str(bad_row))
    assert err.decode() == f"chunk at row {bad_row} cannot be read\n"
    assert out_path.read_bytes() == _rows(bad_row)
    out, err = _run_python(_WRITER, "-", str(bad_row))
    assert err.decode() == f"chunk at row {bad_row} cannot be read\n"
    assert out == _rows(bad_row)


def test_forked_chunks_to_a_pipe_and_a_file_have_the_serial_bytes(tmp_path):
    out_path = tmp_path / "out.csv"
    assert _run_python(_WRITER, str(out_path), "-1") == (b"", b"")
    assert out_path.read_bytes() == _rows(20)
    assert _run_python(_WRITER, "-", "-1") == (_rows(20), b"")


def test_fork_write_writes_in_item_order_whatever_finishes_first():
    # more workers than CPUs, and the later an item, the sooner it is made
    code = (
        "import sys, time\n"
        "from gkm import _pool\n"
        "_pool.usable_cpus = lambda: 8\n"
        "_pool.fork_write(sys.stdout.buffer, lambda i: (time.sleep(0.004 * (24 - i)), b'%d;' % i)[1], range(24))\n"
    )
    assert _run_python(code) == (b"".join(b"%d;" % i for i in range(24)), b"")


def test_stdout_without_a_file_descriptor_takes_the_serial_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
    columns = (range(30), np.linspace(-1.0, 1.0, 30))
    out_path = tmp_path / "out.csv"
    cli._write_csv(str(out_path), ["i", "x"], *columns)

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(_pool._Workers, "fork", _no_pool)
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
    cli._write_csv(None, ["i", "x"], *columns)
    assert raw.getvalue() == out_path.read_bytes()


def test_write_csv_prints_numpy_scalars_in_lists_as_numbers(capsys):
    cli._write_csv(None, ["v", "k"], [np.float64(0.1), 0.25], [np.int64(3), 4])
    assert capsys.readouterr().out == f"# schema_version={SCHEMA_VERSION}\nv,k\n0.1,3\n0.25,4\n"


def test_conj_verify_writes_the_conjugate_suites_report(tmp_path, capsys):
    out_path = tmp_path / "conj.json"
    code, out, _ = run(capsys, "conj-verify", "--out", str(out_path))
    assert code == 0 and out == ""
    report = verify.run_verify(("conjugate", "markov", "trivariate"))
    assert out_path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_sample_without_out_writes_its_sidecar_to_stderr(capsys):
    code, out, err = run(capsys, "sample", "--a", "0.3,-0.5", "--n-points", "400", "--seed", "3")
    assert code == 0
    sidecar = json.loads(err)
    table = sampler.build_cdf(core.ParamSet(a=(0.3, -0.5)))
    draws = sampler.sample(table, 400, 3)
    assert out.splitlines()[2:] == [f"{i},{x!r}" for i, x in enumerate(draws.tolist())]
    assert sidecar["ks_statistic"] == sampler.ks_statistic(draws, table)
    assert sidecar["ks_pass_1pct"] is sampler._ks_pass(sampler.ks_statistic(draws, table), 400)


@pytest.mark.parametrize("argv", [
    ["moments", "--a", "0.3", "--K", "-1"],
    ["genfun", "--a", "0.3,0.5", "--K", "-3"],
])
def test_negative_prefix_length_exits_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "non-negative" in err


# one process, one parser: each command in turn, passing, failing in the
# command (exit 2) and failing in the parser (SystemExit 2)
MIXED_SEQUENCE = [
    ["verify", "--suite", "genfun"],
    ["conj-verify"],
    ["genfun", "--a", "0.1,0.2,0.3,-0.4,0.55", "--K", "12"],
    ["moments", "--a", "0.3,0.3"],
    ["eval", "--a", "0.2", "--bogus"],
    ["sample", "--a", "0.3,-0.8", "--n-points", "500", "--seed", "7"],
]


def _outcomes(capsys, sequence):
    got = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        got.append((code, captured.out.encode(), captured.err.encode()))
    return got


def test_main_reuses_one_parser_with_the_bytes_of_a_fresh_one(capsys, monkeypatch):
    cached = _outcomes(capsys, MIXED_SEQUENCE)
    assert cli._parser() is cli._parser()
    assert [o[0] for o in cached] == [0, 0, 0, 2, ("SystemExit", 2), 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert _outcomes(capsys, MIXED_SEQUENCE) == cached


def test_conj_verify_suite_default_does_not_leak_into_verify(capsys):
    parser = cli._parser()
    assert parser.parse_args(["conj-verify"]).suite == verify.CONJ_SUITES
    assert parser.parse_args(["verify"]).suite == "all"
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "identities"
    assert {c["check"].split("/")[0] for c in report["checks"]} == {"identities"}


def test_build_parser_returns_a_new_parser_each_call():
    # a plain function, so a tracer or a mock can wrap it like any other
    assert inspect.isfunction(cli.build_parser)
    assert cli.build_parser() is not cli.build_parser()


def test_main_calls_a_command_rebound_after_the_parser_was_built(capsys, monkeypatch):
    cli._parser()
    seen = []
    genfun = cli.cmd_genfun

    def traced(args):
        seen.append(args.K)
        return genfun(args)

    monkeypatch.setattr(cli, "cmd_genfun", traced)
    code, out, _ = run(capsys, "genfun", "--a", "0.2,0.3", "--K", "4")
    assert code == 0 and seen == [4]
    assert out.splitlines()[1] == "kind,index,value"


# --- grid chunks compute their own points; sample sorts its own draws

@pytest.mark.parametrize("c", [1.0, 1.7])
@pytest.mark.parametrize("n", [2, 257, 65_537, 200_001])
def test_grid_chunks_have_the_bytes_of_the_whole_grid(n, c, tmp_path, monkeypatch):
    # the former path: the whole grid and its densities, then the CSV
    p = core.ParamSet(a=(0.7, -0.4, 0.2), c=c)
    xs = c * np.cos(np.pi * (1.0 - np.arange(n) / (n - 1)))
    want_path = tmp_path / "whole.csv"
    cli._write_csv(str(want_path), ["x", "density"], xs, core.density(p, xs))
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out_path = tmp_path / f"grid-{cpus}.csv"
        assert main(["grid", "--a", "0.7,-0.4,0.2", "--c", str(c), "--n-points", str(n), "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == want_path.read_bytes()


@pytest.mark.parametrize("n", ["257", "200001"])
def test_grid_errors_come_before_any_output(n, tmp_path, capsys, monkeypatch):
    def fails(p):
        raise NonConvergence("evaluation budget exhausted")

    monkeypatch.setattr(core, "normalizer", fails)
    out_path = tmp_path / "grid.csv"
    code, out, err = run(capsys, "grid", "--a", "0.3", "--n-points", n, "--out", str(out_path))
    assert (code, out, err) == (2, "", "error: evaluation budget exhausted\n")
    assert not out_path.exists()
    assert run(capsys, "grid", "--a", "0.3", "--n-points", n) == (2, "", "error: evaluation budget exhausted\n")


def test_sample_sidecar_has_the_bits_of_ks_statistic_on_a_copy(tmp_path, monkeypatch):
    # several sweep blocks and CSV chunks, written by forked workers
    _cpus(monkeypatch, 2)
    p = core.ParamSet(a=(0.5, -0.3))
    table = sampler.build_cdf(p)
    draws = sampler.sample(table, 150_001, 7)
    d = sampler.ks_statistic(draws, table)
    out_path = tmp_path / "sample.csv"
    assert main(["sample", "--a", "0.5,-0.3", "--n-points", "150001", "--seed", "7", "--out", str(out_path)]) == 0
    sidecar = {
        "schema_version": SCHEMA_VERSION, "params": {"a": [0.5, -0.3], "c": 1.0}, "seed": 7, "count": 150_001,
        "ks_statistic": d, "ks_pass_1pct": sampler._ks_pass(d, 150_001),
    }
    assert (tmp_path / "sample.csv.json").read_text() == json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    assert out_path.read_text().splitlines()[2:] == [f"{i},{x!r}" for i, x in enumerate(draws.tolist())]
