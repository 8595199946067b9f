"""Command-line surface: evaluation, verification, and sampling with file I/O.

Output formats
--------------
CSV outputs begin with the comment line ``# schema_version=1`` followed by a
header row; verify reports and sample sidecars are JSON objects carrying the
same ``schema_version`` field.  Every run is fully determined by its flags
(plus the fixed internal seeds), so re-running a command byte-reproduces its
outputs.

Every float prints as `repr` prints it and every integer as `str` does.
A chunk of CSV_BLOCK_ROWS (1920) rows or more whose columns are all float64
or integer arrays or ranges (`grid`, `sample`) is formatted by numpy, in
blocks of rows (see `gkm._csvtext`): each float is either certified to
have repr's digits or printed by `repr` itself, so the bytes are the same.
Shorter chunks and other columns (every other command) print value by
value with `repr` and `str`.

A CSV longer than CSV_CHUNK_ROWS (65 536) rows is formatted by one forked
process per usable CPU; `verify` and `conj-verify` run their suites on such
processes too, which take the suites' indices from a pipe written whole
before they fork (see `gkm.verify`).  A CSV worker reads the columns from
the memory it inherited (`grid`'s workers compute each chunk's points and
densities themselves) and formats every w-th chunk of w workers; it writes
each chunk's bytes itself to the output's file descriptor once its turn
comes through a ring of pipes, after the chunks before it are written (see
`gkm._pool.fork_write`, which takes the binary stream: the file's, or
`sys.stdout.buffer` once the text layer is flushed).  The bytes are those
of fork_write's serial loop, which handles outputs of one chunk, one usable
CPU, platforms without `fork`, and a `sys.stdout` without a file descriptor
(one in memory).  There is no setting for either.

Exit status is 0 on success and, for verify commands, 0 iff every check in
the report passed; flag/validation problems exit with status 2.

`main` parses with one parser per process, built on its first call; parsing
leaves a parser unchanged, so every call sees the same flags and defaults.
`build_parser` returns a new parser on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import _pool, conjugate, core, orthopoly, sampler, verify

SCHEMA_VERSION = verify.SCHEMA_VERSION

# rows of a CSV output formatted and written at once
CSV_CHUNK_ROWS = 1 << 16
# the fewest rows of a chunk of numeric columns that numpy formats; a
# shorter chunk prints each value with repr or str
CSV_BLOCK_ROWS = 1920


class ValidationError(ValueError):
    """A flag parsed but violated a parameter constraint."""


def _floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated reals, got {text!r}")


def _read_params_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"--params-file: cannot read {path!r}: {exc.strerror}")


def _parse_real_params(args) -> core.ParamSet:
    if args.params_file:
        return core.ParamSet.from_json(_read_params_file(args.params_file))
    a = _floats(args.a, "--a") if args.a else ()
    return core.ParamSet(a=a, c=args.c)


def _parse_conj_params(args) -> conjugate.ConjParamSet:
    if args.params_file:
        return conjugate.ConjParamSet.from_json(_read_params_file(args.params_file))
    rho = _floats(args.rho, "--rho") if args.rho else ()
    y = _floats(args.y, "--y") if args.y else ()
    if not rho:
        # an empty ConjParamSet is valid, but no command has a use for it
        raise ValidationError("conjugate commands need --rho/--y or --params-file")
    return conjugate.ConjParamSet(rho=rho, y=y)


def _emit(text: str, out: str | None, stream) -> None:
    """Write text to the file `out`, or to `stream` without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        stream.write(text)


def _column_text(col):
    # every cell prints with str; repr gives a float the same text, faster
    if isinstance(col, np.ndarray):
        return map(repr if col.dtype == np.float64 else str, col.tolist())
    return map(str, col)


def _format_rows(chunk):
    """CSV text of the rows of equal-length column slices, one line each,
    as ASCII bytes (bytes, or the uint8 array of `_csvtext.format_rows`).
    A numpy column is converted with `.tolist()`: its elements print as
    Python numbers.  A chunk of CSV_BLOCK_ROWS rows or more whose columns
    are all float64 or integer arrays or ranges is formatted by
    `_csvtext.format_rows` instead, with the same bytes."""
    if len(chunk[0]) >= CSV_BLOCK_ROWS:
        # loaded by the first output this long, so the other commands and
        # `import gkm.cli` do without it
        from . import _csvtext

        if all(map(_csvtext.supported, chunk)):
            return _csvtext.format_rows(chunk)
    return ("\n".join(map(",".join, zip(*map(_column_text, chunk)))) + "\n").encode()


def _write_csv(out: str | None, header: list, *columns) -> None:
    """Write a CSV file (stdout without `out`) from equal-length columns
    (see `_write_chunks`)."""
    _write_chunks(out, header, len(columns[0]), lambda lo: [col[lo:lo + CSV_CHUNK_ROWS] for col in columns])


def _write_chunks(out: str | None, header: list, n: int, chunk_columns) -> None:
    """Write a CSV file (stdout without `out`) of n rows, CSV_CHUNK_ROWS at a
    time, as bytes, through `_pool.fork_write` (see the module docstring):
    chunk_columns(lo) gives the equal-length columns of rows lo up to
    lo + CSV_CHUNK_ROWS, and is called by the process that formats them."""
    if out:
        fh = open(out, "wb")
    else:
        # what is already written to the text layer goes first
        sys.stdout.flush()
        fh = sys.stdout.buffer
    try:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n{','.join(header)}\n".encode())
        _pool.fork_write(fh, lambda lo: _format_rows(chunk_columns(lo)), range(0, n, CSV_CHUNK_ROWS))
    finally:
        if out:
            fh.close()


def _cheb_grid(c: float, npts: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Points lo up to hi (npts without it) of the npts-point extrema grid,
    c cos(pi (1 - i / (npts - 1))): denser near the endpoints, where the
    density has square-root behavior.  Each point depends only on its
    index i, so a span has the bits of the same points of the whole grid."""
    return c * np.cos(np.pi * (1.0 - np.arange(lo, npts if hi is None else hi) / (npts - 1)))


def cmd_eval(args) -> int:
    p = _parse_real_params(args)
    xs = _floats(args.x, "--x") if args.x else (0.0,)
    _write_csv(args.out, ["x", "density"], xs, [float(core.density(p, x)) for x in xs])
    return 0


def cmd_grid(args) -> int:
    p = _parse_real_params(args)
    n = args.n_points
    if n < 2:
        raise ValidationError("--n-points must be at least 2")
    # A is computed before --out is opened, so its errors come before any
    # output and the chunks' workers inherit it
    core.normalizer(p)

    def chunk_columns(lo):
        xs = _cheb_grid(p.c, n, lo, min(lo + CSV_CHUNK_ROWS, n))
        return [xs, core.density(p, xs)]

    _write_chunks(args.out, ["x", "density"], n, chunk_columns)
    return 0


def cmd_moments(args) -> int:
    p = _parse_real_params(args)
    if args.K < 0:
        raise ValidationError("--K must be non-negative")
    ks = range(args.K + 1)
    _write_csv(args.out, ["k", "moment"], ks, [core.moment(p, k) for k in ks])
    return 0


def cmd_poly(args) -> int:
    p = _parse_real_params(args)
    coeffs = orthopoly.P_coeffs(args.m, p).series.coeffs
    js = range(len(coeffs))
    _write_csv(args.out, ["j", "U_index", "coefficient"], js, js, coeffs)
    return 0


def cmd_genfun(args) -> int:
    p = _parse_real_params(args)
    q = core.Q_poly(p).tolist()
    B = core.B_prefix(p, args.K).values.tolist()
    kinds = ["Q"] * len(q) + ["B"] * len(B)
    _write_csv(args.out, ["kind", "index", "value"], kinds, [*range(len(q)), *range(len(B))], q + B)
    return 0


def cmd_verify(args) -> int:
    report = verify.run_verify(args.suite)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out, sys.stdout)
    return 0 if report["pass"] else 1


def cmd_sample(args) -> int:
    p = _parse_real_params(args)
    table = sampler.build_cdf(p)
    draws = sampler.sample(table, args.n_points, args.seed)
    _write_csv(args.out, ["i", "x"], range(len(draws)), draws)
    # the draws are written: the KS statistic sorts them in place, where
    # ks_statistic would sort a copy
    draws.sort()
    d = sampler._ks_sorted(draws, table)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "params": json.loads(p.to_json()),
        "seed": args.seed,
        "count": args.n_points,
        "ks_statistic": d,
        "ks_pass_1pct": sampler._ks_pass(d, args.n_points),
    }
    text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out and args.out + ".json", sys.stderr)
    return 0


def cmd_conj_eval(args) -> int:
    p = _parse_conj_params(args)
    xs = _floats(args.x, "--x") if args.x else (0.0,)
    _write_csv(args.out, ["x", "density"], xs, [float(conjugate.fM_density(p, x)) for x in xs])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the gkm command line."""
    parser = argparse.ArgumentParser(
        prog="gkm",
        description="Generalized Kesten-McKay densities: evaluation, verification, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, conj=False):
        if conj:
            sp.add_argument("--rho", help="comma-separated rho_1,...,rho_k (|rho_i| < 1)")
            sp.add_argument("--y", help="comma-separated y_1,...,y_k (|y_i| <= 1)")
        else:
            sp.add_argument("--a", help="comma-separated a_1,...,a_n (|a_i| < 1)")
            sp.add_argument("--c", type=float, default=1.0, help="support half-width (> 0)")
        sp.add_argument("--params-file", help="JSON parameter file")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("eval", help="density values at given points")
    common(sp)
    sp.add_argument("--x", help="comma-separated evaluation points")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("grid", help="density over a Chebyshev-extrema grid")
    common(sp)
    sp.add_argument("--n-points", type=int, default=257)
    sp.set_defaults(fn=cmd_grid)

    sp = sub.add_parser("moments", help="raw moments up to order K")
    common(sp)
    sp.add_argument("--K", type=int, default=12)
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("poly", help="orthogonal polynomial U-basis coefficients")
    common(sp)
    sp.add_argument("--m", type=int, required=True, help="polynomial degree")
    sp.set_defaults(fn=cmd_poly)

    sp = sub.add_parser("genfun", help="generating-function numerator and B prefix")
    common(sp)
    sp.add_argument("--K", type=int, default=20, help="B-prefix length")
    sp.set_defaults(fn=cmd_genfun)

    sp = sub.add_parser("verify", help="run a self-verification suite")
    sp.add_argument("--suite", default="all", choices=("all",) + verify.SUITES)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sample", help="inverse-transform draws with KS sidecar")
    common(sp)
    sp.add_argument("--n-points", type=int, default=10000, help="number of draws")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("conj-eval", help="conjugate-pair density values")
    common(sp, conj=True)
    sp.add_argument("--x", help="comma-separated evaluation points")
    sp.set_defaults(fn=cmd_conj_eval)

    sp = sub.add_parser("conj-verify", help="conjugate-branch suites only")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(fn=cmd_verify, suite=verify.CONJ_SUITES)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one gkm command (sys.argv[1:] without `argv`) and return its exit
    status.  Every call in a process parses with the same parser, built on
    the first call."""
    args = _parser().parse_args(argv)
    # the command as this module binds it now, not as it was when the parser
    # was built: a wrapper installed since then (a tracer, a test) is called
    fn = globals()[args.fn.__name__]
    try:
        return fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
