"""Command-line surface: evaluation, verification, and sampling with file I/O.

Output formats
--------------
CSV outputs begin with the comment line ``# schema_version=1`` followed by a
header row; verify reports and sample sidecars are JSON objects carrying the
same ``schema_version`` field.  Every run is fully determined by its flags
(plus the fixed internal seeds), so re-running a command byte-reproduces its
outputs.

Exit status is 0 on success and, for verify commands, 0 iff every check in
the report passed; flag/validation problems exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import conjugate, core, orthopoly, sampler, verify

SCHEMA_VERSION = 1

# rows of a CSV output formatted and written at once
CSV_CHUNK_ROWS = 1 << 16

_CONJ_SUITES = ("conjugate", "markov", "trivariate")


class ValidationError(ValueError):
    """A flag parsed but violated a parameter constraint."""


def _floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated reals, got {text!r}")


def _parse_real_params(args) -> core.ParamSet:
    if args.params_file:
        with open(args.params_file) as fh:
            return core.ParamSet.from_json(fh.read())
    a = _floats(args.a, "--a") if args.a else ()
    return core.ParamSet(a=a, c=args.c)


def _parse_conj_params(args) -> conjugate.ConjParamSet:
    if args.params_file:
        with open(args.params_file) as fh:
            return conjugate.ConjParamSet.from_json(fh.read())
    rho = _floats(args.rho, "--rho") if args.rho else ()
    y = _floats(args.y, "--y") if args.y else ()
    if not rho:
        # an empty ConjParamSet is valid, but no command has a use for it
        raise ValidationError("conjugate commands need --rho/--y or --params-file")
    return conjugate.ConjParamSet(rho=rho, y=y)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(v) -> str:
    return f"{v!r}" if isinstance(v, float) else f"{v}"


def _write_csv(out: str | None, header: list, *columns) -> None:
    """Write a CSV file (stdout without `out`) from equal-length columns,
    formatting and writing CSV_CHUNK_ROWS rows at a time.  A numpy column is
    converted chunk by chunk with `.tolist()`: its elements print as Python
    numbers."""
    fh = open(out, "w") if out else sys.stdout
    try:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n{','.join(header)}\n")
        for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = [col[lo:lo + CSV_CHUNK_ROWS] for col in columns]
            cells = [map(_cell, c.tolist() if isinstance(c, np.ndarray) else c) for c in chunk]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    finally:
        if out:
            fh.close()


def _cheb_grid(c: float, npts: int) -> np.ndarray:
    # extrema grid: denser near the endpoints where the density has
    # square-root behavior
    return c * np.cos(np.pi * (1.0 - np.arange(npts) / (npts - 1)))


def cmd_eval(args) -> int:
    p = _parse_real_params(args)
    xs = _floats(args.x, "--x") if args.x else (0.0,)
    _write_csv(args.out, ["x", "density"], xs, [float(core.density(p, x)) for x in xs])
    return 0


def cmd_grid(args) -> int:
    p = _parse_real_params(args)
    if args.n_points < 2:
        raise ValidationError("--n-points must be at least 2")
    xs = _cheb_grid(p.c, args.n_points)
    _write_csv(args.out, ["x", "density"], xs, core.density(p, xs))
    return 0


def cmd_moments(args) -> int:
    p = _parse_real_params(args)
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


def _run_report(suites, tol, out) -> int:
    if suites == "all" or suites in verify.SUITES:
        report = verify.run_verify(suites, tol)
    else:
        # a fixed sub-collection: assemble with the same schema
        sub = [verify.run_verify(s, tol) for s in suites]
        checks = sorted((c for r in sub for c in r["checks"]), key=lambda c: c["check"])
        report = {
            "schema_version": verify.SCHEMA_VERSION,
            "suite": "+".join(suites),
            "pass": all(c["pass"] for c in checks),
            "checks": checks,
        }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)
    return 0 if report["pass"] else 1


def cmd_verify(args) -> int:
    return _run_report(args.suite, args.tol, args.out)


def cmd_conj_verify(args) -> int:
    return _run_report(_CONJ_SUITES, args.tol, args.out)


def cmd_sample(args) -> int:
    p = _parse_real_params(args)
    table = sampler.build_cdf(p)
    draws = sampler.sample(table, args.n_points, args.seed)
    _write_csv(args.out, ["i", "x"], range(len(draws)), draws)
    d = sampler.ks_statistic(draws, table)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "params": json.loads(p.to_json()),
        "seed": args.seed,
        "count": args.n_points,
        "ks_statistic": d,
        "ks_pass_1pct": bool(d * np.sqrt(args.n_points) < sampler.KS_CRIT_99),
    }
    text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out + ".json", "w") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)
    return 0


def cmd_conj_eval(args) -> int:
    p = _parse_conj_params(args)
    xs = _floats(args.x, "--x") if args.x else (0.0,)
    _write_csv(args.out, ["x", "density"], xs, [float(conjugate.fM_density(p, x)) for x in xs])
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--tol", type=float, default=None, help="override every check tolerance")
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
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(fn=cmd_conj_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
