"""One workload in one fresh, single-threaded interpreter.

    python3 perfbench/worker.py --mode {setup,run,trace} --workload W --seed N
        --seconds S --launch T --refs FILE --workdir DIR --out FILE

Every mode first sets up: import gkm, build the inputs and make one warm-up
call of every operation kind.
setup: report the set-up time and stop.
run:   one untimed full-size round if the warm-up used small inputs, then
       whole rounds of the workload until --seconds have passed, with the reference loop timed around
       every segment; then the checks against the mpmath references and the
       method's properties.
trace: one untraced round, then the tracer is installed and rounds run as in
       `run`; their outputs must match the untraced round's byte for byte.

--launch is the parent's time.perf_counter() just before it started this
process (the clock is system-wide on Linux), so set-up time includes the
interpreter's own start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

perf = time.perf_counter
T_START = perf()

import inputs  # noqa: E402  (after T_START: the import time counts as set-up)
import refloop  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class OpFailed(Exception):
    """A CLI command exited with a nonzero status."""


def _digest(value) -> str:
    """A byte-exact fingerprint of one operation's result."""
    import numpy as np

    h = hashlib.sha1()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(repr((v.dtype.str, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, dict):
            h.update(json.dumps(v, indent=2, sort_keys=True).encode())
        elif hasattr(v, "__dataclass_fields__"):
            h.update(type(v).__name__.encode())
            for name in v.__dataclass_fields__:
                feed(getattr(v, name))
        elif isinstance(v, BaseException):
            h.update(f"{type(v).__name__}:{v}".encode())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def _file_digest(path: str) -> str:
    h = hashlib.sha1()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_csv(path: str):
    """(schema line, header, rows as lists of strings)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], lines[1], [ln.split(",") for ln in lines[2:]]


def _normwise(got, want) -> float:
    """max |got - want| / max |want|.  Next to x = +-1 the density vanishes
    like sqrt(1 - x^2) and is ill-conditioned in x, so a pointwise relative
    error there measures the rounding of x, not the method."""
    return max(abs(g - w) for g, w in zip(got, want)) / max(abs(w) for w in want)


class Problems(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)

    def close(self, got, want, tol: float, what: str, rel: bool = False) -> None:
        if got is None:  # the operation failed; `failed` counts it
            return
        scale = max(1.0, abs(want)) if not rel else abs(want)
        err = abs(got - want)
        if not (err <= tol * scale):
            self.append(f"{what}: got {got!r}, want {want!r} (error {err:.3g}, tol {tol:g}{' rel' if rel else ''})")


# --- workloads ---------------------------------------------------------------
#
# Each workload gives the operations of one round as (kind, callable) pairs.
# The callables look gkm functions up through their modules at call time, so
# the tracer's wrappers see every call.  A round is the same list every time.


class VerifyAll:
    small_warmup = False  # the warm-up is a full-size round

    def __init__(self, g, inp, workdir):
        self.g = g
        self.inp = inp

    def segments(self):
        verify = self.g.verify
        return [[("run_verify", lambda: verify.run_verify("all"))]]

    def warmup_ops(self):
        return self.segments()[0]

    def outputs(self, results):
        return [_digest(r) for r in results]

    def keep(self, results, ok):
        return {"report": results[0]}

    def check(self, kept, refs, ok):
        g = self.g
        core = g.core
        pb = Problems()
        report = kept["report"]
        pb.expect(report["pass"] is True, "verify report does not pass")
        failing = [c["check"] for c in report["checks"] if not c["pass"]]
        pb.expect(not failing, f"failing checks: {failing}")
        for c in report["checks"]:
            pb.expect(c["pass"] == (c["max_residual"] <= c["tol"]), f"{c['check']}: pass flag contradicts {c}")
        suite_of = {"moments": "genfun"}
        seen = {suite_of.get(c["check"].split("/", 1)[0], c["check"].split("/", 1)[0]) for c in report["checks"]}
        missing = set(g.verify.SUITES) - seen
        pb.expect(not missing, f"suites without checks: {sorted(missing)}")
        for a, ref in zip(self.inp["sets"], refs["sets"]):
            p = core.ParamSet(a=a)
            pb.close(core.normalizer(p), ref["A"], 1e-10, f"A{a}", rel=True)
            for k in range(len(ref["moments"])):
                pb.close(core.moment(p, k), ref["moments"][k], 1e-10, f"moment{a}[{k}]")
            for k in range(len(ref["B"])):
                pb.close(core.B_coeff(p, k), ref["B"][k], 1e-10, f"B{a}[{k}]")
        return pb


class ClosedForms:
    small_warmup = False  # the warm-up calls every kind at full size

    def __init__(self, g, inp, workdir):
        self.g = g
        self.inp = inp
        self.workdir = workdir
        core, conjugate = g.core, g.conjugate
        self.real = [(core.ParamSet(a=s["a"]), core.ParamSet(a=s["a"], c=s["c"]), s) for s in inp["real"]]
        self.conj = [(conjugate.ConjParamSet(rho=s["rho"], y=s["y"]), s) for s in inp["conj"]]
        self.gram_pairs = [(m, k) for m in range(inputs.P_M + 1) for k in sorted({0, max(m - 1, 0), m})]

    def _real_ops(self, p, pc, s):
        core, orthopoly = self.g.core, self.g.orthopoly
        x, c = s["x"], s["c"]
        K, BK = inputs.MOMENT_K, inputs.B_K
        ops = [
            ("density", lambda: core.density(p, x)),
            ("density_c", lambda: core.density(pc, c * x)),
            ("normalizer", lambda: core.normalizer(p)),
        ]
        ops += [("moment", lambda k=k: core.moment(p, k)) for k in range(K + 1)]
        ops += [
            ("B_prefix", lambda: core.B_prefix(p, BK)),
            ("B_from_genfun", lambda: core.B_from_genfun(p, BK)),
        ]
        ops += [("inner_UU", lambda k=k, m=m: core.inner_UU(p, k, m)) for k, m in inputs.INNER_PAIRS]
        ops += [("P_coeffs", lambda m=m: orthopoly.P_coeffs(m, p)) for m in range(inputs.P_M + 1)]
        ops += [("gram", lambda m=m, k=k: orthopoly.gram(m, k, p)) for m, k in self.gram_pairs]
        return ops

    def _cli(self, name, argv):
        cli = self.g.cli
        path = os.path.join(self.workdir, f"{name}.csv")
        argv = argv + ["--out", path]

        def op():
            code = cli.main(argv)
            if code != 0:
                raise OpFailed(f"gkm {argv[0]} exited with status {code}")
            return path

        return (f"cli.{name}", op)

    def _cli_ops(self):
        cfg = self.inp["cli"]
        real = self.inp["real"]
        a3 = "--a=" + _floats(real[cfg["eval"]]["a"])
        a6 = "--a=" + _floats(real[cfg["genfun"]]["a"])
        conj = self.inp["conj"][cfg["conj_eval"]]
        return [
            self._cli("eval", ["eval", a3, "--x=" + _floats(cfg["eval_x"])]),
            self._cli("moments", ["moments", a3, "--K", str(inputs.MOMENT_K)]),
            self._cli("poly", ["poly", a3, "--m", "3"]),
            self._cli("genfun", ["genfun", a6, "--K", str(inputs.B_K)]),
            self._cli("conj_eval", ["conj-eval", "--rho=" + _floats(conj["rho"]), "--y=" + _floats(conj["y"]),
                                    "--x=" + _floats(cfg["eval_x"])]),
            self._cli("moments_coincident", ["moments", "--a=" + _floats(real[cfg["moments_coincident"]]["a"]),
                                             "--K", str(inputs.MOMENT_K)]),
        ]

    def segments(self):
        conjugate = self.g.conjugate
        segs = []
        for i, (p, pc, s) in enumerate(self.real):
            if i % inputs.SETS_PER_N == 0:  # one segment per n, then one of the coincident sets
                segs.append([])
            segs[-1] += self._real_ops(p, pc, s)
        last = []
        for q, s in self.conj:
            last += [
                ("fM_density", lambda q=q, x=s["x"]: conjugate.fM_density(q, x)),
                ("A2k_closed", lambda q=q: conjugate.A2k_closed(q)),
            ]
        segs.append(last + self._cli_ops())
        return segs

    def warmup_ops(self):
        first = {}
        for kind, fn in _flat(self.segments()):
            first.setdefault(kind, (kind, fn))
        return list(first.values())

    def outputs(self, results):
        return [_file_digest(r) if isinstance(r, str) else _digest(r) for r in results]

    def keep(self, results, ok):
        kept = {"values": [r if o else None for r, o in zip(results, ok)]}
        for (kind, _), r, o in zip(_flat(self.segments()), results, ok):
            if kind.startswith("cli.") and o:
                kept[kind] = _read_csv(r)
        return kept

    def check(self, kept, refs, ok):
        pb = Problems()
        vals = iter(kept["values"])
        K, BK = inputs.MOMENT_K, inputs.B_K
        per_set = []
        for idx, (p, pc, s) in enumerate(self.real):
            v = {kind: [] for kind in ("density", "density_c", "normalizer", "moment", "B_prefix", "B_from_genfun",
                                       "inner_UU", "P_coeffs", "gram")}
            for kind, _ in self._real_ops(p, pc, s):
                v[kind].append(next(vals))
            per_set.append(v)
            tag = f"set {idx} a={s['a']}"
            mom = v["moment"]
            if mom[0] is not None:
                pb.close(mom[0], 1.0, 1e-12, f"{tag}: moment 0")
            if s["symmetric"]:
                for k in range(1, K + 1, 2):
                    if mom[k] is not None:
                        pb.close(mom[k], 0.0, 1e-12, f"{tag}: odd moment {k} of a symmetric set")
            for kind in ("B_prefix", "B_from_genfun"):
                if v[kind][0] is not None:
                    pb.close(v[kind][0].values[0], 1.0, 1e-12, f"{tag}: {kind} B_0")
            if p.n <= 6 and v["B_prefix"][0] is not None and v["B_from_genfun"][0] is not None:
                err = float(max(abs(v["B_prefix"][0].values - v["B_from_genfun"][0].values)))
                pb.expect(err <= 1e-11, f"{tag}: B_prefix and B_from_genfun differ by {err:.3g}")
            for (m, k), gmk in zip(self.gram_pairs, v["gram"]):
                if gmk is None:
                    continue
                if k < m and p.n <= 2 * m + 2:
                    pb.close(gmk, 0.0, 1e-9, f"{tag}: gram({m},{k})")
                if k == m:
                    pb.expect(gmk > 0.0, f"{tag}: gram({m},{m}) = {gmk!r} is not positive")
            d, dc = v["density"][0], v["density_c"][0]
            if d is not None and dc is not None:
                pb.close(dc, d / s["c"], 1e-12, f"{tag}: scaling law in c", rel=True)
        for idx, ref in zip(self.inp["checked"], refs["real"]):
            v, s = per_set[idx], self.inp["real"][idx]
            tag = f"set {idx} a={s['a']} vs mpmath"
            pb.close(v["normalizer"][0], ref["A"], 1e-10, f"{tag}: A", rel=True)
            pb.close(v["density"][0], ref["density"], 1e-10, f"{tag}: density", rel=True)
            pb.close(v["density_c"][0], ref["density_c"], 1e-10, f"{tag}: density at c", rel=True)
            for k, want in enumerate(ref["moments"]):
                if v["moment"][k] is not None:
                    pb.close(v["moment"][k], want, 1e-10, f"{tag}: moment {k}")
            for kind, tol in (("B_prefix", 1e-10), ("B_from_genfun", 1e-9)):
                if v[kind][0] is not None:
                    for k, want in enumerate(ref["B"]):
                        pb.close(float(v[kind][0].values[k]), want, tol, f"{tag}: {kind} B_{k}")
        conj_vals = list(vals)[: 2 * len(self.conj)]
        for idx, ref in zip(self.inp["checked_conj"], refs["conj"]):
            tag = f"conjugate set {idx} vs mpmath"
            pb.close(conj_vals[2 * idx], ref["density"], 1e-10, f"{tag}: fM_density", rel=True)
            pb.close(conj_vals[2 * idx + 1], ref["A"], 1e-10, f"{tag}: A2k_closed", rel=True)
        self._check_cli(kept, refs, per_set, pb)
        return pb

    def _check_cli(self, kept, refs, per_set, pb):
        cfg = self.inp["cli"]
        schema = "# schema_version=1"
        expect = {
            "cli.eval": ("x,density", len(cfg["eval_x"])),
            "cli.moments": ("k,moment", inputs.MOMENT_K + 1),
            "cli.poly": ("j,U_index,coefficient", None),
            "cli.genfun": ("kind,index,value", None),
            "cli.conj_eval": ("x,density", len(cfg["eval_x"])),
            "cli.moments_coincident": ("k,moment", inputs.MOMENT_K + 1),
        }
        for kind, (header, nrows) in expect.items():
            if kind not in kept:
                continue
            line0, line1, rows = kept[kind]
            pb.expect(line0 == schema and line1 == header, f"{kind}: header {line0!r}, {line1!r}")
            if nrows is not None:
                pb.expect(len(rows) == nrows, f"{kind}: {len(rows)} rows, want {nrows}")
        if "cli.eval" in kept:
            ref = refs["cli_eval"]
            for row, want in zip(kept["cli.eval"][2], ref):
                pb.close(float(row[1]), want, 1e-10, f"cli.eval x={row[0]}", rel=True)
        if "cli.moments" in kept:
            mom = per_set[cfg["moments"]]["moment"]
            got = [float(r[1]) for r in kept["cli.moments"][2]]
            pb.expect(got == mom, "cli.moments differs from core.moment")
        if "cli.poly" in kept:
            coeffs = per_set[cfg["poly"]]["P_coeffs"][3].series.coeffs
            got = tuple(float(r[2]) for r in kept["cli.poly"][2])
            pb.expect(got == coeffs, "cli.poly differs from orthopoly.P_coeffs")
        if "cli.genfun" in kept:
            b = [float(r[2]) for r in kept["cli.genfun"][2] if r[0] == "B"]
            pb.expect(len(b) == inputs.B_K + 1, f"cli.genfun: {len(b)} B rows")
            for k, (got, want) in enumerate(zip(b, refs["cli_genfun_B"])):
                pb.close(got, want, 1e-10, f"cli.genfun B_{k}")
        if "cli.conj_eval" in kept:
            for row, want in zip(kept["cli.conj_eval"][2], refs["cli_conj"]):
                pb.close(float(row[1]), want, 1e-10, f"cli.conj_eval x={row[0]}", rel=True)


class BulkArrays:
    small_warmup = True  # the warm-up runs on 4096 points

    def __init__(self, g, inp, workdir, npoints=None):
        self.g = g
        self.inp = inp
        self.workdir = workdir
        self.npoints = npoints or inp["points"]
        self.xs = inputs.bulk_points(inp, self.npoints)
        self.sets = [(g.core.ParamSet(a=s["a"]), s) for s in inp["sets"]]

    def segments(self):
        return [[op] for op in self._ops()]

    def _ops(self):
        core, sampler, cli = self.g.core, self.g.sampler, self.g.cli
        xs, n = self.xs, self.npoints
        ops = []
        for p, s in self.sets:
            box = {}

            def draw(p=p, box=box, seed=s["sample_seed"]):
                box["table"] = sampler.build_cdf(p)
                box["draws"] = sampler.sample(box["table"], n, seed)
                return box["draws"]

            ops += [
                ("density", lambda p=p: core.density(p, xs)),
                ("density_series", lambda p=p: core.density_series(p, xs)),
                ("build_cdf+sample", draw),
                # the last operation of a set empties its box, so no array
                # outlives its round and raises the next round's peak
                ("ks_statistic", lambda box=box: sampler.ks_statistic(box.pop("draws"), box.pop("table"))),
            ]
        a0 = "--a=" + _floats(self.sets[0][1]["a"])
        grid = os.path.join(self.workdir, "grid.csv")
        draws = os.path.join(self.workdir, "sample.csv")

        def cli_op(argv, path):
            def op():
                code = cli.main(argv + ["--out", path])
                if code != 0:
                    raise OpFailed(f"gkm {argv[0]} exited with status {code}")
                return path
            return op

        ops += [
            ("cli.grid", cli_op(["grid", a0, "--n-points", str(n)], grid)),
            ("cli.sample", cli_op(["sample", a0, "--n-points", str(n), "--seed", str(inputs.CLI_SAMPLE_SEED)], draws)),
        ]
        return ops

    def warmup_ops(self):
        return BulkArrays(self.g, self.inp, self.workdir, inputs.WARMUP_POINTS)._ops()

    def outputs(self, results):
        out = []
        for r in results:
            if isinstance(r, str):
                out.append(_file_digest(r) + _file_digest(r + ".json") if r.endswith("sample.csv") else _file_digest(r))
            else:
                out.append(_digest(r))
        return out

    def keep(self, results, ok):
        import numpy as np

        idx = np.asarray(self.inp["check_idx"])
        cdf_x = np.asarray(inputs.CDF_POINTS)
        kept = {"sets": []}
        for i in range(len(self.sets)):
            dens, series, draws, _ = results[4 * i : 4 * i + 4]
            kept["sets"].append({
                "density": dens[idx].tolist(),
                "series": series[idx].tolist(),
                "ecdf": (np.searchsorted(np.sort(draws), cdf_x, side="right") / draws.size).tolist(),
                "mean": float(np.mean(draws)),
                "var": float(np.var(draws)),
                "count": int(draws.size),
            })
        return kept

    def check(self, kept, refs, ok):
        import numpy as np

        pb = Problems()
        n = self.npoints
        # DKW: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2); eps at probability 1e-9
        eps = math.sqrt(math.log(2.0 / 1e-9) / (2.0 * n))
        for i, (got, ref) in enumerate(zip(kept["sets"], refs["sets"])):
            tag = f"set {i} a={self.sets[i][1]['a']}"
            for name, tol in (("density", 1e-10), ("series", 1e-9)):
                err = _normwise(got[name], ref["density"])
                pb.expect(err <= tol, f"{tag}: {name} vs mpmath normwise relative error {err:.3g} > {tol:g}")
            dev = max(abs(g - w) for g, w in zip(got["ecdf"], ref["cdf"]))
            pb.expect(dev <= eps, f"{tag}: empirical CDF off mpmath CDF by {dev:.3g} > DKW {eps:.3g}")
            m1, m2, m3, m4 = ref["moments"][1:5]
            var = m2 - m1 * m1
            mu4 = m4 - 4 * m3 * m1 + 6 * m2 * m1 * m1 - 3 * m1 ** 4
            se_mean = math.sqrt(var / n)
            se_var = math.sqrt(max(mu4 - var * var, 0.0) / n)
            pb.expect(abs(got["mean"] - m1) <= 5 * se_mean, f"{tag}: sample mean {got['mean']} vs {m1} (5 se {5 * se_mean:.3g})")
            pb.expect(abs(got["var"] - var) <= 5 * se_var, f"{tag}: sample variance {got['var']} vs {var} (5 se {5 * se_var:.3g})")
            pb.expect(got["count"] == n, f"{tag}: {got['count']} draws, want {n}")
        grid = os.path.join(self.workdir, "grid.csv")
        data = np.loadtxt(grid, delimiter=",", skiprows=2)
        with open(grid) as fh:
            head = [fh.readline().rstrip("\n"), fh.readline().rstrip("\n")]
        pb.expect(head == ["# schema_version=1", "x,density"], f"cli.grid header {head}")
        pb.expect(data.shape == (n, 2), f"cli.grid shape {data.shape}, want ({n}, 2)")
        rows = np.asarray(self.inp["grid_check_rows"])
        pb.expect(bool(np.all(np.abs(data[rows, 0] - inputs.cheb_grid(n)[rows]) <= 1e-15)),
                  "cli.grid points are not the Chebyshev extrema")
        err = _normwise(data[rows, 1], refs["grid_density"])
        pb.expect(err <= 1e-10, f"cli.grid density vs mpmath normwise relative error {err:.3g}")
        draws = os.path.join(self.workdir, "sample.csv")
        sdata = np.loadtxt(draws, delimiter=",", skiprows=2)
        pb.expect(sdata.shape == (n, 2), f"cli.sample shape {sdata.shape}, want ({n}, 2)")
        pb.expect(bool(np.all(sdata[:, 0] == np.arange(n))), "cli.sample index column")
        with open(draws + ".json") as fh:
            side = json.load(fh)
        pb.expect(side.get("ks_pass_1pct") is True, f"cli.sample sidecar: {side}")
        pb.expect(side.get("count") == n, "cli.sample sidecar count")
        return pb


WORKLOAD_CLASSES = {"verify_all": VerifyAll, "closed_forms": ClosedForms, "bulk_arrays": BulkArrays}


# --- rounds --------------------------------------------------------------------


def _flat(segments):
    return [op for seg in segments for op in seg]


def run_ops(ops, errors):
    """(durations, results, ok) of one pass over the operations."""
    durs = []
    results = []
    ok = []
    for _, fn in ops:
        s = perf()
        try:
            r = fn()
            good = True
        except (errors.GKMError, OpFailed) as exc:
            r = exc
            good = False
        durs.append(perf() - s)
        results.append(r)
        ok.append(good)
    return durs, results, ok


def run_round(segments, errors, ref):
    """One round; the reference loop is timed before the first segment and
    after each one, outside the timed segments."""
    gaps = [ref.measure()]
    seg_s, durs, results, ok = [], [], [], []
    for seg in segments:
        t0 = perf()
        d, r, o = run_ops(seg, errors)
        seg_s.append(perf() - t0)
        gaps.append(ref.measure())
        durs.append(d)
        results += r
        ok += o
    return {"seg_s": seg_s, "durs": durs, "ok": ok, "gaps": gaps}, results


def measure(wl, segments, errors, ref, seconds, base_outputs=None, after_round=None):
    """Whole rounds until `seconds` have passed."""
    rounds = []
    kept = None
    mismatched = 0
    start = perf()
    while True:
        rnd, results = run_round(segments, errors, ref)
        outputs = wl.outputs(results)
        if kept is None:
            kept = (wl.keep(results, rnd["ok"]), rnd["ok"])
            if base_outputs is None:
                base_outputs = outputs
        if outputs != base_outputs:
            mismatched += 1
        del results
        if after_round is not None:
            after_round()
        rounds.append(rnd)
        if perf() - start >= seconds:
            break
    return {"rounds": rounds, "kept": kept, "mismatched": mismatched}


def summarize(m):
    """Round and operation times in ref: each round is divided by the median
    of the reference loop's measurements around its segments, which follows
    the host's drift from round to round without the noise of any single
    measurement."""
    round_ref = []
    op_ref = []
    op_s = []
    gaps_all = []
    for rnd in m["rounds"]:
        gaps_all += rnd["gaps"]
        ref = statistics.median(rnd["gaps"])
        round_ref.append(sum(rnd["seg_s"]) / ref)
        for durs in rnd["durs"]:
            op_ref += [d / ref for d in durs]
            op_s += durs
    ok = [good for rnd in m["rounds"] for good in rnd["ok"]]
    first = m["rounds"][0]
    return {
        "rounds": len(m["rounds"]),
        "ops_per_round": len(first["ok"]),
        "failed_per_round": sum(1 for good in first["ok"] if not good),
        "ref_s": statistics.median(gaps_all),
        "round_ref_all": round_ref,
        "round_s_all": [sum(r["seg_s"]) for r in m["rounds"]],
        "gaps_all": [r["gaps"] for r in m["rounds"]],
        "seg_s_all": [r["seg_s"] for r in m["rounds"]],
        # a failed operation misses any latency limit: it ranks above every success
        "op_ref_all": [v if good else math.inf for v, good in zip(op_ref, ok)],
        "op_s_all": [v if good else math.inf for v, good in zip(op_s, ok)],
    }


def load_gkm():
    """Import gkm and its nine layer modules from the checkout's src/."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gkm
    import gkm.chebyshev, gkm.cli, gkm.conjugate, gkm.core, gkm.errors  # noqa: E401
    import gkm.oracle, gkm.orthopoly, gkm.sampler, gkm.symfun, gkm.verify  # noqa: E401

    if not os.path.abspath(gkm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gkm was imported from {gkm.__file__}, not from {SRC}")
    return gkm


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--refs")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    t_import = T_START
    gkm = load_gkm()
    t_inputs = perf()
    inp = inputs.make(args.workload, args.seed)
    wl = WORKLOAD_CLASSES[args.workload](gkm, inp, args.workdir)
    segments = wl.segments()
    t_warm = perf()
    run_ops(wl.warmup_ops(), gkm.errors)
    t_end = perf()
    result = {
        "setup_s": t_end - args.launch,
        "import_s": t_inputs - t_import,
        "warmup_s": t_end - t_warm,
    }
    if args.mode == "setup":
        return _write(args.out, result)
    with open(args.refs) as fh:
        refs = json.load(fh)
    ref = refloop.RefLoop(args.workload)
    ref.once()

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        t0 = perf()
        _, results, _ = run_ops(_flat(segments), gkm.errors)
        result["untraced_round_s"] = perf() - t0
        base_outputs = wl.outputs(results)
        del results
        tracer = tracing.Tracer(gkm)
        tracer.add_span("setup.import", t_import, t_inputs)
        tracer.add_span("setup.warmup", t_warm, t_end)
        result["wrapped_functions"] = tracer.install()

        def stop_recording():
            tracer.recording = False

        m = measure(wl, segments, gkm.errors, ref, args.seconds, base_outputs, stop_recording)
        tracer.uninstall()
    else:
        if wl.small_warmup:
            # a process's first full-size round differs from later ones
            run_ops(_flat(segments), gkm.errors)
        m = measure(wl, segments, gkm.errors, ref, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(summarize(m))
    kept, ok = m["kept"]
    problems = wl.check(kept, refs, ok)
    if m["mismatched"]:
        problems.append(f"{m['mismatched']} rounds produced outputs that differ from the first round's")
    result["problems"] = list(problems)
    if tracer is not None:
        layer = tracer.metrics(len(m["rounds"]), result["ref_s"])
        layer["setup.import_s"] = (result["import_s"], "s")
        layer["setup.warmup_s"] = (result["warmup_s"], "s")
        result["per_layer"] = layer
        with open(os.path.join(os.path.dirname(args.out), f"trace_{args.workload}.json"), "w") as fh:
            json.dump(tracer.spans(), fh)
    return _write(args.out, result)


def _write(path, result) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
