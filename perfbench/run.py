"""Benchmark of gkm: one workload per call, each in fresh single-threaded processes.

    python3 perfbench/run.py --workload {verify_all,closed_forms,bulk_arrays} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The parent process builds the seeded
inputs, computes the mpmath references (untimed), times the set-up of
several fresh interpreters, and then starts one worker that runs whole
rounds of the workload for S seconds and checks every output.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a separate traced worker with --trace 1.  It exits nonzero without a
result when the checkout holds no gkm sources or a worker fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# BLAS and OpenMP pools are held to one thread, here and in every worker,
# before numpy is first imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import inputs  # noqa: E402
import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Set-up is timed in SETUP_SAMPLES fresh interpreters that stop after their
# warm-up, each started between two reference interpreters that import only
# the third-party stack gkm stands on.  A sample is divided by the mean of its
# two neighbours and multiplied by REF_INTERP_NOMINAL_S, that reference's
# median time on the machine where the benchmark was defined, so setup_s
# reads in seconds at a fixed host speed.
SETUP_SAMPLES = 3
REF_INTERP_CODE = "import time, numpy, scipy.interpolate, scipy.stats; print(repr(time.perf_counter()))"
REF_INTERP_NOMINAL_S = 1.0
# every child is stopped in time for the whole run to end within 180 s
RUN_LIMIT_S = 170


END_TO_END_UNITS = {"setup_s": "s", "round_ref": "ref", "op_p50_ref": "ref", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def compute_refs(workload: str, inp: dict) -> dict:
    """The mpmath values every check of the workload compares against."""
    if workload == "verify_all":
        return {"sets": [reference.real_set(a, inputs.MOMENT_K, inputs.B_K) for a in inp["sets"]]}
    if workload == "closed_forms":
        real = {}
        for idx in inp["checked"]:
            s = inp["real"][idx]
            r = reference.real_set(s["a"], inputs.MOMENT_K, inputs.B_K)
            r["density"] = reference.real_density(s["a"], 1.0, r["A"], [s["x"]])[0]
            r["density_c"] = reference.real_density(s["a"], s["c"], r["A"], [s["c"] * s["x"]])[0]
            real[idx] = r
        conj = {}
        for idx in inp["checked_conj"]:
            s = inp["conj"][idx]
            r = reference.conj_set(s["rho"], s["y"])
            r["density"] = reference.conj_density(s["rho"], s["y"], r["A"], [s["x"]])[0]
            conj[idx] = r
        cfg = inp["cli"]
        s3 = inp["real"][cfg["eval"]]
        sc = inp["conj"][cfg["conj_eval"]]
        return {
            "real": [real[i] for i in inp["checked"]],
            "conj": [conj[i] for i in inp["checked_conj"]],
            "cli_eval": reference.real_density(s3["a"], 1.0, real[cfg["eval"]]["A"], cfg["eval_x"]),
            "cli_genfun_B": real[cfg["genfun"]]["B"],
            "cli_conj": reference.conj_density(sc["rho"], sc["y"], conj[cfg["conj_eval"]]["A"], cfg["eval_x"]),
        }
    if workload == "bulk_arrays":
        xs = inputs.bulk_points(inp)[inp["check_idx"]].tolist()
        sets = []
        for s in inp["sets"]:
            r = reference.real_set(s["a"], 4, 0)
            sets.append({
                "A": r["A"],
                "moments": r["moments"],
                "density": reference.real_density(s["a"], 1.0, r["A"], xs),
                "cdf": reference.real_cdf(s["a"], r["A"], inputs.CDF_POINTS),
            })
        grid = inputs.cheb_grid(inp["points"])[inp["grid_check_rows"]].tolist()
        return {"sets": sets, "grid_density": reference.real_density(inp["sets"][0]["a"], 1.0, sets[0]["A"], grid)}
    raise ValueError(workload)


def _child_env() -> dict:
    # A fixed mmap threshold keeps glibc from moving freed 8 MB arrays onto
    # the heap after the first round, so the peak resident set does not
    # depend on how many rounds a worker happens to run.
    env = dict(os.environ, PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="131072", **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _time_left(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"the run took longer than {RUN_LIMIT_S} s")
    return left


def ref_interpreter(deadline: float) -> float:
    """Seconds from start to the end of the reference interpreter's imports."""
    launched = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", REF_INTERP_CODE], cwd=ROOT, env=_child_env(),
                          timeout=_time_left(deadline), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"reference interpreter exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip()) - launched


def combine(res: dict, setups: list) -> dict:
    """The end-to-end metrics of a run from the worker's and the set-ups' samples."""
    ok_s = sorted(v for v in res["op_s_all"] if v != math.inf)
    ok_ref = sorted(v for v in res["op_ref_all"] if v != math.inf)
    return dict(
        res,
        setup_s=statistics.median(s["setup_s"] / s["ref_interp_s"] for s in setups) * REF_INTERP_NOMINAL_S,
        round_ref=statistics.median(res["round_ref_all"]),
        op_p50_ref=statistics.median(res["op_ref_all"]),
        # raw figures for README.md, not metrics
        round_s=statistics.median(res["round_s_all"]),
        op_ok_p99_ref=ok_ref[math.ceil(0.99 * len(ok_ref)) - 1],
        op_ok_p99_s=ok_s[math.ceil(0.99 * len(ok_s)) - 1],
        op_ok_p50_s=ok_s[len(ok_s) // 2],
        op_ok_count=len(ok_s),
        setups=setups,
    )


def launch(mode: str, args, workdir: str, out: str, deadline: float, seconds: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--refs", os.path.join(workdir, "refs.json"),
        "--workdir", workdir, "--out", out,
    ]
    launched = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--launch", repr(launched)], cwd=ROOT, env=_child_env(), timeout=_time_left(deadline),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    # on SIGTERM, unwind: subprocess.run then kills and waits for the running
    # child, and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "gkm", "__init__.py")):
        print(f"error: no gkm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # byte-compile once, untimed, so no timed set-up pays for it
    compileall.compile_dir(os.path.join(ROOT, "src", "gkm"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        inp = inputs.make(args.workload, args.seed)
        t0 = time.perf_counter()
        refs = compute_refs(args.workload, inp)
        refs_s = time.perf_counter() - t0
        with open(os.path.join(workdir, "refs.json"), "w") as fh:
            json.dump(refs, fh)
        if args.trace:
            res = launch("trace", args, workdir, os.path.join(workdir, "trace.json"), deadline, args.seconds)
            if os.path.exists(os.path.join(workdir, f"trace_{args.workload}.json")):
                shutil.move(os.path.join(workdir, f"trace_{args.workload}.json"),
                            os.path.join(OUT_DIR, f"trace_{args.workload}.json"))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
        else:
            ref_s = [ref_interpreter(deadline)]
            setups = []
            for i in range(SETUP_SAMPLES):
                setups.append(launch("setup", args, workdir, os.path.join(workdir, f"setup{i}.json"), deadline, 0))
                ref_s.append(ref_interpreter(deadline))
            for i, s in enumerate(setups):
                s["ref_interp_s"] = 0.5 * (ref_s[i] + ref_s[i + 1])
            res = combine(launch("run", args, workdir, os.path.join(workdir, "run.json"), deadline, args.seconds),
                          setups)
            metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = res["problems"]
    out = {
        "correct": not problems,
        "attempted": res["rounds"] * res["ops_per_round"],
        "failed": res["rounds"] * res["failed_per_round"],
        "metrics": metrics,
    }
    detail = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  refs_s=refs_s, result=out)
    for key in ("per_layer", "op_ref_all", "op_s_all"):
        detail.pop(key, None)
    with open(os.path.join(OUT_DIR, f"result_{args.workload}{'_trace' if args.trace else ''}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {res['rounds']} rounds of {res['ops_per_round']} operations, "
          f"{res['failed_per_round']} failing per round; reference loop {res['ref_s'] * 1e3:.3f} ms")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
