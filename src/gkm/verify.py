"""Self-verification suites: every closed form against its independent check.

Each suite runs over a deterministic set of parameter draws (fixed seeds)
and produces one record per check with its tolerance and its worst
residual over the draws: the largest one seen, except that a NaN, once
seen, stays, and fails its check (it prints as `NaN` in the JSON report,
and `gkm verify` exits 1); a check that sees no residual reports 0.0.  The
records are assembled into a JSON-ready report.  Two consecutive runs
produce byte-identical reports.

`run_verify` runs the suites in forked worker processes, one per usable
CPU, which take the suites longest first, one at a time, from a pipe that
holds every suite's index before they start, and send their checks back on
pipes of their own (see `gkm._pool.fork_map`); it sorts the checks by name,
so the report has the bytes of a run on one CPU.  With one usable CPU,
without `os.fork`, or for one suite, the suites run in the calling process
one after another; only then does a profiler or tracer in that process see
their calls (pin it to one CPU, e.g. with `taskset -c 0`, to trace them).
"""

from __future__ import annotations

import numpy as np

from . import _pool, conjugate, core, oracle, orthopoly, sampler
from .errors import InvalidParameters
from .chebyshev import _u_sums, gauss_chebU_rule, u_all
from .symfun import delta_all, elementary_all

SCHEMA_VERSION = 1


class _Worst:
    """The worst residual of each check, by name (see the module docstring)."""

    def __init__(self):
        self.worst = {}

    def see(self, name: str, residual) -> None:
        r, w = float(residual), self.worst.get(name, 0.0)
        # a kept NaN stays (w != w); "not r <= w" takes a NaN r, and a tie keeps w
        if w == w and not r <= w:
            self.worst[name] = r

    def checks(self, tols: dict) -> list:
        """One record per check of tols, {name: tol}."""
        if not self.worst.keys() <= tols.keys():
            raise KeyError(f"no tolerance for {sorted(self.worst.keys() - tols.keys())}")
        records = []
        for name, tol in tols.items():
            r = self.worst.get(name, 0.0)
            records.append({"check": name, "max_residual": r, "tol": tol, "pass": r <= tol})
        return records


def _draw_params(rng, n: int) -> core.ParamSet:
    while True:
        p = core.ParamSet(a=tuple(rng.uniform(-0.9, 0.9, n)))
        if p.min_gap >= 0.05:
            return p


def _draw_conj(rng, k: int, rho: tuple, y: float = 1.0) -> conjugate.ConjParamSet:
    """k pairs: each rho uniform on the interval rho, then each y on (-y, y)."""
    return conjugate.ConjParamSet(rho=tuple(rng.uniform(*rho, k)), y=tuple(rng.uniform(-y, y, k)))


# --- suites -----------------------------------------------------------------

def suite_normalization() -> list:
    rng = np.random.default_rng(101)
    w = _Worst()
    for n in range(1, 7):
        for _ in range(30):
            p = _draw_params(rng, n)
            Ac = core.A_closed(p)
            w.see(f"normalization/A_special_vs_closed/n={n}", abs(Ac - core.A_special(p)))
            w.see(f"normalization/A_closed_vs_numeric/n={n}", abs(Ac - oracle.normalizer_numeric(p)))

    for i in range(30):
        n = int(rng.integers(0, 9))
        p = _draw_params(rng, n)
        g = p._g
        A = core.normalizer(p)
        w.see("normalization/density_integral", abs(A * oracle.integrate_weighted(g, 1e-11).value - 1.0))
        xg = np.linspace(-1.0, 1.0, 1000)
        w.see("normalization/positivity", -np.min(core.density(p, xg)))
        c = rng.uniform(0.5, 3.0)
        x = rng.uniform(-c, c)
        pc = core.ParamSet(a=p.a, c=c)
        w.see("normalization/scaling_law", abs(core.density(pc, x) - core.density(p, x / c) / c))
    return w.checks({
        **{f"normalization/A_special_vs_closed/n={n}": 1e-11 for n in range(1, 7)},
        **{f"normalization/A_closed_vs_numeric/n={n}": 1e-9 for n in range(1, 7)},
        "normalization/density_integral": 1e-9,
        "normalization/positivity": 0.0,
        "normalization/scaling_law": 1e-13,
    })


def suite_identities() -> list:
    rng = np.random.default_rng(102)
    w = _Worst()
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = _draw_params(rng, n)
        w.see("identities/partial_fraction_an2", abs(core.residual_an2(p.a)))
        if all(abs(ai) > 0.1 for ai in p.a):
            # the sum vanishes for k <= n - 2; at k = n - 1 it equals the
            # exact constant (-1)^{n-1} / (2^{n-1} prod a_j)
            for k in range(1, n - 1):
                w.see("identities/symmetric_rational", abs(core.residual_id(k, p.a)))
            top = core.residual_id(n - 1, p.a)
            expect = (-1.0) ** (n - 1) / (2.0 ** (n - 1) * float(np.prod(p.a)))
            w.see("identities/symmetric_rational_top_constant", abs(top - expect) / abs(expect))
        for m in range(1, 11):
            w.see("identities/alternating_SB", abs(core.residual_id2(m, p)))

    # three-parameter B through complete homogeneous sums
    for _ in range(20):
        p = _draw_params(rng, 3)
        S3 = p._S[3]
        h = delta_all(21, p.a)
        for k in range(1, 21):
            w.see("identities/B3_homogeneous_relation", abs(core.B_coeff(p, k) - (h[k] - S3 * h[k - 1])))

    # reciprocal normalizer as the multi-geometric generating sum
    nodes, weights = gauss_chebU_rule(64)
    K = 12
    for n in range(1, 4):
        p = core.ParamSet(a=tuple(rng.uniform(-0.25, 0.25, n)))
        U = u_all(K, nodes)
        a = np.asarray(p.a)
        pw = a[:, None] ** np.arange(K + 1)[None, :]
        prod = np.ones((len(nodes),))
        # sum over all index tuples = product over i of (sum_k a_i^k U_k(x))
        for i in range(n):
            prod = prod * (pw[i] @ U)
        total = float(np.dot(weights, prod))
        w.see("identities/reciprocal_normalizer_genfun", abs(total - 1.0 / core.A_closed(p)))
    return w.checks({
        "identities/partial_fraction_an2": 1e-10,
        "identities/symmetric_rational": 1e-10,
        "identities/symmetric_rational_top_constant": 1e-10,
        "identities/alternating_SB": 1e-10,
        "identities/B3_homogeneous_relation": 1e-12,
        "identities/reciprocal_normalizer_genfun": 1e-6,
    })


def suite_genfun() -> list:
    rng = np.random.default_rng(103)
    w = _Worst()
    for n in range(1, 7):
        p = _draw_params(rng, n)
        g = p._g
        A = core.A_closed(p)
        B = core.B_prefix(p, 20).values
        # B_0..B_20 in one sweep, one row U_k g per k
        rows = oracle.integrate_weighted(lambda x: u_all(20, x) * g(x), 1e-11, rows=21)
        for k, r in enumerate(rows):
            w.see("genfun/B_vs_quadrature", abs(B[k] - A * r.value))

    for _ in range(20):
        n = int(rng.integers(1, 7))
        p = _draw_params(rng, n)
        direct = core.B_prefix(p, 40).values
        via_gf = core.B_from_genfun(p, 40).values
        w.see("genfun/B_vs_generating_function", np.max(np.abs(direct - via_gf)))
        w.see("genfun/B0_normalization", abs(direct[0] - 1.0))

    for _ in range(20):
        n = int(rng.integers(0, 7))
        p = _draw_params(rng, n)
        g = p._g
        A = core.normalizer(p)
        # the moments 0..12 in one sweep, one row x ** k g per k, each with a
        # Python-int k: numpy takes k = 0, 1 and 2 by fast paths whose bits
        # an array of exponents, through pow, lacks
        rows = oracle.integrate_weighted(lambda x: np.array([x ** k for k in range(13)]) * g(x), 1e-11, rows=13)
        for k, r in enumerate(rows):
            w.see("moments/closed_vs_quadrature", abs(core.moment(p, k) - A * r.value))

    w0 = core.ParamSet()
    w.see("moments/semicircle_exact", abs(core.moment(w0, 2) - 0.25))
    w.see("moments/semicircle_exact", abs(core.moment(w0, 4) - 0.125))

    for _ in range(10):
        n = int(rng.integers(0, 7))
        p = _draw_params(rng, n)
        x = rng.uniform(-1.0, 1.0, 7)
        series = core.density_series(p, x, 1e-10)
        w.see("genfun/series_vs_product_density", np.max(np.abs(series - core.density(p, x))))
    return w.checks({
        "genfun/B_vs_quadrature": 1e-9,
        "genfun/B_vs_generating_function": 1e-11,
        "genfun/B0_normalization": 1e-12,
        "moments/closed_vs_quadrature": 1e-9,
        "moments/semicircle_exact": 1e-12,
        "genfun/series_vs_product_density": 1e-9,
    })


def suite_orthogonality() -> list:
    rng = np.random.default_rng(104)
    w = _Worst()
    for i in range(20):
        n = 1 + i % 6
        p = _draw_params(rng, n)
        for m in range(1, 13):
            # the truncated signed sum is genuinely orthogonal to everything of
            # lower degree only when no terms were dropped, i.e. n <= 2m + 2;
            # the n = 5, 6 degree-1 members fail this and carry an exactly
            # predictable nonzero mean, checked separately below
            if n > 2 * m + 2:
                continue
            for k in range(m):
                w.see("orthogonality/gram_offdiagonal", abs(orthopoly.gram(m, k, p)))
        for m in range(13):
            w.see("orthogonality/gram_diagonal_positive", -orthopoly.gram(m, m, p))
        if n >= 5:
            S = p._S
            B = core.B_prefix(p, 4).values
            expect = -S[5] * B[2] + (S[6] * B[3] if n == 6 else 0.0)
            w.see("orthogonality/low_degree_truncation_defect", abs(orthopoly.gram(1, 0, p) - expect))

        g = p._g
        A = core.A_closed(p)
        pairs = [(1, 0), (2, 1), (4, 2), (7, 3), (9, 5)]
        # the pairs in one sweep, one row P_m P_k g per pair; every P_j they
        # read is summed on one U basis per level, with the bits of
        # P_coeffs(j, p)(x)
        js = sorted({j for pair in pairs for j in pair})
        coeffs = [np.asarray(orthopoly.P_coeffs(j, p).series.coeffs) for j in js]

        def products(x):
            P = dict(zip(js, _u_sums(coeffs, x)))
            return np.array([P[m] * P[k] for m, k in pairs]) * g(x)

        rows = oracle.integrate_weighted(products, 1e-11, rows=len(pairs))
        for (m, k), r in zip(pairs, rows):
            w.see("orthogonality/bilinear_vs_quadrature", abs(A * r.value - orthopoly.gram(m, k, p)))

        x = float(rng.uniform(-1.0, 1.0))
        for m in range(max(n, 1), 16):
            w.see("orthogonality/three_term_recurrence", abs(orthopoly.P_recur_check(m, p, x)))
    return w.checks({
        "orthogonality/gram_offdiagonal": 1e-9,
        "orthogonality/gram_diagonal_positive": 0.0,
        "orthogonality/bilinear_vs_quadrature": 1e-8,
        "orthogonality/three_term_recurrence": 1e-11,
        "orthogonality/low_degree_truncation_defect": 1e-10,
    })


def suite_conjugate() -> list:
    rng = np.random.default_rng(105)
    w = _Worst()
    for _ in range(20):
        rho = float(rng.uniform(-0.9, 0.9))
        y = float(rng.uniform(-1.0, 1.0))
        res = oracle.integrate_weighted(lambda x: (1.0 - rho * rho) / conjugate.w_eval(x, y, rho), 1e-10)
        w.see("conjugate/kernel_row_normalization", abs(res.value - 1.0))
        x = float(rng.uniform(-1.0, 1.0))
        res2 = oracle.integrate_weighted(lambda yy: conjugate.transition_density(x, yy, rho), 1e-10)
        w.see("conjugate/wigner_marginal", abs(res2.value - conjugate.wigner_density(x)))

    # Poisson-Mehler series vs closed kernel on a grid
    xs = np.linspace(-1.0, 1.0, 21)
    for rho in (-0.9, -0.45, 0.0, 0.45, 0.9):
        series = conjugate.poisson_mehler(xs[:, None], xs[None, :], rho, 1e-12)
        closed = (1.0 - rho * rho) / conjugate.w_eval(xs[:, None], xs[None, :], rho)
        # relative residual: near x = y = +-1 the closed kernel is large and
        # its denominator suffers cancellation at the roundoff level
        w.see("conjugate/poisson_mehler_grid", np.max(np.abs(series - closed) / np.maximum(1.0, np.abs(closed))))

    for k in (1, 2, 3):
        for _ in range(4):
            p = _draw_conj(rng, k, (-0.8, 0.8))
            w.see("conjugate/A2k_closed_vs_numeric", abs(conjugate.A2k_closed(p) - oracle.normalizer_numeric(p)))

    # two-pair density through the truncated double expansion
    M = 25
    nodes, weights = gauss_chebU_rule(64)
    Unodes = u_all(M, nodes)
    V2 = np.einsum("in,jn,n->ij", Unodes, Unodes, weights)
    for _ in range(10):
        p = _draw_conj(rng, 2, (-0.4, 0.4))
        x = float(rng.uniform(-1.0, 1.0))
        ux, uy1, uy2 = u_all(M, np.array([x, *p.y])).T
        pw1 = p.rho[0] ** np.arange(M + 1)
        pw2 = p.rho[1] ** np.arange(M + 1)
        s = float(np.sum(pw1 * ux * uy1) * np.sum(pw2 * ux * uy2))
        A4 = conjugate.A2k_closed(p)
        pref = 2.0 * A4 / (np.pi * (1.0 - p.rho[0] ** 2) * (1.0 - p.rho[1] ** 2))
        val = pref * np.sqrt(1.0 - x * x) * s
        w.see("conjugate/two_pair_expansion", abs(val - conjugate.fM_density(p, x)))

        # reciprocal normalizer through the V-coefficient double series
        sv = float((pw1 * uy1) @ V2 @ (pw2 * uy2))
        w.see("conjugate/reciprocal_A2k_series", abs(sv - (1.0 - p.rho[0] ** 2) * (1.0 - p.rho[1] ** 2) / A4))

    # elementary symmetric values from the complex pair vector
    for _ in range(10):
        p = _draw_conj(rng, 2, (-0.9, 0.9))
        S = elementary_all(p.complex_a())
        r1, r2 = p.rho
        y1, y2 = p.y
        expect = [
            1.0,
            2 * (y1 * r1 + y2 * r2),
            r1 ** 2 + r2 ** 2 + 4 * y1 * y2 * r1 * r2,
            2 * r1 * r2 * (r2 * y1 + r1 * y2),
            r1 ** 2 * r2 ** 2,
        ]
        w.see("conjugate/pair_symmetric_values", np.max(np.abs(S - np.asarray(expect))))
        w.see("conjugate/pair_symmetric_values", np.max(np.abs(S.imag)))

    # conjugate product form vs the real-branch partial-fraction machinery
    for _ in range(10):
        k = int(rng.integers(1, 3))
        p = _draw_conj(rng, k, (0.1, 0.8), 0.9)
        a = p.complex_a()
        x = rng.uniform(-1.0, 1.0, 5)
        den = np.ones_like(x, dtype=complex)
        for ai in a:
            den = den * (1.0 + ai * ai - 2.0 * ai * x)
        A = conjugate.A2k_closed(p)
        val = 2.0 * A * np.sqrt(1.0 - x * x) / (np.pi * den.real)
        w.see("conjugate/real_branch_consistency", np.max(np.abs(val - conjugate.fM_density(p, x))))
        w.see("conjugate/real_branch_consistency", np.max(np.abs(den.imag)))
    return w.checks({
        "conjugate/kernel_row_normalization": 1e-8,
        "conjugate/wigner_marginal": 1e-8,
        "conjugate/poisson_mehler_grid": 1e-10,
        "conjugate/A2k_closed_vs_numeric": 1e-9,
        "conjugate/two_pair_expansion": 1e-6,
        "conjugate/reciprocal_A2k_series": 1e-6,
        "conjugate/pair_symmetric_values": 1e-12,
        "conjugate/real_branch_consistency": 1e-11,
    })


def suite_markov() -> list:
    rng = np.random.default_rng(106)
    w = _Worst()
    for _ in range(20):
        x, y2 = rng.uniform(-0.95, 0.95, 2)
        r1, r2 = rng.uniform(-0.85, 0.85, 2)
        w.see("markov/chapman_kolmogorov",
              abs(conjugate.chapman_residual(float(x), float(y2), float(r1), float(r2), 1e-10)))

    for _ in range(20):
        x, y1, y2 = rng.uniform(-0.95, 0.95, 3)
        r1, r2 = rng.uniform(-0.85, 0.85, 2)
        lhs = conjugate.conditional_bridge(float(x), float(y1), float(y2), float(r1), float(r2))
        pair = conjugate.ConjParamSet(rho=(float(r1), float(r2)), y=(float(y1), float(y2)))
        w.see("markov/conditional_bridge", abs(lhs - conjugate.fM_density(pair, float(x))))

    for rho in (0.0, 0.3, -0.6):
        res = oracle.integrate_2d(lambda x, y: conjugate.f2M(x, y, rho), 1e-10)
        w.see("markov/bivariate_normalization", abs(res.value - 1.0))
        res2 = oracle.integrate_2d(lambda x, y: conjugate.f2M(x, y, rho) * x * y, 1e-10)
        w.see("markov/bivariate_cross_moment", abs(res2.value - rho / 4.0))
    return w.checks({
        "markov/chapman_kolmogorov": 1e-8,
        "markov/conditional_bridge": 1e-10,
        "markov/bivariate_normalization": 1e-8,
        "markov/bivariate_cross_moment": 1e-8,
    })


def suite_trivariate() -> list:
    rng = np.random.default_rng(107)
    w = _Worst()
    for _ in range(10):
        r1, r2, r3 = rng.uniform(-0.8, 0.8, 3)
        y2, y3 = rng.uniform(-1.0, 1.0, 2)

        def g(y1):
            return conjugate.w3_eval(y1, y2, y3, r1, r2, r3) / (
                conjugate.w_eval(y1, y2, r1 * r2)
                * conjugate.w_eval(y2, y3, r2 * r3)
                * conjugate.w_eval(y1, y3, r1 * r3)
            )

        lhs = oracle.integrate_weighted(g, 1e-10).value
        rhs = (1.0 - r2 ** 2 * r3 ** 2) / conjugate.w_eval(y2, y3, r2 * r3)
        w.see("trivariate/kernel_marginalization", abs(lhs - rhs))

    for _ in range(5):
        r1, r2, r3 = rng.uniform(-0.7, 0.7, 3)
        y2, y3 = rng.uniform(-0.95, 0.95, 2)
        lhs = oracle.integrate_plain(lambda y1: conjugate.g3(y1, y2, y3, r1, r2, r3), 1e-10).value
        w.see("trivariate/density_marginal", abs(lhs - conjugate.f2M(y2, y3, r2 * r3)))

    for r1, r2, r3 in ((0.0, 0.0, 0.0), (0.5, -0.4, 0.3), (0.6, 0.6, 0.0)):
        res = oracle.integrate_3d(lambda a, b, c: conjugate.g3(a, b, c, r1, r2, r3), 1e-7)
        w.see("trivariate/total_mass", abs(res.value - 1.0))

    grid = np.linspace(-1.0, 1.0, 21)
    for _ in range(5):
        r1, r2, r3 = rng.uniform(-0.8, 0.8, 3)
        vals = conjugate.g3(grid[:, None, None], grid[None, :, None], grid[None, None, :], r1, r2, r3)
        w.see("trivariate/positivity_grid", -np.min(vals))
    return w.checks({
        "trivariate/kernel_marginalization": 1e-8,
        "trivariate/density_marginal": 1e-8,
        "trivariate/total_mass": 1e-6,
        "trivariate/positivity_grid": 0.0,
    })


def suite_sampling() -> list:
    rng = np.random.default_rng(108)
    count = 100_000
    w = _Worst()
    for i in range(10):
        n = int(rng.integers(0, 5))
        p = _draw_params(rng, n)
        table = sampler.build_cdf(p, 2048)
        draws = sampler.sample(table, count, seed=1000 + i)
        w.see("sampling/ks_roundtrip", sampler.ks_statistic(draws, table) * np.sqrt(count))

    p6 = core.ParamSet(a=(0.6,))
    table = sampler.build_cdf(p6, 2048)
    draws = sampler.sample(table, count, seed=2024)
    w.see("sampling/mean_recovery", abs(float(np.mean(draws)) - 0.3))

    for k in range(1, 5):
        mk = core.moment(p6, k)
        dk = draws ** k
        emp = float(np.mean(dk))
        se = float(np.std(dk, ddof=1) / np.sqrt(count))
        w.see("sampling/moment_recovery_5se", abs(emp - mk) / (5.0 * se))

    again = sampler.sample(table, count, seed=2024)
    w.see("sampling/determinism", np.max(np.abs(again - draws)))
    return w.checks({
        "sampling/ks_roundtrip": sampler.KS_CRIT_99,
        "sampling/mean_recovery": 0.006,
        "sampling/moment_recovery_5se": 1.0,
        "sampling/determinism": 0.0,
    })


# Longest first: the workers take the suites in this order, so that
# sampling, a third of the work, does not start last.  Their CPU times in one
# process on one CPU (medians of 11 runs each, three runs, on a 2-vCPU Xeon
# host): sampling 72-92 ms, orthogonality 32-34, normalization 29-31,
# identities 23, genfun 22-26, trivariate 19-20, conjugate 10-11, markov 6,
# 213-244 in all.  On two CPUs the slowest worker then needs about 110 ms.
_SUITE_FN = {
    "sampling": suite_sampling,
    "orthogonality": suite_orthogonality,
    "normalization": suite_normalization,
    "identities": suite_identities,
    "genfun": suite_genfun,
    "trivariate": suite_trivariate,
    "conjugate": suite_conjugate,
    "markov": suite_markov,
}
SUITES = tuple(_SUITE_FN)
# the suites of `gkm conj-verify`
CONJ_SUITES = ("conjugate", "markov", "trivariate")


def run_verify(suite: str | tuple = "all", tol: float | None = None) -> dict:
    """Execute one named suite, a tuple of suites (reported as their names
    joined by "+"), or all of them, and assemble the report.  More than one
    suite runs in forked workers (see the module docstring).

    If tol is given it replaces every check's default tolerance; it must
    satisfy 0 <= tol < inf.  InvalidParameters for an unknown suite name or
    an empty tuple, which would pass with no check run.
    """
    names = SUITES if suite == "all" else (suite,) if isinstance(suite, str) else tuple(suite)
    if not names:
        raise InvalidParameters(f"no suite to run; choose from {('all',) + SUITES}")
    for name in names:
        if name not in _SUITE_FN:
            raise InvalidParameters(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
    if tol is not None:
        oracle._check_tol(tol)
    # the suites are independent (each draws from its own seeds), and the
    # sort by check name below makes the report the same in any order
    order = sorted(names, key=SUITES.index)
    checks = [c for result in _pool.fork_map(lambda name: _SUITE_FN[name](), order) for c in result]
    if tol is not None:
        for c in checks:
            c["tol"] = tol
            c["pass"] = c["max_residual"] <= tol
    checks.sort(key=lambda c: c["check"])
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite if isinstance(suite, str) else "+".join(names),
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
