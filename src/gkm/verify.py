"""Self-verification suites: every closed form against its independent check.

Each suite runs over a deterministic set of parameter draws (fixed seeds),
produces one record per check with the worst residual seen and its
tolerance, and is assembled into a JSON-ready report.  Two consecutive runs
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
from .chebyshev import eval_U, gauss_chebU_rule, u_all
from .symfun import delta_all, elementary_all

SCHEMA_VERSION = 1


def _check(name: str, residual: float, tol: float) -> dict:
    residual = float(residual)
    return {"check": name, "max_residual": residual, "tol": tol, "pass": residual <= tol}


def _draw_params(rng, n: int) -> core.ParamSet:
    while True:
        p = core.ParamSet(a=tuple(rng.uniform(-0.9, 0.9, n)))
        if p.min_gap >= 0.05:
            return p


# --- suites -----------------------------------------------------------------

def suite_normalization() -> list:
    rng = np.random.default_rng(101)
    checks = []
    for n in range(1, 7):
        r_special = 0.0
        r_numeric = 0.0
        for _ in range(30):
            p = _draw_params(rng, n)
            Ac = core.A_closed(p)
            r_special = max(r_special, abs(Ac - core.A_special(p)))
            r_numeric = max(r_numeric, abs(Ac - oracle.normalizer_numeric(p)))
        checks.append(_check(f"normalization/A_special_vs_closed/n={n}", r_special, 1e-11))
        checks.append(_check(f"normalization/A_closed_vs_numeric/n={n}", r_numeric, 1e-9))

    r_int = 0.0
    r_pos = 0.0
    r_scale = 0.0
    for i in range(30):
        n = int(rng.integers(0, 9))
        p = _draw_params(rng, n)
        g = p._g
        A = core.normalizer(p)
        r_int = max(r_int, abs(A * oracle.integrate_weighted(g, 1e-11).value - 1.0))
        xg = np.linspace(-1.0, 1.0, 1000)
        r_pos = max(r_pos, max(0.0, -float(np.min(core.density(p, xg)))))
        c = rng.uniform(0.5, 3.0)
        x = rng.uniform(-c, c)
        pc = core.ParamSet(a=p.a, c=c)
        r_scale = max(r_scale, abs(core.density(pc, x) - core.density(p, x / c) / c))
    checks.append(_check("normalization/density_integral", r_int, 1e-9))
    checks.append(_check("normalization/positivity", r_pos, 0.0))
    checks.append(_check("normalization/scaling_law", r_scale, 1e-13))
    return checks


def suite_identities() -> list:
    rng = np.random.default_rng(102)
    r_an2 = 0.0
    r_id = 0.0
    r_top = 0.0
    r_id2 = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = _draw_params(rng, n)
        r_an2 = max(r_an2, abs(core.residual_an2(p.a)))
        if all(abs(ai) > 0.1 for ai in p.a):
            # the sum vanishes for k <= n - 2; at k = n - 1 it equals the
            # exact constant (-1)^{n-1} / (2^{n-1} prod a_j)
            for k in range(1, n - 1):
                r_id = max(r_id, abs(core.residual_id(k, p.a)))
            top = core.residual_id(n - 1, p.a)
            expect = (-1.0) ** (n - 1) / (2.0 ** (n - 1) * float(np.prod(p.a)))
            r_top = max(r_top, abs(top - expect) / abs(expect))
        for m in range(1, 11):
            r_id2 = max(r_id2, abs(core.residual_id2(m, p)))
    checks = [
        _check("identities/partial_fraction_an2", r_an2, 1e-10),
        _check("identities/symmetric_rational", r_id, 1e-10),
        _check("identities/symmetric_rational_top_constant", r_top, 1e-10),
        _check("identities/alternating_SB", r_id2, 1e-10),
    ]

    # three-parameter B through complete homogeneous sums
    r_b3 = 0.0
    for _ in range(20):
        p = _draw_params(rng, 3)
        S3 = p._S[3]
        h = delta_all(21, p.a)
        for k in range(1, 21):
            r_b3 = max(r_b3, abs(core.B_coeff(p, k) - (h[k] - S3 * h[k - 1])))
    checks.append(_check("identities/B3_homogeneous_relation", r_b3, 1e-12))

    # reciprocal normalizer as the multi-geometric generating sum
    nodes, weights = gauss_chebU_rule(64)
    r_gen = 0.0
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
        r_gen = max(r_gen, abs(total - 1.0 / core.A_closed(p)))
    checks.append(_check("identities/reciprocal_normalizer_genfun", r_gen, 1e-6))
    return checks


def suite_genfun() -> list:
    rng = np.random.default_rng(103)
    checks = []
    r_quad = 0.0
    for n in range(1, 7):
        p = _draw_params(rng, n)
        g = p._g
        A = core.A_closed(p)
        B = core.B_prefix(p, 20).values
        for k in range(21):
            quad = A * oracle.integrate_weighted(lambda x, k=k: eval_U(k, x) * g(x), 1e-11).value
            r_quad = max(r_quad, abs(B[k] - quad))
    checks.append(_check("genfun/B_vs_quadrature", r_quad, 1e-9))

    r_gf = 0.0
    r_b0 = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        p = _draw_params(rng, n)
        direct = core.B_prefix(p, 40).values
        via_gf = core.B_from_genfun(p, 40).values
        r_gf = max(r_gf, float(np.max(np.abs(direct - via_gf))))
        r_b0 = max(r_b0, abs(direct[0] - 1.0))
    checks.append(_check("genfun/B_vs_generating_function", r_gf, 1e-11))
    checks.append(_check("genfun/B0_normalization", r_b0, 1e-12))

    r_mom = 0.0
    for _ in range(20):
        n = int(rng.integers(0, 7))
        p = _draw_params(rng, n)
        g = p._g
        A = core.normalizer(p)
        for k in range(13):
            quad = A * oracle.integrate_weighted(lambda x, k=k: x ** k * g(x), 1e-11).value
            r_mom = max(r_mom, abs(core.moment(p, k) - quad))
    checks.append(_check("moments/closed_vs_quadrature", r_mom, 1e-9))

    w0 = core.ParamSet()
    r_semi = max(abs(core.moment(w0, 2) - 0.25), abs(core.moment(w0, 4) - 0.125))
    checks.append(_check("moments/semicircle_exact", r_semi, 1e-12))

    r_series = 0.0
    for _ in range(10):
        n = int(rng.integers(0, 7))
        p = _draw_params(rng, n)
        x = rng.uniform(-1.0, 1.0, 7)
        r_series = max(
            r_series,
            float(np.max(np.abs(core.density_series(p, x, 1e-10) - core.density(p, x)))),
        )
    checks.append(_check("genfun/series_vs_product_density", r_series, 1e-9))
    return checks


def suite_orthogonality() -> list:
    rng = np.random.default_rng(104)
    r_off = 0.0
    r_diag = 0.0
    r_quad = 0.0
    r_rec = 0.0
    r_defect = 0.0
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
                r_off = max(r_off, abs(orthopoly.gram(m, k, p)))
        for m in range(13):
            r_diag = max(r_diag, max(0.0, -orthopoly.gram(m, m, p)))
        if n >= 5:
            S = p._S
            B = core.B_prefix(p, 4).values
            expect = -S[5] * B[2] + (S[6] * B[3] if n == 6 else 0.0)
            r_defect = max(r_defect, abs(orthopoly.gram(1, 0, p) - expect))

        g = p._g
        A = core.A_closed(p)
        pairs = [(1, 0), (2, 1), (4, 2), (7, 3), (9, 5)]
        for m, k in pairs:
            Pm = orthopoly.P_coeffs(m, p)
            Pk = orthopoly.P_coeffs(k, p)
            quad = A * oracle.integrate_weighted(lambda x: Pm(x) * Pk(x) * g(x), 1e-11).value
            bil = orthopoly.gram(m, k, p)
            r_quad = max(r_quad, abs(quad - bil))

        x = float(rng.uniform(-1.0, 1.0))
        for m in range(max(n, 1), 16):
            r_rec = max(r_rec, abs(orthopoly.P_recur_check(m, p, x)))
    checks = [
        _check("orthogonality/gram_offdiagonal", r_off, 1e-9),
        _check("orthogonality/gram_diagonal_positive", r_diag, 0.0),
        _check("orthogonality/bilinear_vs_quadrature", r_quad, 1e-8),
        _check("orthogonality/three_term_recurrence", r_rec, 1e-11),
        _check("orthogonality/low_degree_truncation_defect", r_defect, 1e-10),
    ]
    return checks


def suite_conjugate() -> list:
    rng = np.random.default_rng(105)
    checks = []

    r_norm = 0.0
    r_marg = 0.0
    for _ in range(20):
        rho = float(rng.uniform(-0.9, 0.9))
        y = float(rng.uniform(-1.0, 1.0))
        res = oracle.integrate_weighted(
            lambda x: (1.0 - rho * rho) / conjugate.w_eval(x, y, rho), 1e-10
        )
        r_norm = max(r_norm, abs(res.value - 1.0))
        x = float(rng.uniform(-1.0, 1.0))
        res2 = oracle.integrate_weighted(lambda yy: conjugate.transition_density(x, yy, rho), 1e-10)
        r_marg = max(r_marg, abs(res2.value - conjugate.wigner_density(x)))
    checks.append(_check("conjugate/kernel_row_normalization", r_norm, 1e-8))
    checks.append(_check("conjugate/wigner_marginal", r_marg, 1e-8))

    # Poisson-Mehler series vs closed kernel on a grid
    xs = np.linspace(-1.0, 1.0, 21)
    r_pm = 0.0
    for rho in (-0.9, -0.45, 0.0, 0.45, 0.9):
        series = conjugate.poisson_mehler(xs[:, None], xs[None, :], rho, 1e-12)
        closed = (1.0 - rho * rho) / conjugate.w_eval(xs[:, None], xs[None, :], rho)
        # relative residual: near x = y = +-1 the closed kernel is large and
        # its denominator suffers cancellation at the roundoff level
        r_pm = max(r_pm, float(np.max(np.abs(series - closed) / np.maximum(1.0, np.abs(closed)))))
    checks.append(_check("conjugate/poisson_mehler_grid", r_pm, 1e-10))

    r_a2k = 0.0
    for k in (1, 2, 3):
        for _ in range(4):
            p = conjugate.ConjParamSet(
                rho=tuple(rng.uniform(-0.8, 0.8, k)), y=tuple(rng.uniform(-1.0, 1.0, k))
            )
            r_a2k = max(r_a2k, abs(conjugate.A2k_closed(p) - oracle.normalizer_numeric(p)))
    checks.append(_check("conjugate/A2k_closed_vs_numeric", r_a2k, 1e-9))

    # two-pair density through the truncated double expansion
    M = 25
    r_exp = 0.0
    r_v = 0.0
    nodes, weights = gauss_chebU_rule(64)
    Unodes = u_all(M, nodes)
    V2 = np.einsum("in,jn,n->ij", Unodes, Unodes, weights)
    for _ in range(10):
        p = conjugate.ConjParamSet(
            rho=tuple(rng.uniform(-0.4, 0.4, 2)), y=tuple(rng.uniform(-1.0, 1.0, 2))
        )
        x = float(rng.uniform(-1.0, 1.0))
        ux, uy1, uy2 = u_all(M, np.array([x, *p.y])).T
        pw1 = p.rho[0] ** np.arange(M + 1)
        pw2 = p.rho[1] ** np.arange(M + 1)
        s = float(np.sum(pw1 * ux * uy1) * np.sum(pw2 * ux * uy2))
        A4 = conjugate.A2k_closed(p)
        pref = 2.0 * A4 / (np.pi * (1.0 - p.rho[0] ** 2) * (1.0 - p.rho[1] ** 2))
        val = pref * np.sqrt(1.0 - x * x) * s
        r_exp = max(r_exp, abs(val - conjugate.fM_density(p, x)))

        # reciprocal normalizer through the V-coefficient double series
        sv = float(
            (pw1 * uy1) @ V2 @ (pw2 * uy2)
        )
        r_v = max(
            r_v,
            abs(sv - (1.0 - p.rho[0] ** 2) * (1.0 - p.rho[1] ** 2) / A4),
        )
    checks.append(_check("conjugate/two_pair_expansion", r_exp, 1e-6))
    checks.append(_check("conjugate/reciprocal_A2k_series", r_v, 1e-6))

    # elementary symmetric values from the complex pair vector
    r_s = 0.0
    for _ in range(10):
        p = conjugate.ConjParamSet(
            rho=tuple(rng.uniform(-0.9, 0.9, 2)), y=tuple(rng.uniform(-1.0, 1.0, 2))
        )
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
        r_s = max(r_s, float(np.max(np.abs(S - np.asarray(expect)))))
        r_s = max(r_s, float(np.max(np.abs(S.imag))))
    checks.append(_check("conjugate/pair_symmetric_values", r_s, 1e-12))

    # conjugate product form vs the real-branch partial-fraction machinery
    r_c = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 3))
        p = conjugate.ConjParamSet(
            rho=tuple(rng.uniform(0.1, 0.8, k)), y=tuple(rng.uniform(-0.9, 0.9, k))
        )
        a = p.complex_a()
        x = rng.uniform(-1.0, 1.0, 5)
        den = np.ones_like(x, dtype=complex)
        for ai in a:
            den = den * (1.0 + ai * ai - 2.0 * ai * x)
        A = conjugate.A2k_closed(p)
        val = 2.0 * A * np.sqrt(1.0 - x * x) / (np.pi * den.real)
        r_c = max(r_c, float(np.max(np.abs(val - conjugate.fM_density(p, x)))))
        r_c = max(r_c, float(np.max(np.abs(den.imag))))
    checks.append(_check("conjugate/real_branch_consistency", r_c, 1e-11))
    return checks


def suite_markov() -> list:
    rng = np.random.default_rng(106)
    r_ck = 0.0
    for _ in range(20):
        x, y2 = rng.uniform(-0.95, 0.95, 2)
        r1, r2 = rng.uniform(-0.85, 0.85, 2)
        r_ck = max(r_ck, abs(conjugate.chapman_residual(float(x), float(y2), float(r1), float(r2), 1e-10)))
    checks = [_check("markov/chapman_kolmogorov", r_ck, 1e-8)]

    r_br = 0.0
    for _ in range(20):
        x, y1, y2 = rng.uniform(-0.95, 0.95, 3)
        r1, r2 = rng.uniform(-0.85, 0.85, 2)
        lhs = conjugate.conditional_bridge(float(x), float(y1), float(y2), float(r1), float(r2))
        rhs = conjugate.fM_density(
            conjugate.ConjParamSet(rho=(float(r1), float(r2)), y=(float(y1), float(y2))), float(x)
        )
        r_br = max(r_br, abs(lhs - rhs))
    checks.append(_check("markov/conditional_bridge", r_br, 1e-10))

    r_2d = 0.0
    r_xy = 0.0
    for rho in (0.0, 0.3, -0.6):
        res = oracle.integrate_2d(lambda x, y: conjugate.f2M(x, y, rho), 1e-10)
        r_2d = max(r_2d, abs(res.value - 1.0))
        res2 = oracle.integrate_2d(lambda x, y: conjugate.f2M(x, y, rho) * x * y, 1e-10)
        r_xy = max(r_xy, abs(res2.value - rho / 4.0))
    checks.append(_check("markov/bivariate_normalization", r_2d, 1e-8))
    checks.append(_check("markov/bivariate_cross_moment", r_xy, 1e-8))
    return checks


def suite_trivariate() -> list:
    rng = np.random.default_rng(107)
    r_l13 = 0.0
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
        r_l13 = max(r_l13, abs(lhs - rhs))
    checks = [_check("trivariate/kernel_marginalization", r_l13, 1e-8)]

    r_marg = 0.0
    for _ in range(5):
        r1, r2, r3 = rng.uniform(-0.7, 0.7, 3)
        y2, y3 = rng.uniform(-0.95, 0.95, 2)
        lhs = oracle.integrate_plain(
            lambda y1: conjugate.g3(y1, y2, y3, r1, r2, r3), 1e-10
        ).value
        r_marg = max(r_marg, abs(lhs - conjugate.f2M(y2, y3, r2 * r3)))
    checks.append(_check("trivariate/density_marginal", r_marg, 1e-8))

    r_mass = 0.0
    for r1, r2, r3 in ((0.0, 0.0, 0.0), (0.5, -0.4, 0.3), (0.6, 0.6, 0.0)):
        res = oracle.integrate_3d(lambda a, b, c: conjugate.g3(a, b, c, r1, r2, r3), 1e-7)
        r_mass = max(r_mass, abs(res.value - 1.0))
    checks.append(_check("trivariate/total_mass", r_mass, 1e-6))

    grid = np.linspace(-1.0, 1.0, 21)
    r_pos = 0.0
    for _ in range(5):
        r1, r2, r3 = rng.uniform(-0.8, 0.8, 3)
        vals = conjugate.g3(grid[:, None, None], grid[None, :, None], grid[None, None, :], r1, r2, r3)
        r_pos = max(r_pos, max(0.0, -float(np.min(vals))))
    checks.append(_check("trivariate/positivity_grid", r_pos, 0.0))
    return checks


def suite_sampling() -> list:
    rng = np.random.default_rng(108)
    count = 100_000
    r_ks = 0.0
    for i in range(10):
        n = int(rng.integers(0, 5))
        p = _draw_params(rng, n)
        table = sampler.build_cdf(p, 2048)
        draws = sampler.sample(table, count, seed=1000 + i)
        r_ks = max(r_ks, sampler.ks_statistic(draws, table) * np.sqrt(count))
    checks = [_check("sampling/ks_roundtrip", r_ks, sampler.KS_CRIT_99)]

    p6 = core.ParamSet(a=(0.6,))
    table = sampler.build_cdf(p6, 2048)
    draws = sampler.sample(table, count, seed=2024)
    checks.append(_check("sampling/mean_recovery", abs(float(np.mean(draws)) - 0.3), 0.006))

    r_mom = 0.0
    for k in range(1, 5):
        mk = core.moment(p6, k)
        dk = draws ** k
        emp = float(np.mean(dk))
        se = float(np.std(dk, ddof=1) / np.sqrt(count))
        r_mom = max(r_mom, abs(emp - mk) / (5.0 * se))
    checks.append(_check("sampling/moment_recovery_5se", r_mom, 1.0))

    again = sampler.sample(table, count, seed=2024)
    checks.append(_check("sampling/determinism", float(np.max(np.abs(again - draws))), 0.0))
    return checks


# Longest first: the workers take the suites in this order, so that
# sampling and orthogonality, a quarter of the work or more each, do not
# start last.  The measured costs of one traced `verify --suite all` round,
# in reference-loop units (medians of three traced runs on one CPU):
# sampling 1.56, orthogonality 1.30, genfun 0.83, normalization 0.56,
# identities 0.46, trivariate 0.36, conjugate 0.21, markov 0.12.  On two CPUs
# the slowest worker then needs about 2.7 of the 5.4; taken in the order
# they are defined above, about 3.4.
_SUITE_FN = {
    "sampling": suite_sampling,
    "orthogonality": suite_orthogonality,
    "genfun": suite_genfun,
    "normalization": suite_normalization,
    "identities": suite_identities,
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
