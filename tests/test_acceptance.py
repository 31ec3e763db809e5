"""Release acceptance gate: eleven criteria, one pass/fail line each.

Every criterion is checked at its stated tolerance and prints a single
``ACCEPTANCE k <name>: PASS/FAIL`` line (also echoed in the terminal
summary).  Monte Carlo criteria use the fixed master seed below; bands are
wide relative to Monte Carlo error, so the seed is a determinism anchor,
not a tuning knob.
"""

import csv
import functools
import io
import math

import pytest

import conftest
import references
from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.distributions import (
    RngStream,
    chi2_cdf,
    chi2_quantile,
    f_cdf,
    f_quantile,
    t_cdf,
    t_quantile,
)
from pwreject.models import mvn_ball
from pwreject.simulation import CSV_COLUMNS, ExperimentConfig, run_experiment, run_suite

MASTER_SEED = 20260823


def record(number, name, ok, detail):
    label = "ACCEPTANCE %d %s" % (number, name)
    conftest.ACCEPTANCE_LINES.append((label, ok, detail))
    print("%s: %s — %s" % (label, "PASS" if ok else "FAIL", detail))
    return ok


@functools.lru_cache(maxsize=None)
def suite(name):
    return [
        (row["truth"], row["n"], row["m"], row["method"], float(row["rate"]))
        for row in run_suite(name, MASTER_SEED)
    ]


def rate_of(rows, **match):
    out = [
        r[4]
        for r in rows
        if all(dict(zip(("truth", "n", "m", "method"), r))[k] == v for k, v in match.items())
    ]
    assert len(out) == 1, (match, out)
    return out[0]


def test_criterion_1_alpha_prime_exactness():
    checks = []
    checks.append(abs(alpha_prime(0.05, NullSpec(2, 1)) - 0.1465) <= 5e-4)
    checks.append(abs(alpha_prime(0.05, NullSpec(5, 3, True)) - 0.2173) <= 5e-4)
    for a in (0.01, 0.05, 0.1):
        checks.append(abs(alpha_prime(a, NullSpec(1, 1, True)) - 2 * a) <= 1e-10)
    for a in (0.01, 0.05, 0.1):
        for d1 in (1, 3, 5):
            checks.append(abs(alpha_prime(a, NullSpec(d1, 0)) - a) <= 1e-12)
    ok = all(checks)
    assert record(1, "alpha-prime exactness", ok, "%d/%d value checks" % (sum(checks), len(checks)))


def test_criterion_2_boundary_residuals():
    worst = 0.0
    for a in (0.01, 0.05, 0.1):
        for d1 in range(1, 7):
            for d0 in range(1, d1 + 1):
                spec = NullSpec(d1, d0, has_boundary=True)
                ap = alpha_prime(a, spec)
                worst = max(worst, abs(references.boundary_balance_residual(a, spec, ap)))
    ok = worst < 1e-10
    assert record(2, "boundary defining-equation residual", ok, "worst residual %.2e" % worst)


def test_criterion_3_distribution_kernel():
    import oracles

    worst_round = 0.0
    for p in (0.01, 0.3, 0.95, 0.999):
        for nu in (1, 2, 7):
            worst_round = max(worst_round, abs(chi2_cdf(chi2_quantile(p, nu), nu) - p))
            worst_round = max(worst_round, abs(t_cdf(t_quantile(p, nu), nu) - p))
        for dd in ((1, 4), (2, 9)):
            worst_round = max(worst_round, abs(f_cdf(f_quantile(p, *dd), *dd) - p))
    worst_chi2_2 = max(
        abs(chi2_cdf(x, 2) - (1.0 - math.exp(-0.5 * x))) for x in (0.1, 1.0, 3.0, 8.0)
    )
    worst_f_t = max(
        abs(f_cdf(x, 1, nu) - (2.0 * t_cdf(math.sqrt(x), nu) - 1.0))
        for nu in (2, 19)
        for x in (0.5, 2.0, 6.0)
    )
    refs = (
        abs(chi2_quantile(0.95, 1) - 3.841459),
        abs(chi2_quantile(0.90, 1) - 2.705543),
        abs(t_quantile(0.975, 19) - 2.093024),
        abs(chi2_quantile(0.95, 1) - oracles.chi2_quantile_quad(0.95, 1)),
        abs(t_quantile(0.975, 19) - oracles.t_quantile_quad(0.975, 19)),
    )
    ok = worst_round < 1e-9 and worst_chi2_2 < 1e-12 and worst_f_t < 1e-10 and max(refs) < 1e-5
    detail = "roundtrip %.1e, chi2_2 %.1e, F-vs-t %.1e, refs %.1e" % (
        worst_round, worst_chi2_2, worst_f_t, max(refs),
    )
    assert record(3, "distribution kernel", ok, detail)


TABLE1 = {
    (10, 5): 5.32, (10, 10): 5.28, (10, 20): 5.52, (10, 50): 5.41, (10, 100): 5.09,
    (100, 5): 4.98, (100, 10): 4.68, (100, 20): 5.07, (100, 50): 5.41, (100, 100): 5.01,
}


def test_criterion_4_table1():
    rows = suite("table1")
    misses = []
    for (m, n), ref in TABLE1.items():
        got = 100.0 * rate_of(rows, n=n, m=m, method="pointwise")
        se = 100.0 * math.sqrt(ref / 100 * (1 - ref / 100) / 10_000)
        if abs(got - ref) > 3 * se:
            misses.append("m=%d n=%d got %.2f ref %.2f" % (m, n, got, ref))
    ok = not misses
    assert record(4, "table of or-null rejection rates", ok,
                  "all 10 cells within 3 SE" if ok else "; ".join(misses))


TABLE2 = {5: 6.81, 10: 6.27, 30: 5.99, 100: 5.35, 1000: 5.25}


def test_criterion_5_table2():
    rows = suite("table2")
    misses = []
    for n, ref in TABLE2.items():
        got = 100.0 * rate_of(rows, n=n, method="pointwise")
        se = 100.0 * math.sqrt(ref / 100 * (1 - ref / 100) / 40_000)
        if abs(got - ref) > 3 * se:
            misses.append("pointwise n=%d got %.2f ref %.2f" % (n, got, ref))
        for method in ("split_lrt", "crossfit_lrt"):
            u = 100.0 * rate_of(rows, n=n, method=method)
            if u >= 0.5:
                misses.append("%s n=%d got %.2f%% >= 0.5%%" % (method, n, u))
    ok = not misses
    assert record(5, "ball-null rates vs universal baselines", ok,
                  "all 15 cells in band" if ok else "; ".join(misses))


def test_criterion_6_interval_figures():
    rows1 = suite("fig1")
    misses = []
    for mu in ("0.0", "1.0"):
        pw = 100.0 * rate_of(rows1, truth=mu, method="pointwise")
        bf = 100.0 * rate_of(rows1, truth=mu, method="bonferroni")
        if not 4.0 <= pw <= 6.0:
            misses.append("pointwise at mu=%s: %.2f" % (mu, pw))
        if not 1.5 <= bf <= 3.5:
            misses.append("bonferroni at mu=%s: %.2f" % (mu, bf))
    for method in ("pointwise", "bonferroni"):
        mid = 100.0 * rate_of(rows1, truth="0.5", method=method)
        if mid >= 1.0:
            misses.append("%s at mu=0.5: %.2f" % (method, mid))
    rows2 = suite("fig2")
    for n in (5, 10, 20, 50, 200):
        pw = max(
            100.0 * rate_of(rows2, truth=mu, n=n, method="pointwise")
            for mu in ("0.0", "1.0")
        )
        bf = max(
            100.0 * rate_of(rows2, truth=mu, n=n, method="bonferroni")
            for mu in ("0.0", "1.0")
        )
        if not 4.0 <= pw <= 6.5:
            misses.append("pointwise max-rate at n=%d: %.2f" % (n, pw))
        if bf >= 3.5:
            misses.append("bonferroni max-rate at n=%d: %.2f" % (n, bf))
    ok = not misses
    assert record(6, "interval-null figure shapes", ok,
                  "all boundary/interior/max-rate bands hold" if ok else "; ".join(misses))


def test_criterion_7_nuisance_coverage():
    rows = suite("fig3")
    misses = []
    for n in (5, 15, 30, 50, 100, 200):
        pw = 100.0 * rate_of(rows, n=n, method="pointwise")
        if not 92.0 <= pw <= 97.0:
            misses.append("pointwise coverage at n=%d: %.2f" % (n, pw))
        if n in (5, 15, 30):
            lrt = 100.0 * rate_of(rows, n=n, method="lrt")
            if abs(pw - 95.0) > abs(lrt - 95.0):
                misses.append("n=%d pointwise |bias| %.2f > lrt %.2f"
                              % (n, abs(pw - 95), abs(lrt - 95)))
    ok = not misses
    assert record(7, "nuisance-model coverage", ok,
                  "coverage bands and bias ordering hold" if ok else "; ".join(misses)), (
        "Known honest failure at n=5: with the specified proxy grid the "
        "region coverage at n=5 is ~90%%; see the n=5 analysis in "
        "docs/decisions.md (ROADMAP.md open item 3). Misses: %s" % "; ".join(misses)
    )


def test_criterion_8_nuisance_type1():
    misses = []
    details = []
    for n in (5, 10):
        for phi in (1.0, 1.5, 2.0, 2.5, 3.0):
            cfg = ExperimentConfig(
                model="nuisance", mode="power", truth=(1.0, phi), n=n,
                replicates=10_000, m=100,
                master_seed=MASTER_SEED + int(10 * phi) + n,
            )
            res = run_experiment(cfg)
            pw = 100.0 * res.rates["pointwise"]
            lrt = 100.0 * res.rates["lrt"]
            details.append("n=%d phi=%g: pw %.2f lrt %.2f" % (n, phi, pw, lrt))
            if not 3.5 <= pw <= 7.5:
                misses.append("pointwise rate at n=%d phi=%g: %.2f%% outside [3.5, 7.5]"
                              % (n, phi, pw))
            if lrt <= pw:
                misses.append("lrt %.2f <= pointwise %.2f at n=%d phi=%g" % (lrt, pw, n, phi))
    ok = not misses
    assert record(8, "nuisance-model type-I bands", ok,
                  "; ".join(misses) if misses else "; ".join(details)), (
        "Known honest failure at n=5: the size at n=5 is ~8-10%% with the "
        "proxy window phi_hat +/- 10/sqrt(n), and the exact minimum over all "
        "phi gives 5.8-6.7%%, so the excess belongs to the window, not to the "
        "procedure; see the n=5 analysis in docs/decisions.md (ROADMAP.md "
        "open item 3). Details: %s" % "; ".join(details)
    )


def test_criterion_9_ball_power_dominance():
    rows = suite("fig5")
    misses = []
    ns = (5, 10, 30, 100, 200, 1000)
    pw_15 = [rate_of(rows, truth="1.5/0.0/0.0/0.0/0.0", n=n, method="pointwise") for n in ns]
    if any(b < a - 1e-12 for a, b in zip(pw_15, pw_15[1:])):
        misses.append("power at mu=1.5 not nondecreasing: %s" % (pw_15,))
    for mu in ("1.05", "1.2", "1.5"):
        truth = "%s/0.0/0.0/0.0/0.0" % mu
        for n in ns:
            pw = rate_of(rows, truth=truth, n=n, method="pointwise")
            for method in ("split_lrt", "crossfit_lrt"):
                u = rate_of(rows, truth=truth, n=n, method=method)
                if u > pw:
                    misses.append("%s %.4f > pointwise %.4f at mu=%s n=%d"
                                  % (method, u, pw, mu, n))
                # Strict dominance wherever pointwise power is unsaturated.
                elif pw < 1.0 and u >= pw:
                    misses.append("%s not strictly below pointwise at mu=%s n=%d"
                                  % (method, mu, n))
    ok = not misses
    assert record(9, "ball-null power dominance", ok,
                  "pointwise dominates both universal baselines" if ok else "; ".join(misses))


BALL_SUITE_CELLS = [("table2", 1.0, n, 40_000) for n in (5, 10, 30, 100, 1000)] + [
    ("fig5", mu, n, 10_000) for mu in (1.05, 1.2, 1.5) for n in (5, 10, 30, 100, 200, 1000)
]


@pytest.mark.parametrize(
    "name,mu,n,reps", BALL_SUITE_CELLS, ids=["%s-mu%g-n%d" % c[:3] for c in BALL_SUITE_CELLS]
)
def test_ball_pointwise_rate_matches_exact_oracle(name, mu, n, reps):
    # Bonferroni over the 23 cells: 4 standard errors, plus one replicate
    # for cells whose exact rate is 0 or 1.  Fixed before any run.
    import oracles

    exact = oracles.ball_pointwise_rate(mu, n, 0.05)
    got = rate_of(suite(name), truth="%r/0.0/0.0/0.0/0.0" % mu, n=n, method="pointwise")
    bound = 4.0 * math.sqrt(exact * (1.0 - exact) / reps) + 1.0 / reps
    assert abs(got - exact) <= bound, (
        "%s mu=%g n=%d: rate %.5f, exact %.5f, bound %.5f" % (name, mu, n, got, exact, bound)
    )


INTERVAL_SUITE_CELLS = [
    ("fig1", mu, 20) for mu in (-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
] + [("fig2", mu, n) for n in (5, 10, 20, 50, 200) for mu in (0.0, 1.0)]


@pytest.mark.parametrize(
    "name,mu,n", INTERVAL_SUITE_CELLS, ids=["%s-mu%g-n%d" % c for c in INTERVAL_SUITE_CELLS]
)
def test_interval_pointwise_rate_matches_exact_oracle(name, mu, n):
    # Bonferroni over the 19 cells of 10,000 replicates: 4 standard
    # errors, plus one replicate for cells whose exact rate is near 0.
    # Fixed before any run, as for the ball cells.
    import oracles

    reps = 10_000
    exact = oracles.interval_pointwise_rate(mu, n, 0.05)
    got = rate_of(suite(name), truth=repr(mu), n=n, method="pointwise")
    bound = 4.0 * math.sqrt(exact * (1.0 - exact) / reps) + 1.0 / reps
    assert abs(got - exact) <= bound, (
        "%s mu=%g n=%d: rate %.5f, exact %.5f, bound %.5f" % (name, mu, n, got, exact, bound)
    )


def test_criterion_10_subspace_equivalence():
    agree = 0
    total = 1000
    for r in range(total):
        g = RngStream(MASTER_SEED, r).generator
        theta = 0.5 * g.standard_normal(5)
        sample = mvn_ball.MvnSample(theta + g.standard_normal((8, 5)))
        a = references.subspace_pointwise_test(sample, 0.05).reject
        b = references.subspace_lrt_test(sample, 0.05).reject
        agree += a == b
    ok = agree == total
    assert record(10, "pointwise/LRT equivalence on the subspace null", ok,
                  "%d/%d decisions agree" % (agree, total))


def serialize(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_criterion_11_determinism():
    a = serialize(run_suite("fig2", 77, scale=0.02))
    b = serialize(run_suite("fig2", 77, scale=0.02))
    ok = a == b
    assert record(11, "byte-identical deterministic suites", ok,
                  "two runs give identical CSVs" if ok else "outputs differ")
