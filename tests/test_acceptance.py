"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Frozen numeric targets were computed ahead of the build by
scripts/oracle_values.py from closed forms and mpmath root finding.
"""

import math
import time
from dataclasses import replace

import numpy as np

from pinchflow.campaign import run_campaign
from pinchflow.flow import (
    CylinderFlow,
    FlowState,
    HyperbolicSphereFlow,
    ProductSpheresFlow,
    SphereFlow,
    diagnostics,
    evolution_residual,
    quotient_identity_residual,
    simulate,
)
from pinchflow.forms import Dims, gradient_sample, principal_decompose
from pinchflow.lemmas import default_kato_eta
from pinchflow.rescale import invariance_report, rescale
from pinchflow.samplers import SamplerSpec, kato_e_tensor, sample_pinched
from tests.test_flow import FLAT_K, hyperbolic_constants
from tests.test_lemmas import GRADIENT_IDS, REACTION_IDS

# pre-build oracle values (scripts/oracle_values.py)
ORACLE_PRODUCT_AMINUS2 = 0.07133757961783438
ORACLE_PRODUCT_F0 = 1.1145833333333333
ORACLE_PRODUCT_RATIO_CODIM0 = 0.06400380975058044
ORACLE_PRODUCT_RATIO_PINCH0 = 0.14394904458598726
ORACLE_DECAY_FACTOR = 98.99155399466582  # at the first time f >= 100 f(0)
ORACLE_HYPERBOLIC_Q0 = -8.487185004883118


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_li_inequality():
    t0 = time.monotonic()
    total_trials = 0
    worst = math.inf
    violations = 0
    combos = [(n, mm) for n in range(2, 7) for mm in range(1, 5)]
    per_combo = 100_000 // len(combos)
    for idx, (n, mm) in enumerate(combos):
        spec = SamplerSpec(Dims(n, mm + 1), seed=1000 + idx)
        res = run_campaign(spec, ["li"], per_combo, tol=1e-9)[0]
        total_trials += res.trials
        violations += res.violations
        worst = min(worst, res.worst_slack)
    elapsed = time.monotonic() - t0
    ok = violations == 0 and total_trials == 100_000 and elapsed < 60.0
    report(1, "li-matrix-inequality", ok,
           f"{total_trials} trials, worst slack {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_kato_inequality():
    n, m = 8, 3
    spec = SamplerSpec(Dims(n, m), c=1 / 6, seed=2024, eta=default_kato_eta(n))
    results = run_campaign(spec, ["kato.3.1", "kato.3.2"], 10_000)
    violations = sum(r.violations for r in results)
    # the pure-trace minimizer attains |dA|^2 = 3/(n+2) |dH|^2
    worst_eq = 0.0
    for nn in range(5, 11):
        rng = np.random.default_rng(nn)
        dec = principal_decompose(sample_pinched(rng, Dims(nn, 3), 4.0 / (3 * nn), 0.0))
        v = rng.standard_normal((3, nn))
        grad = gradient_sample(dec, kato_e_tensor(Dims(nn, 3), v))
        drift = abs(grad.norm2 - 3.0 / (nn + 2) * grad.nabla_H_norm2)
        worst_eq = max(worst_eq, drift / max(1.0, grad.norm2))
    ok = violations == 0 and worst_eq < 1e-10
    report(2, "kato-inequality", ok,
           f"10000 trials x2, violations {violations}, equality drift {worst_eq:.2e}")


def test_criterion_03_reaction_lemmas():
    spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.0, seed=31415, delta=0.5)
    results = run_campaign(spec, list(REACTION_IDS), 100_000)
    res_d01 = run_campaign(replace(spec, delta=0.1), ["4.14"], 100_000)[0]
    bspec = SamplerSpec(Dims(8, 3), c=1 / 6, d=1.0, seed=27182)
    results += run_campaign(bspec, ["boundary"], 100_000)
    violations = {r.lemma_id: r.violations for r in results}
    violations["4.14@delta=0.1"] = res_d01.violations
    worst = {r.lemma_id: r.worst_slack for r in results}
    ok = all(v == 0 for v in violations.values())
    report(3, "reaction-lemmas+boundary", ok,
           f"10^5 each, violations {violations}, worst {min(worst.values()):.2e}")


def test_criterion_04_gradient_lemmas(tmp_path):
    n = 8
    delta = 1.0 / (5 * n - 8)
    spec = SamplerSpec(Dims(n, 3), c=1 / 6, d=0.0, seed=16180, delta=delta)
    results = run_campaign(spec, list(GRADIENT_IDS), 10_000, counterexample_dir=str(tmp_path))
    violations = {r.lemma_id: r.violations for r in results}
    files = list(tmp_path.iterdir())
    ok = all(v == 0 for v in violations.values()) and not files
    report(4, "gradient-lemmas", ok,
           f"10^4 trials, delta=1/{5*n-8}, violations {violations}, "
           f"counterexamples {len(files)}")


def test_criterion_05_sphere_oracle():
    fam = SphereFlow(8, 2, 2.0)
    series = simulate(fam, FLAT_K, dt=1e-4, t_end=0.2)
    worst_exact = worst_barrier = 0.0
    h0sq = series.H2[0]
    for t, H2 in zip(series.t, series.H2):
        closed = 64.0 / (4.0 - 16.0 * t)
        worst_exact = max(worst_exact, abs(H2 - closed) / closed)
        barrier = 1.0 / (1.0 / h0sq - 2.0 * t / 8.0)
        worst_barrier = max(worst_barrier, abs(H2 - barrier) / barrier)
    ok = (
        worst_exact < 1e-6
        and worst_barrier < 1e-6
        and series.t[-1] >= 0.2 - 1e-9
        and abs(fam.blowup_time() - 0.25) < 1e-15
    )
    report(5, "sphere-oracle", ok,
           f"max |H|^2 drift {worst_exact:.2e}, barrier drift {worst_barrier:.2e}")


def test_criterion_06_evolution_residuals():
    families = [
        SphereFlow(8, 2, 2.0),
        CylinderFlow(8, 2, 1.0),
        ProductSpheresFlow(7, 1, 2, 1.0, 4.0),
        HyperbolicSphereFlow(8, 2, 1.0, -1.0),
    ]
    worst = 0.0
    for fam in families:
        t_hi = 0.5 * fam.blowup_time()
        for i in range(100):
            t = t_hi * i / 99
            res = evolution_residual(FlowState(fam, t, fam.exact_params(t)))
            worst = max(worst, res.residual_A2, res.residual_H2)
    ok = worst < 1e-6
    report(6, "evolution-residuals", ok,
           f"4 families x 100 times, worst relative {worst:.2e}")


def test_criterion_07_pinching_preservation():
    fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
    series = simulate(fam, hyperbolic_constants(), dt=1e-5, t_end=fam.blowup_time())
    q0 = series.Q[0]
    qs = series.Q.tolist()
    ok = (
        abs(q0 - ORACLE_HYPERBOLIC_Q0) < 1e-10
        and abs(q0 - (-8.488)) < 2e-3
        and all(q < 0 for q in qs)
        and all(b < a for a, b in zip(qs, qs[1:]))
        and series.param1[-1] < 0.05  # ran deep towards the stop radius
    )
    report(7, "pinching-preservation", ok,
           f"Q(0) = {q0:.12f}, {len(series)} records, Q stays < 0 and decreases")


def test_criterion_08_codimension_decay():
    fam = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
    series = simulate(fam, FLAT_K, dt=1e-5, t_end=0.0710)
    pinched_initially = (
        abs(series.ratio_pinch[0] - ORACLE_PRODUCT_RATIO_PINCH0) < 1e-10
        and series.ratio_pinch[0] < 1 / 6
        and abs(series.f[0] - ORACLE_PRODUCT_F0) < 1e-10
        and abs(series.Aminus2[0] - ORACLE_PRODUCT_AMINUS2) < 1e-10
    )
    hit = next(i for i, f in enumerate(series.f) if f >= 100.0 * series.f[0])
    factor = series.ratio_codim[0] / series.ratio_codim[hit]
    ok = (
        pinched_initially
        and factor >= 10.0
        and abs(factor - ORACLE_DECAY_FACTOR) / ORACLE_DECAY_FACTOR < 0.05
    )
    report(8, "codimension-decay", ok,
           f"ratio_codim(0) = {series.ratio_codim[0]:.6f}, decay factor {factor:.2f} "
           f"(oracle {ORACLE_DECAY_FACTOR:.2f})")


def test_criterion_09_cylindrical_diagnostics():
    cyl = diagnostics(CylinderFlow(8, 2, 1.0), [0.0], [[1.0]], FLAT_K)
    cylinder_exact = cyl.ratio_cyl[0] == 0.0 and cyl.ratio_pinch[0] == 1 / 7
    fam = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
    series = simulate(fam, FLAT_K, dt=1e-5, t_end=0.0714)
    hit = next(i for i, a in enumerate(series.param1) if a <= 0.05)
    drift = abs(series.ratio_pinch[hit] - 1 / 7)
    ok = cylinder_exact and drift < 1e-3
    report(9, "cylindrical-diagnostics", ok,
           f"static cylinder exact, product drift at a<=0.05: {drift:.2e}")


def test_criterion_10_rescaling():
    fam = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
    recs = simulate(fam, FLAT_K, dt=1e-5, t_end=0.0710)
    worst_fbar = worst_ratio = 0.0
    for base in (0, len(recs) // 3, len(recs) - 1):
        series = rescale(recs, base)
        rep = invariance_report(recs, series)
        worst_fbar = max(worst_fbar, abs(rep.base_fbar - 1.0))
        worst_ratio = max(worst_ratio, rep.max_pinch_drift, rep.max_codim_drift)
    hyp = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
    hrecs = simulate(hyp, hyperbolic_constants(), dt=1e-5, t_end=hyp.blowup_time())
    mags = []
    for target in (10.0, 30.0, 100.0, 300.0, 1000.0):
        base = next(i for i, f in enumerate(hrecs.f) if f >= target)
        series = rescale(hrecs, base, kbar=-1.0)
        mags.append(abs(series.records.kresc[base]))
        worst_fbar = max(worst_fbar, abs(series.records.fbar[base] - 1.0))
    monotone = all(b < a for a, b in zip(mags, mags[1:]))
    ok = worst_fbar <= 1e-12 and worst_ratio <= 1e-12 and monotone
    report(10, "rescaling", ok,
           f"fbar drift {worst_fbar:.1e}, ratio drift {worst_ratio:.1e}, "
           f"Kresc {mags[0]:.2e} -> {mags[-1]:.2e} monotone={monotone}")


def test_criterion_11_quotient_identity():
    residuals = []
    for npts in (256, 512, 1024):
        x = np.linspace(0.0, 2 * np.pi, npts, endpoint=False)
        dx = 2 * np.pi / npts
        w = 2.0 + np.sin(x)
        z = 3.0 + np.cos(x)
        W = np.cos(2 * x)
        Z = np.sin(x)
        residuals.append(
            quotient_identity_residual(w, z, W, Z, dt=dx * dx / 4.0, dx=dx)
        )
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(11, "quotient-identity-convergence", ok,
           f"residuals {[f'{r:.2e}' for r in residuals]}, ratios "
           f"{[f'{r:.2f}' for r in ratios]}")
