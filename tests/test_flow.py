"""Model flow families: exact solutions, integrator, diagnostics, barriers."""

import dataclasses
import hashlib
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import pinchflow.flow
from pinchflow.constants import PinchingConstants
from pinchflow.errors import InvalidConstants, NonpositiveZ, PastBlowup
from pinchflow.flow import (
    CSV_HEADER,
    R_MIN,
    WRITE_ROWS,
    CylinderFlow,
    FlowState,
    HyperbolicSphereFlow,
    ProductSpheresFlow,
    SphereFlow,
    SpheresFlow,
    TimeSeries,
    blowup_bound_check,
    diagnostics,
    evolution_residual,
    exact_state,
    quotient_identity_residual,
    read_csv,
    simulate,
    step_rk4,
    write_csv,
    write_rows,
)
from pinchflow.forms import CHUNK, STACK_BUDGET, Dims
from pinchflow.rescale import rescale

FLAT_K = PinchingConstants(Dims(8, 2), 1 / 6)


def hyperbolic_constants(n=8, m=2, c=1 / 6, d=4.0, kbar=-1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PinchingConstants(Dims(n, m), c, d, Kbar=kbar)


def constants_for(fam):
    return hyperbolic_constants() if fam.kind == "hyperbolic" else FLAT_K


ALL_FAMILIES = [
    SphereFlow(8, 2, 2.0),
    CylinderFlow(8, 2, 1.0),
    ProductSpheresFlow(7, 1, 2, 1.0, 4.0),
    HyperbolicSphereFlow(8, 2, 1.0, -1.0),
]

# records per diagnostics block of simulate at n=8, m=2: (128, 2, 8, 8) forms,
# STACK_BUDGET float64 values (128 KB)
BLOCK = STACK_BUDGET // (2 * 8 * 8)

# sha256 of the "{:.17g},{:.17g},{:.17g}" lines of (t, param1, param2) of the
# product flow at dt=1e-4 to blow-up, recorded from the per-step closure
# version of step_rk4; these columns are IEEE + - * / only, so the digest
# holds on every platform
PRODUCT_RADII_SHA256 = "8c233d888d2c0376b551dbde0e6fcd27fc1013cc2b2029b1b294aabd499f95d2"

# (row, t, param1) of the hyperbolic flow r0=0.5, kbar=-1 at dt=1e-4 to
# t=0.004 (42 rows); its rates and start go through libm's tanh, sinh,
# log1p, expm1 and asinh, so the radii are pinned to HYPERBOLIC_ULPS rather
# than by digest.  A kappa one ulp off moves every pinned radius by 5 or 6
# ulps.
HYPERBOLIC_RADII = [
    (0, 0.0, 0.5),
    (8, 0.0008000000000000001, 0.48598278786768623),
    (16, 0.0016000000000000005, 0.4716095782696309),
    (24, 0.0024, 0.45684662383703345),
    (32, 0.0031999999999999984, 0.4416546898406119),
    (40, 0.0039999999999999975, 0.4259877237894875),
]
HYPERBOLIC_ULPS = 3


def reference_rates(fam, radii):
    """Every radius rate at ``radii`` from one formula per family."""
    if fam.kind == "hyperbolic":
        return (-fam.n * fam.kappa / math.tanh(fam.kappa * radii[0]),)
    return tuple([-k / r for (k, _), r in zip(fam.factors, radii)])


def reference_stage(radii):
    if min(radii) <= R_MIN:
        raise PastBlowup("radius collapsed inside an RK4 stage")
    return radii


def reference_step(fam, params, dt):
    """The new radii of one RK4 step taken on whole lists of radii, stage
    by stage; PastBlowup as step_rk4 raises it."""
    y, half = reference_stage(params), 0.5 * dt
    k1 = reference_rates(fam, y)
    k2 = reference_rates(fam, reference_stage([r + half * s for r, s in zip(y, k1)]))
    k3 = reference_rates(fam, reference_stage([r + half * s for r, s in zip(y, k2)]))
    k4 = reference_rates(fam, reference_stage([r + dt * s for r, s in zip(y, k3)]))
    new = tuple([r + dt / 6.0 * (a + 2 * b + 2 * c + d)
                 for r, a, b, c, d in zip(y, k1, k2, k3, k4)])
    if min(new) <= R_MIN:
        raise PastBlowup("radius fell below r_min")
    return new


def initial_record(fam, constants):
    """The diagnostics of ``fam`` at t = 0 alone."""
    return diagnostics(fam, [0.0], [fam.exact_params(0.0)], constants)


ORACLE_FAMILIES = ALL_FAMILIES + [HyperbolicSphereFlow(5, 3, 0.3, -4.0)]


class TestExactStates:
    def test_sphere(self):
        st = exact_state(SphereFlow(8, 2, 2.0), 0.2)
        assert st.params[0] == pytest.approx(math.sqrt(0.8), rel=1e-15)

    def test_product_initial(self):
        st = exact_state(ProductSpheresFlow(7, 1, 2, 1.0, 4.0), 0.0)
        assert st.params == (1.0, 4.0)

    def test_hyperbolic_cosh_law(self):
        fam = HyperbolicSphereFlow(8, 2, 1.0, -1.0)
        st = exact_state(fam, 0.05)
        assert math.cosh(st.params[0]) == pytest.approx(
            math.cosh(1.0) * math.exp(-0.4), rel=1e-14
        )

    def test_past_blowup(self):
        fam = SphereFlow(8, 2, 2.0)
        assert fam.blowup_time() == pytest.approx(0.25)
        with pytest.raises(PastBlowup):
            exact_state(fam, 0.25)

    def test_more_than_two_factors_rejected(self):
        # the CSV time series has two radius columns
        with pytest.raises(ValueError):
            SpheresFlow(((5, 1.0), (2, 1.0), (1, 1.0)), 0, 3, "product")

    def test_negative_time_allowed(self):
        st = exact_state(SphereFlow(8, 2, 2.0), -0.1)
        assert st.params[0] > 2.0

    @pytest.mark.parametrize("kbar", [-1e-20, -1e-300])
    def test_hyperbolic_nearly_flat_is_the_flat_sphere(self, kbar):
        # cosh(kappa r0) rounds to 1 here, but sinh(kappa r0 / 2) does not:
        # the family is the flat sphere's, r0^2 - 2nt, to rounding
        fam = HyperbolicSphereFlow(8, 2, 1.0, kbar)
        assert fam.blowup_time() == pytest.approx(1 / 16, rel=1e-15)
        assert fam.exact_params(0.0) == (1.0,)
        assert fam.exact_params(0.03)[0] == pytest.approx(math.sqrt(1 - 16 * 0.03), rel=1e-14)

    def test_hyperbolic_blowing_up_at_once_refused(self):
        # 2 sinh^2(kappa r0 / 2) underflows to 0 at the least subnormal kbar
        with pytest.raises(ValueError, match=r"r0=1.0, kbar=-5e-324.*sphere family"):
            HyperbolicSphereFlow(8, 2, 1.0, -5e-324)

    @pytest.mark.parametrize("kbar", [-1.0, -1e-6, -1e-12, -1e-15])
    def test_hyperbolic_exact_to_4_ulps(self, kbar):
        # r(t) = acosh(cosh(kappa r0) e^{n kbar t}) / kappa and
        # T = log cosh(kappa r0) / (n kappa^2) at 200 bits, r0 = 1, n = 8;
        # t up to T/2, where the rounding of n kbar t costs at most 2 ulps
        mpmath = pytest.importorskip("mpmath")
        fam = HyperbolicSphereFlow(8, 2, 1.0, kbar)
        with mpmath.workprec(200):
            k, kappa = mpmath.mpf(kbar), mpmath.sqrt(-mpmath.mpf(kbar))
            T = float(mpmath.log(mpmath.cosh(kappa)) / (8 * -k))
            assert abs(fam.blowup_time() - T) <= 4 * math.ulp(T)
            for t in (0.0, T / 8, T / 4, T / 2):
                r = float(mpmath.acosh(mpmath.cosh(kappa) * mpmath.exp(8 * k * t)) / kappa)
                assert abs(fam.exact_params(t)[0] - r) <= 4 * math.ulp(r), t


    # r**2 or sinh(kappa r0 / 2)**2 overflows, so the blow-up time is no float
    @pytest.mark.parametrize("build, named", [
        (lambda: HyperbolicSphereFlow(8, 2, 1000.0, -1.0), "r0=1000.0, kbar=-1.0"),
        (lambda: HyperbolicSphereFlow(8, 2, 1.0, -1e300), "r0=1.0, kbar=-1e+300"),
        (lambda: SphereFlow(8, 2, 1e200), "sphere family at r_1=1e+200"),
        (lambda: CylinderFlow(8, 2, 1e155), "cylinder family at r_1=1e+155"),
        (lambda: ProductSpheresFlow(7, 1, 2, 1.0, 1e200), "r_1=1.0, r_2=1e+200"),
    ], ids=["hyperbolic-r0", "hyperbolic-kbar", "sphere", "cylinder", "product"])
    def test_overflowing_parameters_rejected(self, build, named):
        with pytest.raises(ValueError, match=re.escape(named) + ".*not a finite positive"):
            build()


class TestRK4:
    def test_single_step_matches_exact(self):
        fam = SphereFlow(8, 2, 2.0)
        st = step_rk4(exact_state(fam, 0.0), 1e-4)
        assert st.params[0] == pytest.approx(fam.exact_params(1e-4)[0], abs=1e-12)

    def test_step_past_blowup(self):
        fam = SphereFlow(8, 2, 2.0)
        with pytest.raises(PastBlowup):
            step_rk4(exact_state(fam, 0.24), 0.02)

    def test_product_global_error(self):
        fam = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
        st = exact_state(fam, 0.0)
        steps = 500
        for _ in range(steps):
            st = step_rk4(st, 1e-4)
        exact = fam.exact_params(st.t)
        assert abs(st.params[0] - exact[0]) < 1e-10
        assert abs(st.params[1] - exact[1]) < 1e-10

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-4])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be a positive finite step"):
            step_rk4(exact_state(SphereFlow(8, 2, 2.0), 0.0), dt)

    def test_product_radii_pinned(self):
        fam = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
        series = simulate(fam, FLAT_K, dt=1e-4, t_end=fam.blowup_time())
        text = "".join("{:.17g},{:.17g},{:.17g}\n".format(*row) for row in zip(
            series.t.tolist(), series.param1.tolist(), series.param2.tolist()))
        assert len(series) == 831
        assert hashlib.sha256(text.encode()).hexdigest() == PRODUCT_RADII_SHA256

    def test_hyperbolic_radii_pinned(self):
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        series = simulate(fam, hyperbolic_constants(), dt=1e-4, t_end=0.004)
        assert len(series) == 42
        for row, t, radius in HYPERBOLIC_RADII:
            assert series.t[row] == t
            assert abs(series.param1[row] - radius) <= HYPERBOLIC_ULPS * math.ulp(radius), row

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_one_step_per_call(self, fam):
        # every simulate record is one step_rk4 call of a reference loop
        # under the same halving rule, bit for bit; to blow-up, so the run
        # halves its step and ends in a failed step
        dt, t_end = 1e-4, fam.blowup_time()
        states, step = [exact_state(fam, 0.0)], dt
        while states[-1].t < t_end:
            state = states[-1]
            while step > 1e-12 and any(
                    r < 10.0 * step * abs(v)
                    for r, v in zip(state.params, reference_rates(fam, state.params))):
                step *= 0.5
            try:
                states.append(step_rk4(state, min(step, t_end - state.t)))
            except PastBlowup:
                break
        series = simulate(fam, constants_for(fam), dt=dt, t_end=t_end)
        assert step < dt and states[-1].t < t_end
        assert series.t.tolist() == [s.t for s in states]
        assert series.param1.tolist() == [s.params[0] for s in states]
        param2 = [s.params[1] if len(s.params) > 1 else math.nan for s in states]
        assert np.array_equal(series.param2, param2, equal_nan=True)

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_tracks_exact_over_half_lifespan(self, fam):
        # fixed-step RK4 at dt = 1e-4 stays within 1e-9 relative
        st = exact_state(fam, 0.0)
        t_half = 0.5 * fam.blowup_time()
        while st.t < t_half:
            st = step_rk4(st, min(1e-4, t_half - st.t))
        exact = fam.exact_params(st.t)
        for got, want in zip(st.params, exact):
            assert abs(got - want) / want < 1e-9


class TestStepOracle:
    """step_rk4 against the whole-list reference step, bit for bit."""

    @staticmethod
    def radii(fam, rng, dt, near_collapse):
        """Random radii in units of sqrt(2 k dt), the radius that a rate
        -k/r takes to 0 in one step: from 3 to 3000 of them, or near
        collapse one radius from 0 to 1.5 of them."""
        ks = [fam.n] if fam.kind == "hyperbolic" else [k for k, _ in fam.factors]
        units = [float(10.0 ** rng.uniform(0.5, 3.5)) for _ in ks]
        if near_collapse:
            units[int(rng.integers(len(ks)))] = float(rng.uniform(0.0, 1.5))
        return tuple(u * math.sqrt(2.0 * k * dt) for u, k in zip(units, ks))

    @pytest.mark.parametrize("near_collapse", [False, True], ids=["bulk", "collapse"])
    @pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=lambda f: f"{f.kind}-n{f.n}")
    def test_matches_reference_step(self, fam, near_collapse):
        rng = np.random.default_rng([7, len(fam.radius_rates), fam.n, int(near_collapse)])
        raised = 0
        for _ in range(400):
            dt = float(10.0 ** rng.uniform(-8, -2))
            params = self.radii(fam, rng, dt, near_collapse)
            try:
                want = reference_step(fam, params, dt)
            except PastBlowup:
                want = None
            state = FlowState(fam, 0.5, params)
            if want is None:
                with pytest.raises(PastBlowup):
                    step_rk4(state, dt)
            else:
                assert step_rk4(state, dt) == FlowState(fam, 0.5 + dt, want)
            raised += want is None
        # near collapse both outcomes occur; in the bulk a step never fails
        assert (0 < raised < 400) if near_collapse else raised == 0

    @pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=lambda f: f"{f.kind}-n{f.n}")
    def test_collapse_boundary(self, fam):
        # bisect the first radius to the two floats where the reference
        # step starts to fail: from the lower one it lands in (0, R_MIN],
        # with every stage still above R_MIN
        dt, rest = 1e-4, fam.exact_params(0.0)[1:]
        lo, hi = R_MIN, 1.0
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            try:
                reference_step(fam, (mid, *rest), dt)
                hi = mid
            except PastBlowup:
                lo = mid
        for r in (0.0, R_MIN, lo):
            with pytest.raises(PastBlowup):
                step_rk4(FlowState(fam, 0.0, (r, *rest)), dt)
        want = reference_step(fam, (hi, *rest), dt)
        assert step_rk4(FlowState(fam, 0.0, (hi, *rest)), dt).params == want

    @pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=lambda f: f"{f.kind}-n{f.n}")
    def test_stepped_state_equals_user_built_one(self, fam):
        # to blow-up at dt = 1e-3: a chain of steps is the chain of
        # reference steps, and each stepped state is the one a user builds
        # from its time and radii
        dt, want = 1e-3, fam.exact_params(0.0)
        state = FlowState(fam, 0.0, want)
        while True:
            try:
                want = reference_step(fam, want, dt)
            except PastBlowup:
                with pytest.raises(PastBlowup):
                    step_rk4(state, dt)
                break
            stepped = step_rk4(state, dt)
            assert stepped == FlowState(fam, state.t + dt, want)
            state = stepped
        assert state.t > 0.5 * fam.blowup_time()


class TestDiagnostics:
    def test_sphere_record(self):
        rec = initial_record(SphereFlow(8, 2, 2.0), FLAT_K)
        assert rec.ratio_pinch[0] == pytest.approx(1 / 8, abs=1e-15)
        assert rec.f[0] == pytest.approx(2 / 3, abs=1e-13)
        assert rec.ratio_codim[0] == pytest.approx(0.0, abs=1e-15)
        assert math.isnan(rec.Q[0])

    def test_static_cylinder_exact_ratios(self):
        rec = initial_record(CylinderFlow(8, 2, 1.0), FLAT_K)
        assert rec.ratio_cyl[0] == 0.0
        assert rec.ratio_pinch[0] == 1 / 7

    def test_product_record_frozen(self):
        rec = initial_record(ProductSpheresFlow(7, 1, 2, 1.0, 4.0), FLAT_K)
        assert rec.f[0] == pytest.approx(1.1145833333333321, abs=1e-12)
        assert rec.Aminus2[0] == pytest.approx(0.07133757961783438, abs=1e-12)
        assert rec.ratio_codim[0] == pytest.approx(0.06400380975058044, abs=1e-12)

    def test_hyperbolic_Q(self):
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        rec = initial_record(fam, hyperbolic_constants())
        assert rec.Q[0] == pytest.approx(-8.487185004883118, abs=1e-11)
        assert rec.f[0] == pytest.approx(-rec.Q[0], rel=1e-12)  # kbar = -1 makes f = -Q

    def test_kbar_mismatch_rejected(self):
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        with pytest.raises(InvalidConstants):
            initial_record(fam, hyperbolic_constants(kbar=-2.0))


class TestEvolutionResiduals:
    def test_sphere_reaction_value(self):
        res = evolution_residual(exact_state(SphereFlow(8, 2, 2.0), 0.0))
        assert res.reaction_H2 == pytest.approx(64.0, abs=1e-12)
        assert res.residual_H2 < 1e-6 and res.residual_A2 < 1e-6

    def test_hyperbolic_closed_form(self):
        # d|H|^2/dt = 2 n^3 coth(r)^2 / sinh(r)^2 for kbar = -1
        fam = HyperbolicSphereFlow(8, 2, 1.0, -1.0)
        res = evolution_residual(exact_state(fam, 0.0))
        r = 1.0
        expected = 2 * 8**3 / math.tanh(r) ** 2 / math.sinh(r) ** 2
        assert res.reaction_H2 == pytest.approx(expected, rel=1e-12)
        assert res.dH2_dt == pytest.approx(expected, rel=1e-6)

    def test_cylinder_shrinking(self):
        res = evolution_residual(exact_state(CylinderFlow(8, 2, 1.0), 0.01))
        assert res.residual_A2 < 1e-6 and res.residual_H2 < 1e-6

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_sampled_times(self, fam):
        for i in range(20):
            t = 0.5 * fam.blowup_time() * i / 19
            res = evolution_residual(FlowState(fam, t, fam.exact_params(t)))
            assert res.residual_A2 < 1e-6
            assert res.residual_H2 < 1e-6


class TestBlowupBarrier:
    def test_sphere_equality(self):
        v = blowup_bound_check(SphereFlow(8, 2, 2.0))
        assert v.barrier_ok and v.equality and v.tmax_ok

    def test_product_strict(self):
        v = blowup_bound_check(ProductSpheresFlow(7, 1, 2, 1.0, 4.0))
        assert v.barrier_ok and not v.equality and v.tmax_ok
        assert v.worst_margin >= 0

    def test_hyperbolic_flat_barrier_fails_adjusted_holds(self):
        # with kbar < 0 the flat-model barrier overestimates |H|^2 (the
        # 2n kbar |H|^2 term in the evolution is negative); the family
        # saturates the curvature-adjusted barrier instead
        v = blowup_bound_check(HyperbolicSphereFlow(8, 2, 0.5, -1.0))
        assert not v.barrier_ok
        assert not v.tmax_ok
        assert v.adjusted_ok
        assert abs(v.worst_adjusted_margin) < 1e-9

    def test_adjusted_matches_flat_when_flat(self):
        v = blowup_bound_check(CylinderFlow(8, 2, 1.0))
        assert v.barrier_ok == v.adjusted_ok


class TestSimulate:
    def test_sphere_pinching_preserved(self):
        series = simulate(SphereFlow(8, 2, 2.0), FLAT_K, dt=1e-3, t_end=0.24)
        assert all(f > 0 for f in series.f)
        fs = series.f.tolist()
        assert fs == sorted(fs)  # f grows towards blow-up
        assert all(abs(r - 1 / 8) < 1e-12 for r in series.ratio_pinch)

    def test_hyperbolic_Q_decreasing_negative(self):
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        series = simulate(fam, hyperbolic_constants(), dt=1e-5, t_end=fam.blowup_time())
        qs = series.Q.tolist()
        assert all(q < 0 for q in qs)
        assert all(b < a for a, b in zip(qs, qs[1:]))

    def test_hyperbolic_Q_ode_barrier(self):
        # dQ/dt <= -(2/n)/(c - 1/n) Q^2 integrates to Q(t) <= 1/(1/Q0 + 6t)
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        series = simulate(fam, hyperbolic_constants(), dt=1e-5, t_end=fam.blowup_time())
        q0 = series.Q[0]
        for t, q in zip(series.t[1:], series.Q[1:]):
            bound = 1.0 / (1.0 / q0 + 6.0 * t)
            assert q <= bound * (1 - 1e-9)

    def test_product_codim_ratio_decays(self):
        fam = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
        series = simulate(fam, FLAT_K, dt=1e-4, t_end=0.0712, every=2)
        hit = next(i for i, f in enumerate(series.f) if f >= 100.0)
        assert series.ratio_codim[hit] < series.ratio_codim[0]

    def test_step_cap(self, monkeypatch):
        # ceil(min(t_end, T) / dt) fixed steps, T the blow-up time, are taken
        # up to MAX_STEPS and refused past it, an infinite count (the count
        # overflowing) included
        monkeypatch.setattr(pinchflow.flow, "MAX_STEPS", 10)
        fam, dt = SphereFlow(8, 2, 2.0), 2.0**-10
        assert fam.blowup_time() == 0.25
        assert len(simulate(fam, FLAT_K, dt, 10 * dt)) == 11
        with pytest.raises(ValueError, match=r"dt=0.0009765625 takes 11 fixed steps, "
                                             r"more than MAX_STEPS=10"):
            simulate(fam, FLAT_K, dt, 10.5 * dt)
        # past T only the steps to T count: 8 of 1/32 run to blow-up, and
        # 256 of 2^-10 are refused whatever t_end is, inf included
        series = simulate(fam, FLAT_K, 1 / 32, 1e300)
        assert 0.2 < series.t[-1] < 0.25
        for t_end, step, steps in ((math.inf, dt, 256), (1e300, dt, 256), (1e300, 5e-324, "inf")):
            named = (f"t_end={t_end} at dt={step} takes {steps} fixed steps, more than "
                     f"MAX_STEPS=10, counted to min(t_end, blow-up time 0.25)")
            with pytest.raises(ValueError, match=re.escape(named)):
                simulate(fam, FLAT_K, step, t_end)

    def test_radius_guard_stops(self):
        fam = SphereFlow(8, 2, 0.05)
        series = simulate(fam, FLAT_K, dt=1e-4, t_end=1.0)
        assert series.param1[-1] > 0

    # about one block and about eight blocks (1024 records) at n=8, m=2
    @pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                       8 * BLOCK - 1, 8 * BLOCK, 8 * BLOCK + 1])
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_chunks_match_one_point_diagnostics(self, fam, count):
        # every third of 3 * count steps is recorded after the initial
        # record; the half step after them is not.  Block-sized runs take a
        # smaller step to stay short of blow-up
        dt, every = (1e-4 if count < BLOCK - 1 else 1e-5), 3
        constants = constants_for(fam)
        series = simulate(fam, constants, dt=dt, t_end=(every * count + 0.5) * dt, every=every)
        assert len(series) == count + 1
        for i in range(len(series)):
            params = tuple(p for p in (series.param1[i], series.param2[i]) if not math.isnan(p))
            alone = diagnostics(fam, [series.t[i]], [params], constants)
            for field in dataclasses.fields(series):
                got, want = getattr(series, field.name)[i], getattr(alone, field.name)[0]
                assert got == want or (math.isnan(got) and math.isnan(want)), field.name

    @pytest.mark.parametrize("fam, block", [
        (SphereFlow(8, 2, 2.0), BLOCK),
        (SphereFlow(16, 16, 2.0), CHUNK),  # STACK_BUDGET // 16**3 is below CHUNK
        (SphereFlow(5, 1, 2.0), STACK_BUDGET // 25),
    ], ids=["n8m2", "n16m16", "n5m1"])
    def test_diagnostics_blocks_of_at_most_1_MB(self, fam, block, monkeypatch):
        sizes = []

        def spy(family, t, params, constants):
            sizes.append(len(t))
            return diagnostics(family, t, params, constants)

        monkeypatch.setattr(pinchflow.flow, "diagnostics", spy)
        dt, every = 1e-5, 3
        constants = PinchingConstants(Dims(fam.n, fam.m), 1 / 2)
        series = simulate(fam, constants, dt=dt, t_end=(every * (2 * block + 5) + 0.5) * dt,
                          every=every)
        assert sizes == [1, block, block, 5] and len(series) == 2 * block + 6

    def test_memory_per_record(self):
        # blocks are evaluated as they fill, so a run holds its records'
        # columns, twice while they are joined, and no list of every step
        fam = SphereFlow(8, 2, 1.0)
        tracemalloc.start()
        try:
            series = simulate(fam, FLAT_K, dt=2.5e-6, t_end=fam.blowup_time())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) > 20_000
        assert peak / len(series) < 250, peak / len(series)

    def test_kbar_mismatch_raised_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped before the constants were checked")

        monkeypatch.setattr(pinchflow.flow, "_rk4_radii", no_step)
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        with pytest.raises(InvalidConstants):
            simulate(fam, hyperbolic_constants(kbar=-2.0), dt=1e-4, t_end=0.01)


class TestQuotientIdentity:
    def _grids(self, npts):
        x = np.linspace(0.0, 2 * np.pi, npts, endpoint=False)
        return x, 2 * np.pi / npts

    def test_w_equals_z(self):
        x, dx = self._grids(128)
        w = 2.0 + np.sin(x)
        source = np.cos(3 * x)
        res = quotient_identity_residual(w, w, source, source, dt=1e-5, dx=dx)
        assert res < 1e-12

    def test_constant_denominator_discrete_exact(self):
        x, dx = self._grids(128)
        w = 2.0 + np.sin(x)
        z = np.full_like(w, 2.0)
        res = quotient_identity_residual(w, z, np.cos(x), np.zeros_like(w), 1e-5, dx)
        # only cancellation noise from the time difference remains; the
        # O(dx^2) stencil error (~1e-3 here) cancels identically
        assert res < 5e-10

    def test_second_order_convergence(self):
        residuals = []
        for npts in (256, 512, 1024):
            x, dx = self._grids(npts)
            w = 2.0 + np.sin(x)
            z = 3.0 + np.cos(x)
            W = np.cos(2 * x)
            Z = np.sin(x)
            residuals.append(
                quotient_identity_residual(w, z, W, Z, dt=dx * dx / 4.0, dx=dx)
            )
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_nonpositive_z(self):
        x, dx = self._grids(64)
        with pytest.raises(NonpositiveZ):
            quotient_identity_residual(
                np.ones_like(x), np.sin(x), np.zeros_like(x), np.zeros_like(x), 1e-5, dx
            )


def reference_rows(series):
    """The CSV text of ``series``, formatted one value at a time."""
    rows = (",".join(format(x, ".17g") for x in row).replace("nan", "NaN") + "\n"
            for row in zip(*(col.tolist() for col in series.columns())))
    return series.header + "\n" + "".join(rows)


def writer_series(name):
    product = simulate(ProductSpheresFlow(7, 1, 2, 1.0, 4.0), FLAT_K, 1e-4, 0.0712)
    if name == "product":
        return product
    if name == "hyperbolic":  # 1613 rows, more than one formatting block
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        return simulate(fam, hyperbolic_constants(), dt=1e-5, t_end=fam.blowup_time())
    if name == "rescaled":
        return rescale(product, 400, kbar=-1.0).records
    if name == "inf":
        f = product.f.copy()
        f[[0, 3, 7]] = [math.inf, -math.inf, -0.0]
        return dataclasses.replace(product, f=f)
    # two blocks and one row of values over the whole float range
    rng = np.random.default_rng(11)
    rows = 2 * WRITE_ROWS + 1
    cols = rng.standard_normal((12, rows)) * 10.0 ** rng.integers(-320, 300, (12, rows))
    cols[1, :9] = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 2.0**53 + 2, 1e22]
    if name == "nan-block":  # NaN throughout the first block and in the one-row last block
        cols[4, :WRITE_ROWS] = math.nan
        cols[8, -1] = math.nan
    elif name == "nan-mixed":  # each block: an all-NaN column beside partly-NaN ones
        cols[6] = math.nan
        cols[9, 5::7] = math.nan
    elif name == "all-nan":  # no value left to format in the first block
        cols[:, :WRITE_ROWS] = math.nan
    return TimeSeries(*cols)


class TestCsv:
    @pytest.mark.parametrize("name", ["product", "hyperbolic", "rescaled", "inf", "long",
                                      "nan-block", "nan-mixed", "all-nan"])
    def test_writer_matches_per_row_reference(self, name, tmp_path):
        series = writer_series(name)
        out = io.StringIO()
        write_rows(series, out)
        got, want = out.getvalue().split("\n"), reference_rows(series).split("\n")
        # the first differing line, not a diff of the whole text
        bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        assert bad is None, (bad, got[bad], want[bad])
        assert len(got) == len(want)
        if name != "rescaled":  # read_csv reads the flow header only
            path = tmp_path / "series.csv"
            path.write_text(out.getvalue())
            back = read_csv(str(path))
            for got, want in zip(back.columns(), series.columns()):
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_header_only_file_is_an_empty_series(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = read_csv(str(path))
        assert len(series) == 0
        assert all(col.shape == (0,) for col in series.columns())

    def test_roundtrip(self, tmp_path):
        series = simulate(ProductSpheresFlow(7, 1, 2, 1.0, 4.0), FLAT_K, 1e-3, 0.05, 5)
        path = str(tmp_path / "series.csv")
        write_csv(series, path)
        back = read_csv(path)
        assert len(back) == len(series)
        # 17 significant digits round-trip floats exactly
        assert np.array_equal(series.t, back.t)
        assert np.array_equal(series.param1, back.param1)
        assert np.array_equal(series.param2, back.param2)
        assert np.array_equal(series.Aminus2, back.Aminus2)
        assert all(math.isnan(q) for q in back.Q)

    def test_header_and_nan(self, tmp_path):
        series = simulate(SphereFlow(8, 2, 2.0), FLAT_K, 1e-3, 0.01)
        path = str(tmp_path / "sphere.csv")
        write_csv(series, path)
        with open(path) as fh:
            header = fh.readline().strip()
            row = fh.readline().strip()
        assert header == "t,param1,param2,A2,H2,h2,Aminus2,f,Q,ratio_pinch,ratio_codim,ratio_cyl"
        fields = row.split(",")
        assert fields[2] == "NaN" and fields[8] == "NaN"

    def test_blank_and_crlf_lines_read_as_plain_ones(self, tmp_path):
        # blank, whitespace-only and CRLF-ended lines anywhere after the
        # header, the trailing newline dropped: the same series
        series = writer_series("product")
        out = io.StringIO()
        write_rows(series, out)
        header, *rows = out.getvalue().splitlines()
        text = "\r\n".join([header, "", *rows[:5], "  \t", "", *rows[5:], " "])
        path = tmp_path / "spaced.csv"
        path.write_bytes(text.encode())
        back = read_csv(str(path))
        for got, want in zip(back.columns(), series.columns()):
            assert np.array_equal(got, want, equal_nan=True)

    # a bad value after blank lines is named by its file line and field;
    # loadtxt, unlike float(), refuses "1_0"
    @pytest.mark.parametrize("token", ["H2", "1_0", "", "0x10"])
    def test_unreadable_value_names_its_line_and_field(self, token, tmp_path):
        rows = [",".join(["1.5"] * 12)] * 6
        rows[4] = ",".join(["1.5"] * 4 + [token] + ["1.5"] * 7)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([CSV_HEADER, "", *rows[:2], " ", "", *rows[2:]]) + "\n")
        with pytest.raises(ValueError) as raised:
            read_csv(str(path))
        assert str(raised.value) == (f"line 9, field 5: could not convert string "
                                     f"{token!r} to float64")

    def test_row_of_wrong_width_names_its_line(self, tmp_path):
        rows = [",".join(["1.5"] * 12)] * 4
        path = tmp_path / "wide.csv"
        path.write_text("\n".join([CSV_HEADER, *rows, "", rows[0] + ",2.5"]) + "\n")
        with pytest.raises(ValueError, match=r"^line 7: 13 fields, the header has 12$"):
            read_csv(str(path))

    def test_read_holds_less_than_the_file(self, tmp_path):
        # about 40k rows of a product flow: the rows stream into NumPy, so
        # the traced peak is the table, not the file's text and lines
        fam = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
        path = tmp_path / "long.csv"
        write_csv(simulate(fam, FLAT_K, 1.75e-6, fam.blowup_time()), str(path))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            series = read_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) > 40_000
        assert peak < size, (peak, size)
