"""Pinching coefficients, the d lower bound, kappa, f and Q."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pinchflow.constants import (
    PinchingConstants,
    c_n,
    d_lower_bound,
    kappa_n,
    pinching_Q,
    pinching_f,
    space_form_d_lower,
)
from pinchflow.errors import (
    InvalidConstants,
    NonpositiveKappa,
    UnsupportedDimension,
)
from pinchflow.forms import Dims, mean_curvature, principal_decompose
from pinchflow.samplers import symmetric_gaussian
from tests.test_forms import sphere_form


class TestCoefficient:
    def test_values(self):
        assert c_n(8, "general") == Fraction(1, 6)
        assert c_n(5, "general") == Fraction(4, 15)
        assert c_n(5, "codim_estimate") == Fraction(9, 35)
        assert c_n(12, "codim_estimate") == Fraction(1, 9)

    def test_small_dimension_rejected(self):
        with pytest.raises(UnsupportedDimension):
            c_n(4, "general")

    def test_regime_consistency(self):
        # both constants exceed 1/n for every stated dimension; up to n = 8
        # the codimension-estimate constant is the tighter one (for n >= 9
        # the general constant switches to 1/(n-2) and drops below it)
        for n in range(5, 13):
            gen, codim = c_n(n, "general"), c_n(n, "codim_estimate")
            assert gen > Fraction(1, n) and codim > Fraction(1, n)
            if n <= 8:
                assert codim <= gen
            else:
                assert gen == Fraction(1, n - 2) < codim


class TestDLowerBound:
    def test_flat_is_zero(self):
        assert d_lower_bound(8, 2, 1 / 6, 0.0, 0.0, 0.0) == 0.0

    def test_frozen_value(self):
        # recomputed independently in scripts/oracle_values.py
        val = d_lower_bound(8, 2, 1 / 6, 1.0, 1.0, 0.0)
        assert val == pytest.approx(31.458333333333333, rel=1e-14)

    def test_three_branches_visible(self):
        # branch structure: with L = 0 the third branch collapses to
        # n (c - 1/n) C3 / 2, which the frozen case confirms numerically
        n, c = 8, 1 / 6
        g = c - 1 / n
        C3 = 2 * (n * c * 1.0 + 1.0) / g
        third = n * g / 4 * (C3 + math.sqrt(C3**2))
        assert third == pytest.approx(n * g * C3 / 2, rel=1e-15)

    def test_monotone_in_bounds(self):
        grid = np.linspace(0.0, 2.0, 5)
        prev_by_axis = {}
        for i, K1 in enumerate(grid):
            for j, K2 in enumerate(grid):
                for k, L in enumerate(grid):
                    val = d_lower_bound(8, 3, 1 / 6, K1, K2, L)
                    for axis, idx in (("K1", (j, k, 0, i)), ("K2", (i, k, 1, j)),
                                      ("L", (i, j, 2, k))):
                        key = idx[:3]
                        pos = idx[3]
                        if (axis, key) in prev_by_axis and pos > 0:
                            assert val >= prev_by_axis[(axis, key)] - 1e-12
                        prev_by_axis[(axis, key)] = val

    def test_invalid_constants(self):
        with pytest.raises(InvalidConstants):
            d_lower_bound(8, 2, 1 / 8, 1.0, 1.0, 0.0)
        with pytest.raises(InvalidConstants):
            d_lower_bound(8, 2, 1 / 6, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bounds", [(1 / 6, 1.0, 1.0, math.nan), (1 / 6, math.inf, 0.0, 0.0),
                                        (1 / 6, math.nan, 0.0, 0.0), (1 / 6, 0.0, -math.inf, 0.0),
                                        (math.nan, 1.0, 1.0, 1.0), (math.inf, 0.0, 0.0, 0.0)])
    def test_non_finite_refused(self, bounds):
        # max() dropped a NaN L, and an infinite K1 gave d_lower = inf
        with pytest.raises(InvalidConstants, match="need finite c, K1, K2, L"):
            d_lower_bound(8, 2, *bounds)


class TestKappa:
    def test_values(self):
        assert kappa_n(8, 1 / 6) == pytest.approx(3 / 10 - 1 / 6, rel=1e-15)
        assert kappa_n(10, 1 / 8) == pytest.approx(1 / 8, rel=1e-15)

    def test_boundary_violated(self):
        with pytest.raises(NonpositiveKappa):
            kappa_n(5, 3 / 7)


class TestPinchingQuantities:
    def test_f_sphere(self):
        dec = principal_decompose(sphere_form())
        k = PinchingConstants(Dims(8, 2), 1 / 6)
        assert pinching_f(dec, k) == pytest.approx(2 / 3, abs=1e-14)

    def test_f_cylinder(self):
        # S^7(1) x R: |A|^2 = 7, |H|^2 = 49
        comps = np.zeros((2, 8, 8))
        comps[0, :7, :7] = np.eye(7)
        from pinchflow.forms import SecondFundamentalForm

        A = SecondFundamentalForm.from_components(comps)
        k = PinchingConstants(Dims(8, 2), 1 / 6)
        assert pinching_f(principal_decompose(A), k) == pytest.approx(
            49 / 6 - 7, abs=1e-13
        )

    def test_f_boundary_zero(self):
        from tests.test_reaction import boundary_forms

        A = boundary_forms(Dims(8, 2), 1 / 6, 1.0, 3, 1)
        k = PinchingConstants(Dims(8, 2), 1 / 6, 1.0)
        assert pinching_f(principal_decompose(A), k) == pytest.approx(0.0, abs=1e-10)

    def test_Q_hyperbolic_frozen(self):
        # umbilic geodesic sphere r = 0.5: |h|^2 = n coth(r)^2
        lam = 1.0 / math.tanh(0.5)
        comps = np.zeros((2, 8, 8))
        comps[0] = lam * np.eye(8)
        from pinchflow.forms import SecondFundamentalForm

        A = SecondFundamentalForm.from_components(comps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            k = PinchingConstants(Dims(8, 2), 1 / 6, 4.0, Kbar=-1.0)
        q = pinching_Q(principal_decompose(A), k)
        assert q == pytest.approx(-8.487185004883118, abs=1e-12)
        assert q == pytest.approx(-8.488, abs=2e-3)

    def test_Q_flat_offset_drops(self):
        rng = np.random.default_rng(4)
        A = symmetric_gaussian(rng, Dims(8, 3))
        dec, H = principal_decompose(A), mean_curvature(A)
        k = PinchingConstants(Dims(8, 3), 1 / 6, 5.0, Kbar=0.0)
        assert pinching_Q(dec, k) == pytest.approx(
            dec.a_ring2 - (1 / 6 - 1 / 8) * H.norm2, rel=1e-13
        )

    def test_Q_round_sphere_negative(self):
        dec = principal_decompose(sphere_form())
        k = PinchingConstants(Dims(8, 2), 1 / 6, 0.0, Kbar=0.0)
        assert pinching_Q(dec, k) == pytest.approx(-(1 / 6 - 1 / 8) * 16, abs=1e-12)

    def test_Q_requires_space_form(self):
        dec = principal_decompose(sphere_form())
        with pytest.raises(InvalidConstants):
            pinching_Q(dec, PinchingConstants(Dims(8, 2), 1 / 6))

    def test_pinching_norm_identity(self):
        # ((nc - 1)/n)|H|^2 = |A^-|^2 + |h_ring|^2 + f + d
        rng = np.random.default_rng(12)
        for _ in range(200):
            n, m = rng.integers(2, 9), rng.integers(1, 5)
            A = symmetric_gaussian(rng, Dims(int(n), int(m)))
            try:
                dec = principal_decompose(A)
            except Exception:
                continue
            H = mean_curvature(A)
            c = float(rng.uniform(1 / n + 0.01, 1.0))
            d = float(rng.uniform(0, 3))
            f = c * H.norm2 - dec.a2 - d
            lhs = (n * c - 1) / n * H.norm2
            rhs = dec.a_minus2 + dec.h_ring2 + f + d
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestSpaceFormPreservationConstants:
    def test_coefficients_at_threshold(self):
        # with c <= min{4/(3n), 3/(n+2)} and d >= 2n - 2/c:
        #   d/(nc-1) + d - 2n >= 0  and  d/(nc-1) - n >= 2/c - n >= 0;
        # at c = 4/(3n), d = 2n - 2/c the second margin equals n/2 exactly
        for n in range(5, 13):
            c = min(4 / (3 * n), 3 / (n + 2))
            d = space_form_d_lower(n, c)
            coeff1 = d / (n * c - 1) + d - 2 * n
            coeff2 = d / (n * c - 1) - n
            assert coeff1 >= -1e-10
            assert coeff2 >= 2 / c - n - 1e-10
            assert 2 / c - n >= -1e-12
            for extra in (0.5, 3.0):
                d2 = d + extra
                assert d2 / (n * c - 1) + d2 - 2 * n >= coeff1
        n = 8
        c = 4 / (3 * n)
        d = space_form_d_lower(n, c)
        assert d / (n * c - 1) - n == pytest.approx(n / 2, rel=1e-13)


    @pytest.mark.parametrize("c", [0.0, 0.1, 1 / 8])
    def test_d_lower_needs_c_above_one_over_n(self, c):
        with pytest.raises(InvalidConstants, match="need c > 1/n"):
            space_form_d_lower(8, c)


class TestPinchingConstantsValidation:
    def test_c_too_small(self):
        with pytest.raises(InvalidConstants):
            PinchingConstants(Dims(8, 2), 1 / 8)

    def test_negative_d_flat(self):
        with pytest.raises(InvalidConstants):
            PinchingConstants(Dims(8, 2), 1 / 6, -1.0)

    def test_space_form_floor(self):
        with pytest.raises(InvalidConstants):
            PinchingConstants(Dims(8, 2), 1 / 6, 1.0, Kbar=-1.0)
        with pytest.warns(UserWarning):
            PinchingConstants(Dims(8, 2), 1 / 6, 4.0, Kbar=-1.0)

    def test_space_form_of_nonnegative_kbar_takes_any_d(self):
        # only Kbar < 0 bounds d below; flat space needs d >= 0
        for kbar in (0.0, 1.0):
            assert PinchingConstants(Dims(8, 2), 1 / 6, -5.0, Kbar=kbar).d == -5.0

    @pytest.mark.parametrize("regime", ["euclidean", "space_form"])
    @pytest.mark.parametrize("name", ["c", "d", "Kbar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_named(self, regime, name, value):
        kbar = None if regime == "euclidean" else -1.0
        kwargs = {"c": 1 / 6, "d": 40.0, "Kbar": kbar, name: value}
        with pytest.raises(InvalidConstants, match=f"^{name} must be a finite number"):
            PinchingConstants(Dims(8, 2), **kwargs)
