"""Reaction quantities and their closed-form bounds."""

from fractions import Fraction

import numpy as np
import pytest

from pinchflow.constants import c_n
from pinchflow.errors import InvalidConstants, NotPinched
from pinchflow.forms import (
    Dims,
    NormalCurvature,
    SecondFundamentalForm,
    commutator_norm2,
    mean_curvature,
    normal_curvature,
    principal_decompose,
)
from pinchflow.lemmas import reaction_checks
from pinchflow.reaction import (
    boundary_reaction_bound,
    cc_reaction_upper_bound,
    gram_norm2,
    r1,
    r2,
    reaction_gap,
)
from pinchflow.samplers import (
    SamplerSpec,
    Trials,
    sample_boundary,
    sample_form,
    sample_pinched,
    symmetric_gaussian,
)
from tests.test_forms import sphere_form
from tests.test_lemmas import li_li_split_form


def boundary_forms(dims, c, d, seed, trials):
    """The forms on the boundary |A|^2 = c|H|^2 - d of a campaign's first trials."""
    spec = SamplerSpec(dims, c=c, d=d, seed=seed)
    return sample_boundary(spec, range(trials))[1]


def loop_r2(comps, hvec):
    m, n, _ = comps.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            s = sum(hvec[a] * comps[a, i, j] for a in range(m))
            total += s * s
    return total


class TestR1R2:
    def test_sphere_values(self):
        A = sphere_form()
        H = mean_curvature(A)
        assert r1(A) == pytest.approx(4.0, abs=1e-13)
        assert r2(A, H) == pytest.approx(32.0, abs=1e-13)

    def test_zero_form(self):
        A = SecondFundamentalForm.from_components(np.zeros((3, 5, 5)))
        H = mean_curvature(A)
        assert r1(A) == 0.0 and r2(A, H) == 0.0

    def test_r2_is_H2_h2(self):
        # sum_ij <A_ij, H>^2 = |H|^2 |h|^2, cross-checked with a loop oracle
        rng = np.random.default_rng(17)
        for k in range(1000):
            A = symmetric_gaussian(rng, Dims(4, 3))
            H = mean_curvature(A)
            dec = principal_decompose(A)
            val = r2(A, H)
            assert val == pytest.approx(H.norm2 * dec.h2, rel=1e-11)
            if k < 25:
                assert val == pytest.approx(loop_r2(A.components, H.vector), rel=1e-12)


    def test_kernels_on_unequal_nonsymmetric_stacks(self):
        # counterexample files may hold any square matrices, so neither
        # kernel may assume symmetry or two stacks of the same length
        rng = np.random.default_rng(11)
        left, right = rng.standard_normal((2, 4, 4)), rng.standard_normal((3, 4, 4))
        comm = sum(np.sum((a @ b - b @ a) ** 2) for a in left for b in right)
        gram = sum(np.sum(a * b) ** 2 for a in left for b in right)
        assert commutator_norm2(left, right) == pytest.approx(comm, rel=1e-12)
        assert gram_norm2(left, right) == pytest.approx(gram, rel=1e-12)

    @pytest.mark.parametrize("n, m", [(8, 3), (5, 2), (16, 16)])
    @pytest.mark.parametrize("draw", ["gaussian", "split"])
    def test_commutator_term_splits_at_nu1(self, n, m, draw):
        # |R^perp|^2 = |hat R^perp|^2 + 2 |R^perp(nu1)|^2 in the frame nu1,
        # A^- of the split: the full commutator stack of A, which
        # normal_curvature does not form, and the one r1 adds to the Gram
        # term, against the split's two parts
        dims, seed = Dims(n, m), n * 100 + m
        if draw == "gaussian":
            A = symmetric_gaussian(Trials(seed, range(256)), dims)
        else:
            A = sample_form(SamplerSpec(dims, c=float(c_n(n, "general")), seed=seed), range(256))
        dec = principal_decompose(A)
        rperp = normal_curvature(dec)
        split = rperp.hat_part_norm2 + 2 * rperp.principal_norm2
        bound = 1e-12 * dec.a2**2
        assert np.all(np.abs(rperp.norm2 - split) <= bound)
        full = commutator_norm2(A.components, A.components.copy())
        assert np.all(np.abs(full - split) <= bound)
        assert np.all(np.abs(r1(A) - gram_norm2(A.components, A.components) - split) <= bound)
        assert np.all(rperp.principal_norm2 > 0)  # neither part is empty


class TestReactionGap:
    def test_sphere(self):
        A = sphere_form()
        dec = principal_decompose(A)
        rp = normal_curvature(dec)
        assert reaction_gap(A, mean_curvature(A), rp, 1 / 6) == pytest.approx(
            32 / 6 - 4, abs=1e-12
        )

    def test_cylinder(self):
        comps = np.zeros((2, 8, 8))
        comps[0, :7, :7] = np.eye(7)
        A = SecondFundamentalForm.from_components(comps)
        dec = principal_decompose(A)
        rp = normal_curvature(dec)
        assert reaction_gap(A, mean_curvature(A), rp, 1 / 6) == pytest.approx(
            343 / 6 - 49, abs=1e-11
        )

    def test_zero_form(self):
        A = SecondFundamentalForm.from_components(np.zeros((2, 4, 4)))
        rp = NormalCurvature(0.0, 0.0, 0.0)
        assert reaction_gap(A, mean_curvature(A), rp, 1 / 6) == 0.0

    def test_nonnegative_on_pinched(self):
        # c R2 >= gram + |Rperp|^2 whenever f >= 0, c <= 4/(3n)
        rng = np.random.default_rng(23)
        for _ in range(500):
            A = sample_pinched(rng, Dims(8, 3), 1 / 6, 0.0)
            dec = principal_decompose(A)
            rp = normal_curvature(dec)
            gap = reaction_gap(A, mean_curvature(A), rp, 1 / 6)
            assert gap >= -1e-9 * max(1.0, abs(gap))


class TestLemma43:
    # lemma 4.3's lower bound for the reaction terms of f is the estimate 4.12
    # multiplied by f / |A^-|^2, so it is checked as 4.12

    def test_umbilic_lhs_zero(self):
        A = sphere_form()
        dec = principal_decompose(A)
        chk = reaction_checks(["4.12"], dec, 1 / 6, 0.0)[0]
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert chk.slack >= 0.0

    def test_random_pinched(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            A = sample_pinched(rng, Dims(8, 3), 1 / 6, 0.5)
            dec = principal_decompose(A)
            chk = reaction_checks(["4.12"], dec, 1 / 6, 0.5)[0]
            assert chk.slack >= -1e-9 * max(1.0, abs(chk.lhs), abs(chk.rhs))

    def test_boundary_approach(self):
        # shrink f towards 0 by scaling |H| down along a fixed shape
        rng = np.random.default_rng(37)
        A0 = sample_pinched(rng, Dims(8, 2), 1 / 6, 1.0)
        H0 = mean_curvature(A0)
        f0 = (1 / 6) * H0.norm2 - A0.norm2 - 1.0
        for lam2 in (1.0, 0.9, 0.8):
            # scale towards the boundary: f(lam A) = lam^2 (f0 + 1) - 1
            lam = np.sqrt((1.0 + lam2 * f0) / (1.0 + f0))
            A = A0.scaled(float(lam))
            dec = principal_decompose(A)
            H = mean_curvature(A)
            f = (1 / 6) * H.norm2 - dec.a2 - 1.0
            assert f > 0
            chk = reaction_checks(["4.12"], dec, 1 / 6, 1.0)[0]
            assert chk.slack >= -1e-9 * max(1.0, abs(chk.rhs))

    def test_not_pinched(self):
        # d beyond c |H|^2 - |A|^2 leaves f < 0
        A = sphere_form()
        with pytest.raises(NotPinched):
            reaction_checks(["4.12"], principal_decompose(A), 1 / 6, 1.0)

    def test_bad_constants(self):
        A = sphere_form()
        with pytest.raises(InvalidConstants):
            reaction_checks(["4.12"], principal_decompose(A), 0.5, 0.0)


class TestBoundaryBound:
    def test_requires_boundary_data(self):
        A = sphere_form()
        with pytest.raises(NotPinched):
            boundary_reaction_bound(
                principal_decompose(A), 1 / 6, 1.0
            )

    @pytest.mark.parametrize("slot", [0, 2])
    def test_nan_distance_is_off_the_boundary(self, slot):
        # an entry of 1e200 on a diagonal overflows |A|^2 and c|H|^2 alike, so
        # the distance |A|^2 - (c|H|^2 - d) is inf - inf = NaN
        comps = boundary_forms(Dims(8, 3), 1 / 6, 1.0, 41, 4).components.copy()
        comps[1, slot, 3, 3] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            dec = principal_decompose(SecondFundamentalForm.from_components(comps))
            assert np.isnan(dec.a2[1] - (dec.H.norm2[1] / 6 - 1.0))
            with pytest.raises(NotPinched, match="not on the pinching boundary"):
                boundary_reaction_bound(dec, 1 / 6, 1.0)

    def test_random_boundary_slack(self):
        A = boundary_forms(Dims(8, 3), 1 / 6, 1.0, 41, 300)
        lhs, rhs = boundary_reaction_bound(principal_decompose(A), 1 / 6, 1.0)
        scale = np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))
        assert np.all(rhs - lhs >= -1e-9 * scale)


    @pytest.mark.parametrize("n", [9, 10])
    def test_bound_at_c_one_over_n_minus_2(self, n):
        # c_n(n) = 1/(n-2) for n >= 9, where the coefficient 6 - 2/(ng) of
        # |h_ring|^2 |A^-|^2 is 8 - n; at c = 4/(3n) it is 0.  The bound is
        # the displayed formula in exact arithmetic at the split's norms.
        c, d = c_n(n, "general"), 1
        assert c == Fraction(1, n - 2)
        form = li_li_split_form(n, 3, h_norm=10.0)  # radially onto the boundary
        A = form.scaled(np.sqrt(d / (float(c) * mean_curvature(form).norm2 - form.norm2)))
        dec = principal_decompose(A)
        lhs, rhs = boundary_reaction_bound(dec, float(c), float(d))
        g = c - Fraction(1, n)
        assert 6 - 2 / (n * g) == 8 - n
        hr2, am2 = Fraction(dec.h_ring2), Fraction(dec.a_minus2)
        exact = ((6 - 2 / (n * g)) * hr2 * am2 + (3 - 2 / (n * g)) * am2**2
                 - 2 * c * d / g * hr2 - 4 * d / (n * g) * am2 - 2 * d * d / (n * g))
        assert abs(Fraction(rhs) - exact) <= Fraction(1, 10**12) * abs(exact)
        assert lhs <= rhs


class TestConstantCurvatureBound:
    def _hyperbolic_umbilic(self, r=0.5, n=8, m=2):
        lam = 1.0 / np.tanh(r)
        comps = np.zeros((m, n, n))
        comps[0] = lam * np.eye(n)
        A = SecondFundamentalForm.from_components(comps)
        return A, principal_decompose(A), mean_curvature(A)

    def test_hyperbolic_umbilic_equality_and_blowup(self):
        A, dec, H = self._hyperbolic_umbilic()
        q = dec.a_ring2 - (1 / 6 - 1 / 8) * H.norm2 + 4.0
        lhs, rhs, blowup_rhs = cc_reaction_upper_bound(dec, q, 1 / 6, 4.0, -1.0)
        scale = max(1.0, abs(lhs))
        # umbilic data saturates the multi-line bound
        assert abs(rhs - lhs) < 1e-9 * scale
        assert blowup_rhs is not None
        assert blowup_rhs == pytest.approx(-(2 / 8) / (1 / 6 - 1 / 8) * q * q, rel=1e-13)
        assert blowup_rhs - lhs >= -1e-9 * scale

    def test_flat_umbilic_closed_form(self):
        # A = (|H|/n) I nu1 gives lhs = 2 (1/n) (1/n - c) |H|^4 <= 0
        A = sphere_form(n=8, m=2, r=2.0)
        dec, H = principal_decompose(A), mean_curvature(A)
        lhs, _, _ = cc_reaction_upper_bound(dec, 0.0, 1 / 6, 0.0, 0.0)
        expected = 2 * (1 / 8) * (1 / 8 - 1 / 6) * H.norm2**2
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert lhs <= 0

    def test_vanishes_with_form(self):
        # both sides go to zero quartically as the form shrinks
        A, dec, H = self._hyperbolic_umbilic()
        for lam in (1e-2, 1e-3):
            As = A.scaled(lam)
            decs, Hs = principal_decompose(As), mean_curvature(As)
            q = decs.a_ring2 - (1 / 6 - 1 / 8) * Hs.norm2  # d = 0 here
            lhs, rhs, _ = cc_reaction_upper_bound(decs, q, 1 / 6, 0.0, -1.0)
            assert abs(lhs) < 500 * lam**2
            assert abs(rhs) < 500 * lam**2

    def test_random_pinched_space_form(self):
        rng = np.random.default_rng(53)
        n, m = 8, 3
        kbar = -1.0
        count_eligible = 0
        for _ in range(300):
            A = sample_pinched(rng, Dims(n, m), 1 / 6, 4.0)
            dec, H = principal_decompose(A), mean_curvature(A)
            q = dec.a_ring2 - (1 / 6 - 1 / 8) * H.norm2 - 4.0 * kbar
            lhs, rhs, blowup_rhs = cc_reaction_upper_bound(dec, q, 1 / 6, 4.0, kbar)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert rhs - lhs >= -1e-9 * scale
            if blowup_rhs is not None:
                count_eligible += 1
                assert blowup_rhs - lhs >= -1e-9 * scale
        assert count_eligible > 0

    def test_invalid_constants(self):
        _, dec, _ = self._hyperbolic_umbilic()
        with pytest.raises(InvalidConstants):
            cc_reaction_upper_bound(dec, 0.0, 1 / 8, 4.0, -1.0)


class TestScaleCovariance:
    def test_quartic_scaling(self):
        rng = np.random.default_rng(61)
        A = sample_pinched(rng, Dims(8, 3), 1 / 6, 0.0)
        H = mean_curvature(A)
        dec = principal_decompose(A)
        rp = normal_curvature(dec)
        base = {
            "r1": r1(A),
            "r2": r2(A, H),
            "gap": reaction_gap(A, H, rp, 1 / 6),
        }
        base["4.12"] = reaction_checks(["4.12"], dec, 1 / 6, 0.0)[0].slack
        for lam in (0.5, 2.0):
            As = A.scaled(lam)
            Hs = mean_curvature(As)
            decs = principal_decompose(As)
            rps = normal_curvature(decs)
            assert r1(As) == pytest.approx(lam**4 * base["r1"], rel=1e-11)
            assert r2(As, Hs) == pytest.approx(lam**4 * base["r2"], rel=1e-11)
            assert reaction_gap(As, Hs, rps, 1 / 6) == pytest.approx(
                lam**4 * base["gap"], rel=1e-10, abs=1e-12
            )
            assert reaction_checks(["4.12"], decs, 1 / 6, 0.0)[0].slack == pytest.approx(
                lam**4 * base["4.12"], rel=1e-9, abs=1e-11
            )

    def test_cc_scaling_with_background(self):
        # scale A by lam and Kbar by lam^2 with d fixed: everything quartic
        rng = np.random.default_rng(67)
        A = sample_pinched(rng, Dims(8, 2), 1 / 6, 4.0)
        H, dec = mean_curvature(A), principal_decompose(A)
        q = dec.a_ring2 - (1 / 6 - 1 / 8) * H.norm2 + 4.0
        lhs, rhs, _ = cc_reaction_upper_bound(dec, q, 1 / 6, 4.0, -1.0)
        for lam in (0.5, 2.0):
            As = A.scaled(lam)
            Hs, decs = mean_curvature(As), principal_decompose(As)
            qs = decs.a_ring2 - (1 / 6 - 1 / 8) * Hs.norm2 + 4.0 * lam**2
            lhs_s, rhs_s, _ = cc_reaction_upper_bound(decs, qs, 1 / 6, 4.0, -(lam**2))
            assert qs == pytest.approx(lam**2 * q, rel=1e-11)
            assert rhs_s - lhs_s == pytest.approx(lam**4 * (rhs - lhs), rel=1e-9, abs=1e-10)

    def test_boundary_scaling(self):
        A = boundary_forms(Dims(8, 3), 1 / 6, 1.0, 71, 1)
        A = SecondFundamentalForm(A.dims, A.components[0])
        lhs, rhs = boundary_reaction_bound(principal_decompose(A), 1 / 6, 1.0)
        for lam in (0.5, 2.0):
            decs = principal_decompose(A.scaled(lam))
            lhs_s, rhs_s = boundary_reaction_bound(decs, 1 / 6, lam**2 * 1.0)
            assert rhs_s - lhs_s == pytest.approx(lam**4 * (rhs - lhs), rel=1e-9, abs=1e-10)
