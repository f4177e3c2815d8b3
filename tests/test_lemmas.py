"""Inequality evaluators: worked examples, equality cases, scaling laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow.errors import InvalidConstants, InvalidSample, NotPinched
from pinchflow.forms import Dims, SecondFundamentalForm, gradient_sample
from pinchflow.lemmas import (
    DEGREES,
    GRADIENT_IDS,
    REACTION_IDS,
    check_kato,
    check_kato_trace,
    check_li,
    default_kato_eta,
    gradient_checks,
    reaction_checks,
)
from pinchflow.samplers import (
    PointSample,
    kato_e_tensor,
    pure_trace_tensor,
    sample_gradient,
    sample_pinched,
    sample_w,
    symmetric_gaussian,
    symmetric_matrices,
)


def pinched_point(seed=0, n=8, m=3, c=None, d=0.0):
    c = 4.0 / (3 * n) if c is None else c
    rng = np.random.default_rng(seed)
    return PointSample.from_form(sample_pinched(rng, Dims(n, m), c, d)), rng


class TestLi:
    def test_identity_matrix(self):
        chk = check_li([np.eye(3)])
        assert chk.lhs == pytest.approx(9.0) and chk.rhs == pytest.approx(13.5)
        assert chk.slack == pytest.approx(4.5)

    def test_rank_one(self):
        b = np.zeros((3, 3))
        b[0, 0] = 1.0
        chk = check_li([b])
        assert chk.lhs == pytest.approx(1.0) and chk.rhs == pytest.approx(1.5)

    def test_single_matrix_always_holds(self):
        # one matrix: lhs = |B|^4 <= (3/2) |B|^4 automatically
        rng = np.random.default_rng(2)
        for _ in range(50):
            b = symmetric_matrices(rng, 5, 1)[0]
            chk = check_li(b[None] if b.ndim == 2 else b)
            norm4 = float(np.sum(b * b)) ** 2
            assert chk.lhs == pytest.approx(norm4, rel=1e-12)
            assert chk.slack >= 0

    def test_gaussian_sweep(self):
        rng = np.random.default_rng(3)
        for n in range(2, 7):
            for count in range(1, 5):
                for _ in range(200):
                    chk = check_li(symmetric_matrices(rng, n, count))
                    assert chk.slack >= -1e-9 * chk.scale

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_li([])

    @given(
        st.integers(2, 6),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_never_violated(self, n, count, seed, sigma):
        rng = np.random.default_rng(seed)
        chk = check_li(symmetric_matrices(rng, n, count, sigma))
        assert chk.slack >= -1e-9 * chk.scale


class TestKato:
    def test_e_tensor_equality(self):
        # the pure-trace tensor attains |dA|^2 = 3/(n+2) |dH|^2 with w = 0
        for n in range(5, 11):
            point, rng = pinched_point(seed=n, n=n, m=3, c=float(4 / (3 * n)))
            v = rng.standard_normal((3, n))
            tensor = kato_e_tensor(Dims(n, 3), v)
            grad = gradient_sample(point.decomp, point.H, tensor)
            assert grad.norm2 == pytest.approx(
                3.0 / (n + 2) * grad.nabla_H_norm2, rel=1e-10
            )
            chk = check_kato(grad, np.zeros((3, n)), default_kato_eta(n))
            assert chk.slack >= 0

    def test_e_tensor_with_w_closed_form(self):
        # |E|^2 = 3/(n+2)|dH|^2 + 2n/((n+2)(n-1))|w|^2 + 4/(n+2) <dH, w>
        rng = np.random.default_rng(10)
        n, m = 6, 2
        point, _ = pinched_point(seed=99, n=n, m=m)
        v = rng.standard_normal((m, n))
        w = rng.standard_normal((m, n))
        tensor = kato_e_tensor(Dims(n, m), v, w)
        grad = gradient_sample(point.decomp, point.H, tensor)
        expected = (
            3.0 / (n + 2) * float(np.sum(v**2))
            + 2.0 * n / ((n + 2) * (n - 1)) * float(np.sum(w**2))
            + 4.0 / (n + 2) * float(np.sum(v * w))
        )
        assert grad.norm2 == pytest.approx(expected, rel=1e-11)

    def test_zero_sample(self):
        point, _ = pinched_point()
        grad = gradient_sample(point.decomp, point.H, np.zeros((3, 8, 8, 8)))
        chk = check_kato(grad, np.zeros((3, 8)), default_kato_eta(8))
        assert chk.lhs == 0.0 and chk.rhs == 0.0

    def test_equality_gap_detects_minimizer(self):
        point, rng = pinched_point(seed=123)
        v = rng.standard_normal((3, 8))
        minimizer = gradient_sample(
            point.decomp, point.H, kato_e_tensor(Dims(8, 3), v)
        )
        # |dA|^2 - (3/(n+2)) |dH|^2 vanishes exactly on the pure-trace minimizer
        gap = minimizer.norm2 - 3.0 / (8 + 2) * minimizer.nabla_H_norm2
        assert abs(gap) < 1e-10 * minimizer.norm2
        generic = sample_gradient(rng, point)
        assert generic.norm2 - 3.0 / (8 + 2) * generic.nabla_H_norm2 > 0

    def test_random_sweep(self):
        point, rng = pinched_point(seed=5)
        eta = default_kato_eta(8)
        for _ in range(400):
            grad = sample_gradient(rng, point)
            w = sample_w(rng, Dims(8, 3))
            chk = check_kato(grad, w, eta)
            assert chk.slack >= -1e-9 * chk.scale
            chk2 = check_kato_trace(grad, w)
            assert chk2.slack >= -1e-9 * chk2.scale

    def test_symmetry_required(self):
        point, _ = pinched_point()
        tensor = np.zeros((3, 8, 8, 8))
        tensor[0, 0, 1, 2] = 1.0
        grad = gradient_sample(point.decomp, point.H, tensor)
        with pytest.raises(InvalidSample):
            check_kato(grad, np.zeros((3, 8)), 0.1)

    def test_eta_must_be_positive(self):
        point, rng = pinched_point()
        grad = sample_gradient(rng, point)
        with pytest.raises(InvalidConstants):
            check_kato(grad, np.zeros((3, 8)), 0.0)


class TestReactionChecks:
    def test_umbilic_both_sides_zero(self):
        comps = np.zeros((2, 8, 8))
        comps[0] = 0.5 * np.eye(8)
        point = PointSample.from_form(SecondFundamentalForm.from_components(comps))
        chk = reaction_checks(["4.5"], point, 1 / 6, 0.0)[0]
        assert chk.lhs == pytest.approx(0.0, abs=1e-20)

    def test_m2_li_trivial_case(self):
        # with one orthogonal slot the 4.6 left side is exactly |A^-|^4
        point, _ = pinched_point(seed=13, n=8, m=2)
        chk = reaction_checks(["4.6"], point, 1 / 6, 0.0)[0]
        am2 = point.decomp.a_minus2
        assert chk.lhs == pytest.approx(am2 * am2, rel=1e-11)
        assert chk.rhs == pytest.approx(1.5 * am2 * am2, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    def test_reaction_estimate_sweep(self, delta):
        point, rng = pinched_point(seed=29)
        for _ in range(300):
            pt = PointSample.from_form(sample_pinched(rng, Dims(8, 3), 1 / 6, 0.0))
            for chk in reaction_checks(list(REACTION_IDS), pt, 1 / 6, 0.0, delta):
                assert chk.slack >= -1e-9 * chk.scale

    def test_delta_out_of_range(self):
        point, _ = pinched_point()
        with pytest.raises(InvalidConstants):
            reaction_checks(["4.14"], point, 1 / 6, 0.0, delta=0.6)

    def test_not_pinched(self):
        rng = np.random.default_rng(31)
        A = symmetric_gaussian(rng, Dims(8, 3), sigma=2.0)
        point = PointSample.from_form(A)
        f = (1 / 6) * point.H.norm2 - point.decomp.a2
        if f > 0:  # exceedingly unlikely for a raw gaussian
            pytest.skip("gaussian sample happened to be pinched")
        with pytest.raises(NotPinched):
            reaction_checks(["4.12"], point, 1 / 6, 0.0)


class TestGradientChecks:
    def test_zero_grad_trivial(self):
        point, _ = pinched_point()
        grad = gradient_sample(point.decomp, point.H, np.zeros((3, 8, 8, 8)))
        for chk in gradient_checks(
            list(GRADIENT_IDS), point, grad, 1 / 6, 0.0, 1 / 32
        ):
            assert chk.lhs == pytest.approx(0.0, abs=1e-18)
            assert chk.rhs >= 0.0

    def test_pure_trace_equalities(self):
        # the trace tensor attains 4.20 (and its h_ring companion 4.22 minus
        # the trace correction) with equality
        point, rng = pinched_point(seed=77)
        dec = point.decomp
        norm_h_dir = rng.standard_normal(8)
        v = rng.standard_normal((3, 8))
        v -= np.outer(dec.nu1, dec.nu1 @ v)  # |H| d nu1 must be normal to nu1
        tensor = pure_trace_tensor(dec.dims, dec.nu1, norm_h_dir, v)
        grad = gradient_sample(dec, point.H, tensor)
        chk420 = gradient_checks(["4.20"], point, grad, 1 / 6, 0.0, 1 / 32)[0]
        assert chk420.lhs == pytest.approx(chk420.rhs, rel=1e-10)
        chk421 = gradient_checks(["4.21"], point, grad, 1 / 6, 0.0, 1 / 32)[0]
        # for the pure-trace tensor, |<d Aring, nu1>|^2 = (2(n-1)/(n(n+2)))|d|H||^2
        assert chk421.lhs == pytest.approx(chk421.rhs, rel=1e-10)

    def test_random_sweep_case1(self):
        point, rng = pinched_point(seed=83)
        for _ in range(400):
            grad = sample_gradient(rng, point)
            for chk in gradient_checks(
                list(GRADIENT_IDS), point, grad, 1 / 6, 0.0, 1 / 32
            ):
                assert chk.slack >= -1e-9 * chk.scale, chk

    def test_case2_low_dimension(self):
        # n = 6 forces the second regime: c <= 3(n+1)/(2n(n+2)) - eps0
        n = 6
        eps0 = 0.005
        c = 3 * (n + 1) / (2 * n * (n + 2)) - eps0
        delta = min(0.5, 2 * n * (n + 2) * eps0 / (3 * (n - 1)))
        rng = np.random.default_rng(89)
        point = PointSample.from_form(sample_pinched(rng, Dims(n, 2), c, 0.0))
        for _ in range(200):
            grad = sample_gradient(rng, point)
            for chk in gradient_checks(
                list(GRADIENT_IDS), point, grad, c, 0.0, delta, eps0=eps0
            ):
                assert chk.slack >= -1e-9 * chk.scale, chk

    def test_delta_regime_enforced(self):
        point, rng = pinched_point()
        grad = sample_gradient(rng, point)
        with pytest.raises(InvalidConstants):
            gradient_checks(["L4.9"], point, grad, 1 / 6, 0.0, delta=0.2)

    def test_c_outside_both_regimes(self):
        # n = 6 second regime tops out at 3(n+1)/(2n(n+2)) = 0.21875
        point, rng = pinched_point(seed=91, n=6, m=2, c=0.23, d=0.0)
        grad = sample_gradient(rng, point)
        with pytest.raises(InvalidConstants):
            gradient_checks(["L4.6"], point, grad, 0.23, 0.0, 0.01)

    def test_not_pinched_for_f_lemmas(self):
        point, rng = pinched_point(seed=97)
        grad = sample_gradient(rng, point)
        with pytest.raises(NotPinched):
            gradient_checks(["L4.7"], point, grad, 1 / 6, 1e9, 1 / 32)


class TestScaleCovariance:
    def test_documented_degrees(self):
        point, rng = pinched_point(seed=101)
        grad = sample_gradient(rng, point)
        w = sample_w(rng, Dims(8, 3))
        mats = symmetric_matrices(rng, 5, 3)
        lam = 2.0
        base_li = check_li(mats)
        scaled_li = check_li([lam * b for b in mats])
        assert scaled_li.slack == pytest.approx(
            lam ** DEGREES["li"] * base_li.slack, rel=1e-11
        )
        eta = default_kato_eta(8)
        base = check_kato(grad, w, eta)
        scaled = check_kato(grad.scaled(lam), lam * w, eta)
        assert scaled.slack == pytest.approx(
            lam ** DEGREES["kato.3.1"] * base.slack, rel=1e-11
        )
        for ids, kwargs in ((["4.5", "4.6", "4.10", "4.12", "4.14"], {}),):
            base_checks = reaction_checks(ids, point, 1 / 6, 0.0, 0.5)
            scaled_checks = reaction_checks(
                ids, PointSample.from_form(point.form.scaled(lam)), 1 / 6, 0.0, 0.5
            )
            for b, s in zip(base_checks, scaled_checks):
                assert s.slack == pytest.approx(
                    lam ** DEGREES[b.lemma_id] * b.slack, rel=1e-9, abs=1e-10
                )
        base_g = gradient_checks(list(GRADIENT_IDS), point, grad, 1 / 6, 0.0, 1 / 32)
        scaled_g = gradient_checks(
            list(GRADIENT_IDS), point, grad.scaled(lam), 1 / 6, 0.0, 1 / 32
        )
        for b, s in zip(base_g, scaled_g):
            assert s.slack == pytest.approx(
                lam ** DEGREES[b.lemma_id] * b.slack, rel=1e-9, abs=1e-10
            )
