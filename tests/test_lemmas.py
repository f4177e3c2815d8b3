"""Inequality evaluators: worked examples, equality cases, scaling laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow.errors import InvalidConstants, InvalidSample, NotPinched
from pinchflow.forms import Dims, SecondFundamentalForm, gradient_sample, principal_decompose
from pinchflow.lemmas import (
    LEMMAS,
    check_kato,
    check_kato_trace,
    check_li,
    default_constants,
    default_kato_eta,
    gradient_checks,
    gradient_quantities,
    reaction_checks,
)
from pinchflow.samplers import (
    kato_e_tensor,
    sample_pinched,
    sample_w,
    symmetric_gaussian,
    symmetric_matrices,
)
from tests.test_forms import drawn_tensor


def group_ids(lemma_id):
    """The ids of the table that share the evaluator of ``lemma_id``, in
    report order."""
    return [i for i, lemma in LEMMAS.items() if lemma.evaluate is LEMMAS[lemma_id].evaluate]


REACTION_IDS = group_ids("4.5")
GRADIENT_IDS = group_ids("4.20")


def li_li_split_form(n, m, h_norm=3.0, a=0.7, b=0.4):
    """A^1 = (|H|/n) I + a diag(1, -1, 0, ...) and A^2 = b (E_12 + E_21),
    zero in every other slot: nu_1 = e_1, h_ring = a diag(1, -1, 0, ...)
    and A^- = b (E_12 + E_21) (x) e_2, the Li-Li pair split between h_ring
    and A^-."""
    comps = np.zeros((m, n, n))
    comps[0] = h_norm / n * np.eye(n)
    comps[0, 0, 0] += a
    comps[0, 1, 1] -= a
    comps[1, 0, 1] = comps[1, 1, 0] = b
    return SecondFundamentalForm.from_components(comps)


def pinched_point(seed=0, n=8, m=3, c=None, d=0.0):
    c = 4.0 / (3 * n) if c is None else c
    rng = np.random.default_rng(seed)
    return principal_decompose(sample_pinched(rng, Dims(n, m), c, d)), rng


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
    def test_hypothesis_never_violated(self, n, count, seed, scale):
        rng = np.random.default_rng(seed)
        chk = check_li(scale * symmetric_matrices(rng, n, count))
        assert chk.slack >= -1e-9 * chk.scale


class TestKato:
    def test_e_tensor_equality(self):
        # the pure-trace tensor attains |dA|^2 = 3/(n+2) |dH|^2 with w = 0
        for n in range(5, 11):
            dec, rng = pinched_point(seed=n, n=n, m=3, c=float(4 / (3 * n)))
            v = rng.standard_normal((3, n))
            tensor = kato_e_tensor(Dims(n, 3), v)
            grad = gradient_sample(dec, tensor)
            assert grad.norm2 == pytest.approx(
                3.0 / (n + 2) * grad.nabla_H_norm2, rel=1e-10
            )
            chk = check_kato(grad, np.zeros((3, n)), default_kato_eta(n))
            assert chk.slack >= 0

    def test_e_tensor_with_w_closed_form(self):
        # |E|^2 = 3/(n+2)|dH|^2 + 2n/((n+2)(n-1))|w|^2 + 4/(n+2) <dH, w>
        rng = np.random.default_rng(10)
        n, m = 6, 2
        dec, _ = pinched_point(seed=99, n=n, m=m)
        v = rng.standard_normal((m, n))
        w = rng.standard_normal((m, n))
        tensor = kato_e_tensor(Dims(n, m), v, w)
        grad = gradient_sample(dec, tensor)
        expected = (
            3.0 / (n + 2) * float(np.sum(v**2))
            + 2.0 * n / ((n + 2) * (n - 1)) * float(np.sum(w**2))
            + 4.0 / (n + 2) * float(np.sum(v * w))
        )
        assert grad.norm2 == pytest.approx(expected, rel=1e-11)

    def test_zero_sample(self):
        dec, _ = pinched_point()
        grad = gradient_sample(dec, np.zeros((3, 8, 8, 8)))
        chk = check_kato(grad, np.zeros((3, 8)), default_kato_eta(8))
        assert chk.lhs == 0.0 and chk.rhs == 0.0

    def test_equality_gap_detects_minimizer(self):
        dec, rng = pinched_point(seed=123)
        v = rng.standard_normal((3, 8))
        minimizer = gradient_sample(dec, kato_e_tensor(Dims(8, 3), v))
        # |dA|^2 - (3/(n+2)) |dH|^2 vanishes exactly on the pure-trace minimizer
        gap = minimizer.norm2 - 3.0 / (8 + 2) * minimizer.nabla_H_norm2
        assert abs(gap) < 1e-10 * minimizer.norm2
        generic = gradient_sample(dec, drawn_tensor(rng, dec.dims))
        assert generic.norm2 - 3.0 / (8 + 2) * generic.nabla_H_norm2 > 0

    def test_random_sweep(self):
        dec, rng = pinched_point(seed=5)
        eta = default_kato_eta(8)
        for _ in range(400):
            grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
            w = sample_w(rng, Dims(8, 3))
            chk = check_kato(grad, w, eta)
            assert chk.slack >= -1e-9 * chk.scale
            chk2 = check_kato_trace(grad, w)
            assert chk2.slack >= -1e-9 * chk2.scale

    def test_symmetry_required(self):
        dec, _ = pinched_point()
        tensor = np.zeros((3, 8, 8, 8))
        tensor[0, 0, 1, 2] = 1.0
        grad = gradient_sample(dec, tensor)
        with pytest.raises(InvalidSample):
            check_kato(grad, np.zeros((3, 8)), 0.1)

    def test_eta_must_be_positive(self):
        dec, rng = pinched_point()
        grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
        with pytest.raises(InvalidConstants):
            check_kato(grad, np.zeros((3, 8)), 0.0)


class TestReactionChecks:
    def test_umbilic_both_sides_zero(self):
        comps = np.zeros((2, 8, 8))
        comps[0] = 0.5 * np.eye(8)
        dec = principal_decompose(SecondFundamentalForm.from_components(comps))
        chk = reaction_checks(["4.5"], dec, 1 / 6, 0.0)[0]
        assert chk.lhs == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("n, m", [(5, 2), (8, 3)])
    def test_4_5_equality_with_nonzero_sides(self, n, m):
        # the Li-Li pair split between h_ring and A^-: both sides are
        # 8 a^2 b^2, so a 1% change to either side's coefficient shows
        h_norm, a, b = 3.0, 0.7, 0.4
        dec = principal_decompose(li_li_split_form(n, m, h_norm, a, b))
        assert np.allclose(dec.nu1, np.eye(m)[0], rtol=0, atol=1e-15)
        assert dec.h_ring2 == pytest.approx(2 * a * a, rel=1e-14)
        assert dec.a_minus2 == pytest.approx(2 * b * b, rel=1e-14)
        chk = reaction_checks(["4.5"], dec, 1 / 6, 0.0)[0]
        assert chk.rhs == pytest.approx(8 * a * a * b * b, rel=1e-14)
        assert abs(chk.slack) <= 1e-12 * chk.rhs

    def test_m2_li_trivial_case(self):
        # with one orthogonal slot the 4.6 left side is exactly |A^-|^4
        dec, _ = pinched_point(seed=13, n=8, m=2)
        chk = reaction_checks(["4.6"], dec, 1 / 6, 0.0)[0]
        am2 = dec.a_minus2
        assert chk.lhs == pytest.approx(am2 * am2, rel=1e-11)
        assert chk.rhs == pytest.approx(1.5 * am2 * am2, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    def test_reaction_estimate_sweep(self, delta):
        dec, rng = pinched_point(seed=29)
        for _ in range(300):
            dec = principal_decompose(sample_pinched(rng, Dims(8, 3), 1 / 6, 0.0))
            for chk in reaction_checks(list(REACTION_IDS), dec, 1 / 6, 0.0, delta):
                assert chk.slack >= -1e-9 * chk.scale

    def test_delta_out_of_range(self):
        dec, _ = pinched_point()
        with pytest.raises(InvalidConstants):
            reaction_checks(["4.14"], dec, 1 / 6, 0.0, delta=0.6)

    def test_not_pinched(self):
        rng = np.random.default_rng(31)
        A = symmetric_gaussian(rng, Dims(8, 3))
        A = SecondFundamentalForm(A.dims, 2.0 * A.components)
        dec = principal_decompose(A)
        f = (1 / 6) * dec.H.norm2 - dec.a2
        if f > 0:  # exceedingly unlikely for a raw gaussian
            pytest.skip("gaussian sample happened to be pinched")
        with pytest.raises(NotPinched):
            reaction_checks(["4.12"], dec, 1 / 6, 0.0)


class TestGradientChecks:
    def test_zero_grad_trivial(self):
        dec, _ = pinched_point()
        grad = gradient_sample(dec, np.zeros((3, 8, 8, 8)))
        for chk in gradient_checks(
            list(GRADIENT_IDS), grad, 1 / 6, 0.0, 1 / 32
        ):
            assert chk.lhs == pytest.approx(0.0, abs=1e-18)
            assert chk.rhs >= 0.0

    def test_pure_trace_equalities(self):
        # the trace tensor attains 4.20 (and its h_ring companion 4.22 minus
        # the trace correction) with equality
        dec, rng = pinched_point(seed=77)
        norm_h_dir = rng.standard_normal(8)
        v = rng.standard_normal((3, 8))
        v -= np.outer(dec.nu1, dec.nu1 @ v)  # |H| d nu1 must be normal to nu1
        # the trace-type tensor of dH = nu1 (x) d|H| + |H| d nu1, which
        # minimizes the sharp Kato inequality
        tensor = kato_e_tensor(dec.dims, np.outer(dec.nu1, norm_h_dir) + v)
        grad = gradient_sample(dec, tensor)
        chk420 = gradient_checks(["4.20"], grad, 1 / 6, 0.0, 1 / 32)[0]
        assert chk420.lhs == pytest.approx(chk420.rhs, rel=1e-10)
        chk421 = gradient_checks(["4.21"], grad, 1 / 6, 0.0, 1 / 32)[0]
        # for the pure-trace tensor, |<d Aring, nu1>|^2 = (2(n-1)/(n(n+2)))|d|H||^2
        assert chk421.lhs == pytest.approx(chk421.rhs, rel=1e-10)

    def test_random_sweep_case1(self):
        dec, rng = pinched_point(seed=83)
        for _ in range(400):
            grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
            for chk in gradient_checks(
                list(GRADIENT_IDS), grad, 1 / 6, 0.0, 1 / 32
            ):
                assert chk.slack >= -1e-9 * chk.scale, chk

    def test_case2_low_dimension(self):
        # n = 6 forces the second regime: c <= 3(n+1)/(2n(n+2)) - eps0
        n = 6
        eps0 = 0.005
        c = 3 * (n + 1) / (2 * n * (n + 2)) - eps0
        delta = min(0.5, 2 * n * (n + 2) * eps0 / (3 * (n - 1)))
        rng = np.random.default_rng(89)
        dec = principal_decompose(sample_pinched(rng, Dims(n, 2), c, 0.0))
        for _ in range(200):
            grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
            for chk in gradient_checks(
                list(GRADIENT_IDS), grad, c, 0.0, delta, eps0=eps0
            ):
                assert chk.slack >= -1e-9 * chk.scale, chk

    def test_delta_regime_enforced(self):
        dec, rng = pinched_point()
        grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
        with pytest.raises(InvalidConstants):
            gradient_checks(["L4.9"], grad, 1 / 6, 0.0, delta=0.2)

    def test_c_outside_both_regimes(self):
        # n = 6 second regime tops out at 3(n+1)/(2n(n+2)) = 0.21875
        dec, rng = pinched_point(seed=91, n=6, m=2, c=0.23, d=0.0)
        grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
        with pytest.raises(InvalidConstants):
            gradient_checks(["L4.6"], grad, 0.23, 0.0, 0.01)

    def test_not_pinched_for_f_lemmas(self):
        dec, rng = pinched_point(seed=97)
        grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
        with pytest.raises(NotPinched):
            gradient_checks(["L4.7"], grad, 1 / 6, 1e9, 1 / 32)


def reference_gradient_sides(lemma_id, grad, c, d, delta, eps0):
    """Both sides of L4.6-L4.9 written out once per case of c, term for term
    and in the order gradient_checks evaluates them."""
    dec = grad.decomp
    n = dec.dims.n
    gq = gradient_quantities(grad)
    fv = c * dec.H.norm2 - dec.a2 - d
    am2, hr2 = dec.a_minus2, dec.h_ring2
    case = 1 if n >= 8 and c <= 4.0 / (3 * n) * (1 + 1e-12) else 2
    if lemma_id == "L4.6":
        if case == 1:
            lhs = (
                (4.0 * n - 10) / (n + 2) * hr2 * gq.nabla_nu12
                + 6.0 * (n - 1) / (n + 2) * (am2 + fv + d) * gq.nabla_nu12
            )
        else:
            lhs = 2 * hr2 * gq.nabla_nu12 + 4 * (am2 + fv + d) * gq.nabla_nu12
        return lhs, 2 * gq.hat_am2
    if lemma_id == "L4.7":
        rhs = 2 * am2 / fv * (gq.nablaA2 - c * gq.nablaH2)
        if case == 1:
            lhs = (
                (5.0 * n - 8) / (3 * (n - 1)) * am2 / fv * gq.ring_proj2
                + (10.0 * n - 16) / (n + 2) * am2 * gq.nabla_nu12
            )
        else:
            lhs = 1.5 * am2 / fv * gq.ring_proj2 + 6 * am2 * gq.nabla_nu12
        return lhs, rhs
    if lemma_id == "L4.8":
        if case == 1:
            rhs = (
                2 * gq.proj_am2
                + (5.0 * n - 9) / (3 * (n - 1)) * am2 / fv * gq.ring_proj2
                + 2 * am2 * gq.nabla_nu12
                + 3.0 * (n - 1) / (n - 3) * fv * gq.nabla_nu12
                + 2.0 * (n + 2) / (n + 3) * hr2 * gq.nabla_nu12
            )
        else:
            eps = 2.0 * n * (n + 2) / (3 * (n - 1)) * eps0
            rhs = (
                2 * gq.proj_am2
                + (1 - eps) * 1.5 * am2 / fv * gq.ring_proj2
                + 2 * am2 * gq.nabla_nu12
                + 4 * fv * gq.nabla_nu12
                + 2 * hr2 * gq.nabla_nu12
            )
        return gq.q_pairing, rhs
    rhs = 2 * gq.nabla_am2 + 2 * (1 - delta) * am2 / fv * (gq.nablaA2 - c * gq.nablaH2)
    return gq.q_pairing, rhs


class TestGradientCoefficients:
    # n=8 takes case 1, n=6 and n=7 case 2 with eps0 = 0.005; every side
    # must equal the written-out formula of its case exactly
    @pytest.mark.parametrize("n", [8, 6, 7])
    def test_sides_match_each_case(self, n):
        ids = ["L4.6", "L4.7", "L4.8", "L4.9"]
        c, delta, eps0 = default_constants(GRADIENT_IDS, n)
        assert (eps0 is None) == (n == 8)
        rng = np.random.default_rng(n)
        dims = Dims(n, 2)
        forms = np.stack([sample_pinched(rng, dims, c, 0.0).components for _ in range(16)])
        dec = principal_decompose(SecondFundamentalForm(dims, forms))
        tensors = np.stack([drawn_tensor(rng, dims) for _ in range(16)])
        grad = gradient_sample(dec, tensors)
        for chk in gradient_checks(ids, grad, c, 0.0, delta, eps0):
            lhs, rhs = reference_gradient_sides(chk.lemma_id, grad, c, 0.0, delta, eps0)
            assert np.array_equal(chk.lhs, lhs) and np.array_equal(chk.rhs, rhs), chk.lemma_id


class TestScaleCovariance:
    def test_documented_degrees(self):
        dec, rng = pinched_point(seed=101)
        grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
        w = sample_w(rng, Dims(8, 3))
        mats = symmetric_matrices(rng, 5, 3)
        lam = 2.0
        base_li = check_li(mats)
        scaled_li = check_li([lam * b for b in mats])
        assert scaled_li.slack == pytest.approx(
            lam ** LEMMAS["li"].degree * base_li.slack, rel=1e-11
        )
        eta = default_kato_eta(8)
        base = check_kato(grad, w, eta)
        scaled = check_kato(gradient_sample(grad.decomp, lam * grad.tensor), lam * w, eta)
        assert scaled.slack == pytest.approx(
            lam ** LEMMAS["kato.3.1"].degree * base.slack, rel=1e-11
        )
        for ids, kwargs in ((["4.5", "4.6", "4.10", "4.12", "4.14"], {}),):
            base_checks = reaction_checks(ids, dec, 1 / 6, 0.0, 0.5)
            scaled_checks = reaction_checks(
                ids, principal_decompose(dec.form.scaled(lam)), 1 / 6, 0.0, 0.5
            )
            for b, s in zip(base_checks, scaled_checks):
                assert s.slack == pytest.approx(
                    lam ** LEMMAS[b.lemma_id].degree * b.slack, rel=1e-9, abs=1e-10
                )
        base_g = gradient_checks(list(GRADIENT_IDS), grad, 1 / 6, 0.0, 1 / 32)
        scaled_g = gradient_checks(
            list(GRADIENT_IDS), gradient_sample(grad.decomp, lam * grad.tensor),
            1 / 6, 0.0, 1 / 32,
        )
        for b, s in zip(base_g, scaled_g):
            assert s.slack == pytest.approx(
                lam ** LEMMAS[b.lemma_id].degree * b.slack, rel=1e-9, abs=1e-10
            )
