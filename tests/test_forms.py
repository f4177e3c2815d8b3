"""Tensor algebra: decomposition, normal curvature, derivative splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow.errors import DegenerateMeanCurvature, InvalidSample
from pinchflow.forms import (
    TOL_H,
    Dims,
    SecondFundamentalForm,
    frame_identity_residuals,
    gradient_sample,
    mean_curvature,
    normal_curvature,
    principal_decompose,
    symmetrize,
)
from pinchflow.samplers import (
    PointSample,
    sample_gradient,
    symmetric_gaussian,
    pure_trace_tensor,
)


def sphere_form(n=8, m=2, r=2.0):
    comps = np.zeros((m, n, n))
    comps[0] = np.eye(n) / r
    return SecondFundamentalForm.from_components(comps)


def product_form(p=7, q=1, a=1.0, b=4.0, m=2):
    comps = np.zeros((m, p + q, p + q))
    comps[0, :p, :p] = np.eye(p) / a
    comps[1, p:, p:] = np.eye(q) / b
    return SecondFundamentalForm.from_components(comps)


class TestMeanCurvature:
    def test_sphere(self):
        H = mean_curvature(sphere_form())
        assert np.allclose(H.vector, [4.0, 0.0]) and H.norm == 4.0

    def test_zero_form(self):
        A = SecondFundamentalForm.from_components(np.zeros((2, 4, 4)))
        H = mean_curvature(A)
        assert H.norm == 0.0 and np.all(H.vector == 0)

    def test_product_spheres(self):
        # umbilic factors: trace of each slot is dim/radius
        H = mean_curvature(product_form())
        assert np.allclose(H.vector, [7.0, 0.25], atol=1e-15)


class TestPrincipalDecomposition:
    def test_codimension_one_data(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 4))
        comps = np.zeros((2, 4, 4))
        comps[0] = 0.5 * (raw + raw.T) + 3 * np.eye(4)  # nonzero trace
        A = SecondFundamentalForm.from_components(comps)
        dec = principal_decompose(A)
        assert dec.a_minus2 < 1e-24

    def test_sphere_umbilic(self):
        dec = principal_decompose(sphere_form())
        assert dec.h2 == pytest.approx(2.0, abs=1e-14)
        assert dec.a_minus2 == pytest.approx(0.0, abs=1e-24)
        assert dec.a_ring2 == pytest.approx(0.0, abs=1e-14)

    def test_product_spheres_frozen(self):
        # closed-form values recomputed by scripts/oracle_values.py
        dec = principal_decompose(product_form())
        assert dec.a2 == pytest.approx(7.0625, abs=1e-13)
        assert dec.h2 == pytest.approx(6.991162420382166, abs=1e-12)
        assert dec.a_minus2 == pytest.approx(0.07133757961783438, abs=1e-12)

    def test_degenerate_raises(self):
        comps = np.zeros((2, 4, 4))
        comps[0, 0, 1] = comps[0, 1, 0] = 1.0  # trace free
        with pytest.raises(DegenerateMeanCurvature):
            principal_decompose(SecondFundamentalForm.from_components(comps))

    def test_bulk_invariants(self):
        # Pythagoras / traceless / reconstruction over 1e4 forms per (n, m),
        # split as one batch; forms with |H| <= TOL_H cannot be split and
        # are left out
        for n in range(2, 9):
            for m in range(1, 5):
                rng = np.random.default_rng((n, m))
                A = symmetrize(rng.standard_normal((10_000, m, n, n)))
                keep = mean_curvature(A).norm > TOL_H
                A = SecondFundamentalForm(A.dims, A.components[keep])
                dec = principal_decompose(A)
                worst_pyth = np.max(np.abs(dec.a2 - dec.h2 - dec.a_minus2))
                worst_ring = np.max(np.abs(dec.a_ring2 - dec.a2 + dec.H.norm2 / n))
                worst_trace = np.max(
                    np.abs(np.einsum("...aii->...a", dec.a_minus.components))
                )
                worst_rec = np.max(np.abs(A.components - dec.reconstruct().components))
                assert worst_pyth < 1e-10
                assert worst_ring < 1e-10
                assert worst_trace < 1e-12
                assert worst_rec < 1e-12

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_pythagoras(self, n, m, seed):
        rng = np.random.default_rng(seed)
        A = symmetric_gaussian(rng, Dims(n, m))
        try:
            dec = principal_decompose(A)
        except DegenerateMeanCurvature:
            return
        assert abs(dec.a2 - dec.h2 - dec.a_minus2) < 1e-10
        assert abs(np.dot(dec.nu1, dec.nu1) - 1.0) < 1e-14
        # A^- is orthogonal to nu1 slotwise
        ortho = np.einsum("a,aij->ij", dec.nu1, dec.a_minus.components)
        assert np.max(np.abs(ortho)) < 1e-12


class TestSymmetryEnforcement:
    def test_constructor_rejects_asymmetric(self):
        comps = np.zeros((1, 3, 3))
        comps[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            SecondFundamentalForm.from_components(comps)

    def test_immutability(self):
        A = sphere_form()
        with pytest.raises(ValueError):
            A.components[0, 0, 0] = 5.0


def brute_force_rperp_norm2(comps):
    """Quadruple-loop oracle for |R^perp|^2 in a flat background."""
    m, n, _ = comps.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            for a in range(m):
                for b in range(m):
                    s = 0.0
                    for p in range(n):
                        s += comps[a, i, p] * comps[b, j, p] - comps[b, i, p] * comps[a, j, p]
                    total += s * s
    return total


class TestNormalCurvature:
    def test_single_normal_slot_vanishes(self):
        rng = np.random.default_rng(1)
        comps = np.zeros((3, 4, 4))
        raw = rng.standard_normal((4, 4))
        comps[1] = 0.5 * (raw + raw.T) + np.eye(4)
        A = SecondFundamentalForm.from_components(comps)
        rp = normal_curvature(A, principal_decompose(A))
        assert rp.norm2 == 0.0

    def test_commuting_diagonals_vanish(self):
        A = product_form()
        rp = normal_curvature(A, principal_decompose(A))
        assert rp.norm2 == 0.0 and rp.hat_part_norm2 == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            A = symmetric_gaussian(rng, Dims(3, 3))
            dec = principal_decompose(A)
            rp = normal_curvature(A, dec)
            assert rp.norm2 == pytest.approx(
                brute_force_rperp_norm2(A.components), rel=1e-12
            )

    def test_split_identity(self):
        # 2|Rperp|^2 - 2|Rperp(nu1)|^2 = 2|hat Rperp|^2 + 2|Rperp(nu1)|^2
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = symmetric_gaussian(rng, Dims(5, 4))
            dec = principal_decompose(A)
            rp = normal_curvature(A, dec)
            lhs = 2 * rp.norm2 - 2 * rp.principal_norm2
            rhs = 2 * rp.hat_part_norm2 + 2 * rp.principal_norm2
            assert abs(lhs - rhs) < 1e-10 * max(1.0, rp.norm2)

    def test_principal_slice_from_hring_commutator(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            A = symmetric_gaussian(rng, Dims(4, 3))
            dec = principal_decompose(A)
            rp = normal_curvature(A, dec)
            comm = np.einsum("ip,bjp->ijb", dec.h_ring, dec.a_minus.components)
            comm = comm - comm.transpose(1, 0, 2)
            direct = float(np.sum(comm**2))
            assert abs(rp.principal_norm2 - direct) < 1e-10 * max(1.0, direct)

    def test_hat_part_in_rotated_frame(self):
        # Built with nu1 = e0 exactly: slot 0 carries h and the other slots
        # have zero diagonal, so they are A^- and the hat part is their
        # commutator norm.  Rotating the normal index keeps that value but
        # hides nu1; |A^-|/|h| = 1e-6 is the regime of the codimension
        # estimate, where projecting the full R^perp loses digits.
        rng = np.random.default_rng(5)
        n, m = 6, 4
        raw = rng.standard_normal((m, n, n))
        comps = 0.5 * (raw + raw.transpose(0, 2, 1))
        comps[0] += 3.0 * np.eye(n)
        for a in range(1, m):
            np.fill_diagonal(comps[a], 0.0)
        comps[1:] *= 1e-6 * np.linalg.norm(comps[0]) / np.linalg.norm(comps[1:])
        truth = sum(
            np.sum((comps[a] @ comps[b] - comps[b] @ comps[a]) ** 2)
            for a in range(1, m)
            for b in range(1, m)
        )
        rot, _ = np.linalg.qr(rng.standard_normal((m, m)))
        A = symmetrize(np.einsum("ab,bij->aij", rot, comps))
        rp = normal_curvature(A, principal_decompose(A))
        assert rp.hat_part_norm2 == pytest.approx(truth, rel=1e-8, abs=0.0)


class TestGradientSample:
    def _point(self, n=4, m=2, seed=3):
        rng = np.random.default_rng(seed)
        return PointSample.from_form(symmetric_gaussian(rng, Dims(n, m))), rng

    def test_projected_tensors_fully_symmetric(self):
        point, rng = self._point()
        grad = sample_gradient(rng, point)
        proj = grad.nabla_h + grad.nabla_aminus_nu1
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.max(np.abs(proj - proj.transpose(*perm))) < 1e-12

    def test_trace_identities(self):
        # tracing the split tensors over the last index recovers d|H| and |H| d nu1
        point, rng = self._point(n=5, m=3, seed=11)
        grad = sample_gradient(rng, point)
        lhs1 = np.einsum("kik->i", grad.nabla_h + grad.nabla_aminus_nu1)
        assert np.max(np.abs(lhs1 - grad.nabla_normH)) < 1e-12
        hat_plus_h = grad.hat_nabla_aminus + np.einsum(
            "jk,ai->aijk", point.decomp.h, grad.nabla_nu1
        )
        lhs2 = np.einsum("akik->ai", hat_plus_h)
        assert np.max(np.abs(lhs2 - grad.h_norm * grad.nabla_nu1)) < 1e-10

    def test_frame_identities_zero_grad(self):
        point, _ = self._point()
        grad = gradient_sample(point.decomp, point.H, np.zeros((2, 4, 4, 4)))
        res = frame_identity_residuals(grad)
        assert max(abs(res.full), abs(res.mean), abs(res.a_minus)) == 0.0

    def test_frame_identities_pure_normH(self):
        point, rng = self._point(n=6, m=3, seed=21)
        tensor = pure_trace_tensor(
            point.decomp.dims,
            point.decomp.nu1,
            rng.standard_normal(6),
            np.zeros((3, 6)),
        )
        grad = gradient_sample(point.decomp, point.H, tensor)
        res = frame_identity_residuals(grad)
        assert abs(res.mean) < 1e-12

    def test_frame_identities_random(self):
        for seed in range(10):
            point, rng = self._point(n=4, m=2, seed=100 + seed)
            grad = sample_gradient(rng, point)
            res = frame_identity_residuals(grad)
            assert max(abs(res.full), abs(res.mean), abs(res.a_minus)) < 1e-10

    def test_invalid_sample_rejected(self):
        point, _ = self._point()
        tensor = np.zeros((2, 4, 4, 4))
        tensor[0, 0, 1, 2] = 1.0  # not symmetric in tangent indices
        grad = gradient_sample(point.decomp, point.H, tensor)
        with pytest.raises(InvalidSample):
            frame_identity_residuals(grad)

    def test_scaled_is_linear(self):
        point, rng = self._point(seed=55)
        grad = sample_gradient(rng, point)
        doubled = grad.scaled(2.0)
        assert np.array_equal(doubled.tensor, 2.0 * grad.tensor)
        assert np.array_equal(doubled.nabla_h, 2.0 * grad.nabla_h)
