"""Tensor algebra: decomposition, normal curvature, derivative splitting."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow.errors import DegenerateMeanCurvature, InvalidSample
from pinchflow.forms import (
    STACK_BUDGET,
    TOL_H,
    Dims,
    SecondFundamentalForm,
    commutator_norm2,
    gradient_sample,
    mean_curvature,
    normal_curvature,
    principal_decompose,
    require_codazzi,
    sum_sq,
    symmetrize,
)
from pinchflow.samplers import (
    kato_e_tensor,
    orbit_normals,
    symmetric_gaussian,
    symmetric_three_tensor,
)


def drawn_tensor(rng, dims):
    """A derivative tensor drawn by orbits from one generator."""
    return symmetric_three_tensor(orbit_normals(rng, dims), dims)


def exact_commutator_norm2(left, right):
    """sum_{ab} |L_a R_b - R_b L_a|^2 of one point's stacks in exact
    rationals (every float is a rational), rounded once to a float."""
    left, right = (np.vectorize(Fraction, otypes=[object])(s) for s in (left, right))
    total = Fraction(0)
    for a in left:
        for b in right:
            total += sum(x * x for x in (a @ b - b @ a).ravel())
    return float(total)


def frame_identity_residuals(grad):
    """Residuals (full, mean, a_minus) of the three orthogonal-splitting
    identities of the derivative norms, of a sample that passes
    ``require_codazzi``:

    * |dA|^2 against the sum of the two projected squares,
    * |dH|^2 against |H|^2 |d nu1|^2 + |d|H||^2,
    * |dA^-|^2 against its hat part plus its nu1 projection.
    """
    require_codazzi(grad)
    proj_sum = grad.nabla_aminus_nu1 + grad.nabla_h
    full = grad.norm2 - (sum_sq(grad.hat_plus_h, 4) + sum_sq(proj_sum, 3))
    mean = grad.nabla_H_norm2 - (
        grad.decomp.H.norm**2 * sum_sq(grad.nabla_nu1, 2) + sum_sq(grad.nabla_normH, 1)
    )
    nabla_aminus = grad.hat_nabla_aminus + (
        grad.nabla_aminus_nu1[..., None, :, :, :] * grad.decomp.nu1[..., :, None, None, None]
    )
    hat_am2, proj_am2 = sum_sq(grad.hat_nabla_aminus, 4), sum_sq(grad.nabla_aminus_nu1, 3)
    return full, mean, sum_sq(nabla_aminus, 4) - (hat_am2 + proj_am2)


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

    def test_computed_once_per_form(self):
        # a form's H and |A|^2 are computed on first read, as the traces and
        # squares of its read-only components
        A = symmetrize(np.random.default_rng(3).standard_normal((32, 3, 8, 8)))
        H = mean_curvature(A)
        assert mean_curvature(A) is H and A.H is H and A.norm2 is A.norm2
        vector = np.einsum("...aii->...a", A.components)
        assert H.vector.tobytes() == vector.tobytes()
        assert H.norm.tobytes() == np.array([np.linalg.norm(v) for v in vector]).tobytes()
        assert A.norm2.tobytes() == np.sum(A.components**2, axis=(-3, -2, -1)).tobytes()
        # a new form of the same components computes its own
        assert mean_curvature(SecondFundamentalForm(A.dims, A.components)) is not H


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
                rec = dec.a_minus.components + dec.h[..., None, :, :] * dec.nu1[..., None, None]
                worst_rec = np.max(np.abs(A.components - rec))
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
        rp = normal_curvature(principal_decompose(A))
        assert rp.norm2 == 0.0

    def test_commuting_diagonals_vanish(self):
        A = product_form()
        rp = normal_curvature(principal_decompose(A))
        assert rp.norm2 == 0.0 and rp.hat_part_norm2 == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            A = symmetric_gaussian(rng, Dims(3, 3))
            dec = principal_decompose(A)
            rp = normal_curvature(dec)
            assert rp.norm2 == pytest.approx(
                brute_force_rperp_norm2(A.components), rel=1e-12
            )

    def test_split_identity(self):
        # 2|Rperp|^2 - 2|Rperp(nu1)|^2 = 2|hat Rperp|^2 + 2|Rperp(nu1)|^2
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = symmetric_gaussian(rng, Dims(5, 4))
            dec = principal_decompose(A)
            rp = normal_curvature(dec)
            lhs = 2 * rp.norm2 - 2 * rp.principal_norm2
            rhs = 2 * rp.hat_part_norm2 + 2 * rp.principal_norm2
            assert abs(lhs - rhs) < 1e-10 * max(1.0, rp.norm2)

    def test_principal_slice_from_hring_commutator(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            A = symmetric_gaussian(rng, Dims(4, 3))
            dec = principal_decompose(A)
            rp = normal_curvature(dec)
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
        rp = normal_curvature(principal_decompose(A))
        assert rp.hat_part_norm2 == pytest.approx(truth, rel=1e-8, abs=0.0)


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCommutatorKernel:
    # the pairs (left, right) of each stack: against itself, against a copy
    # (two products), and against a stack of other lengths
    @pytest.mark.parametrize("lead", [(1000,), (7, 9)])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_batch_is_the_stacked_points(self, lead, symmetric):
        rng = np.random.default_rng(19)
        n = 8 if lead == (1000,) else 5
        stack = rng.standard_normal((*lead, 3, n, n))
        other = rng.standard_normal((*lead, 1, n, n))
        if symmetric:
            stack, other = (0.5 * (s + s.swapaxes(-1, -2)) for s in (stack, other))
        pairs = [(stack, stack), (stack, stack.copy()), (other, stack), (stack, other)]
        for left, right in pairs:
            batch = commutator_norm2(left, right)
            assert batch.shape == lead
            points = [
                commutator_norm2(a, a) if right is left else commutator_norm2(a, b)
                for a, b in zip(left.reshape(-1, *left.shape[-3:]),
                                right.reshape(-1, *right.shape[-3:]))
            ]
            assert all(isinstance(p, float) for p in points)
            assert batch.tobytes() == np.reshape(points, lead).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_self_and_cross_paths_round_the_exact_sum(self, k, symmetric):
        # the self path sums 2 sum_{a<b} |[L_a, L_b]|^2 and the cross path every
        # (a, b): both lie within 16 (n + 2) eps sum_{ab} |L_a|^2 |R_b|^2 of
        # sum_{ab} |[L_a, R_b]|^2 in exact rationals, a bound on the rounding
        # of the products ((n + 1) eps |L_a| |R_b| an entry) and of the sum
        rng = np.random.default_rng(31 + k)
        n = 5
        stacks = rng.standard_normal((4, k, n, n)) * rng.uniform(1e-3, 1e3, (4, k, 1, 1))
        if symmetric:
            stacks = 0.5 * (stacks + stacks.swapaxes(-1, -2))
        others = rng.standard_normal((4, 2, n, n))
        for left, right in [(stacks, stacks), (stacks, others), (others, stacks)]:
            exact = np.array([exact_commutator_norm2(a, b) for a, b in zip(left, right)])
            sq = np.add.reduce(left**2, axis=(-2, -1))[:, :, None] * np.add.reduce(
                right**2, axis=(-2, -1))[:, None, :]
            bound = 16 * (n + 2) * np.finfo(float).eps * sq.sum(axis=(-2, -1))
            paths = [commutator_norm2(left, right.copy())]
            if right is left:
                paths.append(commutator_norm2(left, left))
            for path in paths:
                assert np.all(np.abs(path - exact) <= bound)
        # a single matrix has no pairs: its self and cross sums are exactly 0
        if k == 1:
            assert commutator_norm2(stacks, stacks).tolist() == [0.0] * 4
            assert commutator_norm2(stacks, stacks.copy()).tolist() == [0.0] * 4

    def test_a_batch_keeps_its_product_stacks_within_the_budget(self):
        stack = symmetric_gaussian(np.random.default_rng(23), Dims(8, 3)).components
        stack = np.repeat(stack[None], 1024, axis=0)
        assert traced_peak(lambda: commutator_norm2(stack, stack)) < 3 * STACK_BUDGET * 8

    def test_a_point_wider_than_the_budget_is_a_block_of_its_own(self):
        stack = np.random.default_rng(29).standard_normal((8, 16, 16, 16))
        point = 16**4  # the (16, 16, 16, 16) stack of one point
        assert point > STACK_BUDGET
        assert traced_peak(lambda: commutator_norm2(stack, stack)) < 3 * point * 8


class TestGradientSample:
    def _point(self, n=4, m=2, seed=3):
        rng = np.random.default_rng(seed)
        return principal_decompose(symmetric_gaussian(rng, Dims(n, m))), rng

    def test_projected_tensors_fully_symmetric(self):
        dec, rng = self._point()
        grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
        proj = grad.nabla_h + grad.nabla_aminus_nu1
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.max(np.abs(proj - proj.transpose(*perm))) < 1e-12

    def test_trace_identities(self):
        # tracing the split tensors over the last index recovers d|H| and |H| d nu1
        dec, rng = self._point(n=5, m=3, seed=11)
        grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
        lhs1 = np.einsum("kik->i", grad.nabla_h + grad.nabla_aminus_nu1)
        assert np.max(np.abs(lhs1 - grad.nabla_normH)) < 1e-12
        hat_plus_h = grad.hat_nabla_aminus + np.einsum(
            "jk,ai->aijk", dec.h, grad.nabla_nu1
        )
        lhs2 = np.einsum("akik->ai", hat_plus_h)
        assert np.max(np.abs(lhs2 - dec.H.norm * grad.nabla_nu1)) < 1e-10

    def test_frame_identities_zero_grad(self):
        dec, _ = self._point()
        grad = gradient_sample(dec, np.zeros((2, 4, 4, 4)))
        full, mean, a_minus = frame_identity_residuals(grad)
        assert max(abs(full), abs(mean), abs(a_minus)) == 0.0

    def test_frame_identities_pure_normH(self):
        dec, rng = self._point(n=6, m=3, seed=21)
        # the trace-type tensor of dH = nu1 (x) d|H| with d nu1 = 0
        tensor = kato_e_tensor(dec.dims, np.outer(dec.nu1, rng.standard_normal(6)))
        grad = gradient_sample(dec, tensor)
        _, mean, _ = frame_identity_residuals(grad)
        assert abs(mean) < 1e-12

    def test_frame_identities_random(self):
        for seed in range(10):
            dec, rng = self._point(n=4, m=2, seed=100 + seed)
            grad = gradient_sample(dec, drawn_tensor(rng, dec.dims))
            full, mean, a_minus = frame_identity_residuals(grad)
            assert max(abs(full), abs(mean), abs(a_minus)) < 1e-10

    def test_invalid_sample_rejected(self):
        dec, _ = self._point()
        tensor = np.zeros((2, 4, 4, 4))
        tensor[0, 0, 1, 2] = 1.0  # not symmetric in tangent indices
        grad = gradient_sample(dec, tensor)
        with pytest.raises(InvalidSample):
            frame_identity_residuals(grad)

    def test_sample_without_a_split(self):
        # a sample built with no split gives the norms and the Codazzi scan
        # of the split one bit for bit; a slice of the splitting names the
        # missing split
        rng = np.random.default_rng(13)
        forms = symmetrize(rng.standard_normal((2, 3, 5, 5)))
        tensors = np.stack([drawn_tensor(rng, Dims(5, 3)) for _ in range(2)])
        split = gradient_sample(principal_decompose(forms), tensors)
        bare = gradient_sample(None, tensors)
        assert bare.decomp is None and np.shape(bare.norm2) == (2,)
        for name in ("norm2", "nabla_H_norm2", "codazzi_defect", "codazzi_scale"):
            assert np.array_equal(getattr(bare, name), getattr(split, name)), name
        require_codazzi(bare)
        for name in ("nabla_normH", "nabla_nu1", "nabla_aminus_nu1", "nabla_h",
                     "hat_plus_h", "hat_nabla_aminus"):
            with pytest.raises(ValueError, match="no principal split"):
                getattr(bare, name)
        for tensor in (np.zeros((5, 5, 5)), np.zeros((3, 5, 5, 4))):
            with pytest.raises(ValueError, match="tensor shape"):
                gradient_sample(None, tensor)
