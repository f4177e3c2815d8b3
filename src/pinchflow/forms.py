"""Pointwise tensor algebra for the second fundamental form of a submanifold.

The central object is a stack of ``m`` symmetric ``n x n`` matrices
``A^alpha`` holding the components of the normal-bundle-valued second
fundamental form in an orthonormal frame.  From it we derive the mean
curvature vector, the splitting along the principal normal ``nu1 = H/|H|``
into ``h`` and ``A^-``, traceless parts, the normal curvature built from
commutators, and first-derivative samples with the Codazzi symmetries.

Everything is a plain float64 array at desk scale (n, m <= 16); values are
immutable after construction and all operations are pure functions.  Every
object also takes a batch of points stacked along leading axes: forms
``(..., m, n, n)``, derivative samples ``(..., m, n, n, n)``.  A scalar of
one point is then an array over those axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeanCurvature, InvalidSample

MAX_DIM = 16
# points evaluated together by campaigns and flows; larger chunks cost more
# memory than they save time (measurements in ROADMAP item 2)
CHUNK = 32
TOL_H = 1e-12
TOL_CODAZZI = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _scalar(x: np.ndarray) -> float | np.ndarray:
    """A float for a single point, the array over the batch axes otherwise."""
    return float(x) if x.ndim == 0 else x


def sum_sq(a: np.ndarray, core: int) -> float | np.ndarray:
    """Sum of squares over the last ``core`` axes of ``a``."""
    return _scalar(np.add.reduce(a**2, axis=tuple(range(-core, 0))))


@dataclass(frozen=True)
class Dims:
    """Tangent dimension n and codimension m."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not (2 <= self.n <= MAX_DIM):
            raise ValueError(f"tangent dimension n={self.n} outside [2, {MAX_DIM}]")
        if not (1 <= self.m <= MAX_DIM):
            raise ValueError(f"codimension m={self.m} outside [1, {MAX_DIM}]")


@dataclass(frozen=True)
class SecondFundamentalForm:
    """m symmetric n x n component matrices A^alpha (units 1/length).

    Symmetry of every slot is exact (bitwise) and checked on construction;
    build from raw data via :func:`symmetrize` when in doubt.
    """

    dims: Dims
    components: np.ndarray  # shape (m, n, n), or (..., m, n, n) for a batch

    def __post_init__(self) -> None:
        comp = _freeze(self.components)
        object.__setattr__(self, "components", comp)
        if comp.shape[-3:] != (self.dims.m, self.dims.n, self.dims.n):
            raise ValueError(f"components shape {comp.shape} does not match dims {self.dims}")
        if not np.array_equal(comp, comp.swapaxes(-1, -2)):
            raise ValueError("every A^alpha must equal its transpose exactly")

    @classmethod
    def from_components(cls, components: np.ndarray) -> "SecondFundamentalForm":
        components = np.asarray(components, dtype=np.float64)
        *_, m, n, _ = components.shape
        return cls(Dims(n, m), components)

    def scaled(self, lam: float) -> "SecondFundamentalForm":
        return SecondFundamentalForm(self.dims, lam * self.components)

    @property
    def norm2(self) -> float | np.ndarray:
        return sum_sq(self.components, 3)


def symmetrize(components: np.ndarray) -> SecondFundamentalForm:
    """Build a form from arbitrary (..., m, n, n) data by exact symmetrization."""
    components = np.asarray(components, dtype=np.float64)
    sym = 0.5 * (components + components.swapaxes(-1, -2))
    return SecondFundamentalForm.from_components(sym)


@dataclass(frozen=True)
class MeanCurvature:
    """Mean curvature vector H^alpha = tr A^alpha and its Euclidean norm."""

    vector: np.ndarray  # shape (..., m)
    norm: float | np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", _freeze(self.vector))

    @property
    def norm2(self) -> float | np.ndarray:
        return self.norm * self.norm


def dot_norm(x: np.ndarray) -> np.float64 | np.ndarray:
    """np.linalg.norm over the last axis, rounding included, for any leading
    axes: a matmul inner product is the BLAS dot np.linalg.norm takes."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def mean_curvature(A: SecondFundamentalForm) -> MeanCurvature:
    vector = np.einsum("...aii->...a", A.components)
    return MeanCurvature(vector, _scalar(dot_norm(vector)))


@dataclass(frozen=True)
class PrincipalDecomposition:
    """Splitting A = A^- + h (x) nu1 along the principal normal.

    ``h_ij = <A_ij, nu1>`` is the second fundamental form in the principal
    direction, ``A^-`` the part orthogonal to it (vector-valued and traceless),
    ``h_ring`` the traceless part of h, ``H`` the mean curvature the split
    was taken along.  Squared norms are cached: the
    Pythagoras identities |A|^2 = |h|^2 + |A^-|^2 and
    |Aring|^2 = |h_ring|^2 + |A^-|^2 = |A|^2 - |H|^2/n hold by construction.
    Every field carries the leading batch axes of the form it splits.
    """

    dims: Dims
    H: MeanCurvature
    nu1: np.ndarray          # unit m-vector
    h: np.ndarray            # symmetric (n, n)
    a_minus: SecondFundamentalForm
    h_ring: np.ndarray       # traceless symmetric (n, n)
    a2: float | np.ndarray        # |A|^2
    h2: float | np.ndarray        # |h|^2
    a_minus2: float | np.ndarray  # |A^-|^2
    h_ring2: float | np.ndarray   # |h_ring|^2
    a_ring2: float | np.ndarray   # |Aring|^2 = |h_ring|^2 + |A^-|^2

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu1", _freeze(self.nu1))
        object.__setattr__(self, "h", _freeze(self.h))
        object.__setattr__(self, "h_ring", _freeze(self.h_ring))

    def reconstruct(self) -> SecondFundamentalForm:
        """A^- + h (x) nu1, exact to roundoff."""
        comps = self.a_minus.components + self.h[..., None, :, :] * self.nu1[..., None, None]
        return SecondFundamentalForm(self.dims, comps)


def principal_decompose(A: SecondFundamentalForm) -> PrincipalDecomposition:
    """Split A along nu1 = H/|H|.

    Raises :class:`DegenerateMeanCurvature` when |H| <= TOL_H (at any point
    of a batch).
    """
    H = mean_curvature(A)
    norm = np.asarray(H.norm)[..., None]
    if (norm <= TOL_H).any():
        raise DegenerateMeanCurvature(f"|H| = {norm.min():.3e} <= {TOL_H:.1e}")
    n = A.dims.n
    nu1 = H.vector / norm
    h = np.einsum("...a,...aij->...ij", nu1, A.components)
    a_minus = SecondFundamentalForm(
        A.dims, A.components - h[..., None, :, :] * nu1[..., None, None]
    )
    h_ring = h - (norm[..., None] / n) * np.eye(n)
    h2 = sum_sq(h, 2)
    a_minus2 = a_minus.norm2
    h_ring2 = sum_sq(h_ring, 2)
    return PrincipalDecomposition(
        dims=A.dims,
        H=H,
        nu1=nu1,
        h=h,
        a_minus=a_minus,
        h_ring=h_ring,
        a2=A.norm2,
        h2=h2,
        a_minus2=a_minus2,
        h_ring2=h_ring2,
        a_ring2=h_ring2 + a_minus2,
    )


@dataclass(frozen=True)
class NormalCurvature:
    """Squared norms of the normal curvature R^perp of a flat ambient space.

    R^perp_{ij alpha beta} is the commutator [A^alpha, A^beta]_ij.
    ``principal_norm2`` is sum_ij |R^perp_ij(nu1)|^2, the contraction of the
    first normal slot with nu1, and ``hat_part_norm2`` the squared norm of
    the part orthogonal to nu1 in both normal slots.
    """

    norm2: float | np.ndarray
    principal_norm2: float | np.ndarray
    hat_part_norm2: float | np.ndarray


def commutator_norm2(left: np.ndarray, right: np.ndarray) -> float | np.ndarray:
    """sum_{ab} |L_a R_b - R_b L_a|^2 over two stacks (..., k, n, n) of square
    matrices."""
    left, right = left[..., :, None, :, :], right[..., None, :, :, :]
    return sum_sq(left @ right - right @ left, 4)


def normal_curvature(
    A: SecondFundamentalForm, decomp: PrincipalDecomposition
) -> NormalCurvature:
    # R^perp(nu1) = [h, A] = [h, A^-] since h commutes with itself, and A^-
    # takes values orthogonal to nu1, so the hat part is [A^-_a, A^-_b];
    # summing both from A^- avoids projecting the much larger full tensor
    am = decomp.a_minus.components
    return NormalCurvature(
        commutator_norm2(A.components, A.components),
        commutator_norm2(decomp.h[..., None, :, :], am),
        commutator_norm2(am, am),
    )


@dataclass(frozen=True)
class GradientSample:
    """A sample of the covariant derivative of A with its principal splitting.

    ``tensor[a, i, j, k]`` models the alpha-component of the derivative of
    A_jk in the i-th tangent direction.  Derived slices store the pieces of
    the splitting used by the gradient estimates:

    * ``nabla_h[i, j, k]`` and ``nabla_aminus_nu1[i, j, k]`` (the nu1
      projection splits into these two; their sum is fully symmetric for a
      Codazzi sample),
    * ``hat_plus_h[a, i, j, k]`` (the part orthogonal to nu1) and
      ``hat_nabla_aminus[a, i, j, k]`` (the same after removing the
      h-term h (x) d nu1),
    * ``nabla_normH[i]`` (derivative of |H|) and ``nabla_nu1[a, i]``.

    The projection of the derivative of A^- onto nu1 is forced to equal
    -<A^-, d nu1>, the relation obtained by differentiating <A^-, nu1> = 0,
    so the trace identities hold by construction whenever the raw tensor is
    fully symmetric in its three tangent indices.

    Every field carries the leading batch axes of the points the tensors
    were split at, and a scalar of one point is an array over those axes.
    ``codazzi_defect`` is :meth:`asymmetry`, scanned once on construction.
    """

    dims: Dims
    tensor: np.ndarray            # (..., m, n, n, n)
    nu1: np.ndarray               # (..., m)
    h_norm: float | np.ndarray    # |H| of the underlying point
    nabla_H: np.ndarray           # (..., m, n)  derivative of the H vector
    nabla_normH: np.ndarray       # (..., n)
    nabla_nu1: np.ndarray         # (..., m, n)
    nabla_h: np.ndarray           # (..., n, n, n)  [i, j, k]
    nabla_aminus_nu1: np.ndarray  # (..., n, n, n)
    hat_plus_h: np.ndarray        # (..., m, n, n, n)
    hat_nabla_aminus: np.ndarray  # (..., m, n, n, n)
    codazzi_defect: float | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("tensor", "nu1", "nabla_H", "nabla_normH", "nabla_nu1",
                     "nabla_h", "nabla_aminus_nu1", "hat_plus_h", "hat_nabla_aminus"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "codazzi_defect", self.asymmetry())

    @property
    def norm2(self) -> float | np.ndarray:
        return sum_sq(self.tensor, 4)

    @property
    def nabla_H_norm2(self) -> float | np.ndarray:
        return sum_sq(self.nabla_H, 2)

    def asymmetry(self) -> float | np.ndarray:
        """Max deviation of T[a, i, j, k] from full symmetry in (i, j, k), per
        point."""
        T = self.tensor
        lead = T.ndim - 3
        worst = 0.0
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            dev = np.abs(T - T.transpose(*range(lead), *(lead + p for p in perm)))
            worst = np.maximum(worst, np.max(dev, axis=(-4, -3, -2, -1)))
        return _scalar(worst)

    def scaled(self, lam: float) -> "GradientSample":
        """Linear rescaling of the derivative data at a fixed point."""
        return GradientSample(
            dims=self.dims,
            tensor=lam * self.tensor,
            nu1=self.nu1,
            h_norm=self.h_norm,
            nabla_H=lam * self.nabla_H,
            nabla_normH=lam * self.nabla_normH,
            nabla_nu1=lam * self.nabla_nu1,
            nabla_h=lam * self.nabla_h,
            nabla_aminus_nu1=lam * self.nabla_aminus_nu1,
            hat_plus_h=lam * self.hat_plus_h,
            hat_nabla_aminus=lam * self.hat_nabla_aminus,
        )


def gradient_sample(
    decomp: PrincipalDecomposition, H: MeanCurvature, tensor: np.ndarray
) -> GradientSample:
    """Split raw derivative tensors (..., m, n, n, n) at the points ``decomp``."""
    tensor = np.asarray(tensor, dtype=np.float64)
    m, n = decomp.dims.m, decomp.dims.n
    nu1 = decomp.nu1
    if tensor.shape != nu1.shape[:-1] + (m, n, n, n):
        raise ValueError(
            f"tensor shape {tensor.shape}, expected {nu1.shape[:-1] + (m, n, n, n)}"
        )
    nabla_H = np.einsum("...aijj->...ai", tensor)
    nabla_normH = np.einsum("...a,...ai->...i", nu1, nabla_H)
    norm = np.asarray(H.norm)[..., None, None]
    nabla_nu1 = (nabla_H - nu1[..., :, None] * nabla_normH[..., None, :]) / norm
    # <dA^-, nu1> = -<A^-, d nu1>
    nabla_aminus_nu1 = -np.einsum("...ajk,...ai->...ijk", decomp.a_minus.components, nabla_nu1)
    proj = np.einsum("...a,...aijk->...ijk", nu1, tensor)
    hat_plus_h = tensor - proj[..., None, :, :, :] * nu1[..., :, None, None, None]
    return GradientSample(
        dims=decomp.dims,
        tensor=tensor,
        nu1=nu1,
        h_norm=H.norm,
        nabla_H=nabla_H,
        nabla_normH=nabla_normH,
        nabla_nu1=nabla_nu1,
        nabla_h=proj - nabla_aminus_nu1,
        nabla_aminus_nu1=nabla_aminus_nu1,
        hat_plus_h=hat_plus_h,
        hat_nabla_aminus=hat_plus_h - np.einsum("...jk,...ai->...aijk", decomp.h, nabla_nu1),
    )


def require_codazzi(grad: GradientSample) -> None:
    """Raise :class:`InvalidSample` when a sample breaks the Codazzi (full
    tangent-index symmetry) constraint beyond TOL_CODAZZI times its scale
    max(1, max|T|); each point of a batch is held to its own scale."""
    scale = np.maximum(1.0, np.max(np.abs(grad.tensor), axis=(-4, -3, -2, -1)))
    broken = np.extract(grad.codazzi_defect > TOL_CODAZZI * scale, grad.codazzi_defect)
    if broken.size:
        raise InvalidSample(
            f"derivative tensor asymmetry {broken.max():.3e} exceeds {TOL_CODAZZI:.1e} x scale"
        )


@dataclass(frozen=True)
class FrameIdentityResiduals:
    """Residuals of the three splitting identities of the derivative norms."""

    full: float | np.ndarray       # |dA|^2 vs sum of the two projected squares
    mean: float | np.ndarray       # |dH|^2 vs |H|^2 |d nu1|^2 + |d|H||^2
    a_minus: float | np.ndarray    # |dA^-|^2 vs hat part + nu1 projection


def frame_identity_residuals(grad: GradientSample) -> FrameIdentityResiduals:
    """Check the orthogonal-splitting identities of the derivative norms.

    Raises :class:`InvalidSample` as :func:`require_codazzi` does.
    """
    require_codazzi(grad)
    proj_sum = grad.nabla_aminus_nu1 + grad.nabla_h
    full = grad.norm2 - (sum_sq(grad.hat_plus_h, 4) + sum_sq(proj_sum, 3))
    mean = grad.nabla_H_norm2 - (
        grad.h_norm**2 * sum_sq(grad.nabla_nu1, 2) + sum_sq(grad.nabla_normH, 1)
    )
    nabla_aminus = grad.hat_nabla_aminus + (
        grad.nabla_aminus_nu1[..., None, :, :, :] * grad.nu1[..., :, None, None, None]
    )
    hat_am2, proj_am2 = sum_sq(grad.hat_nabla_aminus, 4), sum_sq(grad.nabla_aminus_nu1, 3)
    return FrameIdentityResiduals(full, mean, sum_sq(nabla_aminus, 4) - (hat_am2 + proj_am2))
