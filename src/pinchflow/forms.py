"""Pointwise tensor algebra for the second fundamental form of a submanifold.

The input is a stack of ``m`` symmetric ``n x n`` matrices ``A^alpha``
holding the components of the normal-bundle-valued second fundamental form
in an orthonormal frame.  :func:`principal_decompose` splits it along the
principal normal ``nu1 = H/|H|`` into ``h`` and ``A^-``; the resulting
:class:`PrincipalDecomposition` is the point object, carrying the form ``A``
it split and its mean curvature ``H``, and it is all that
:func:`normal_curvature` and :func:`gradient_sample` (and the pinching,
reaction and lemma evaluators built on them) take about a point.

Everything is a plain float64 array at desk scale (n, m <= 16); values are
immutable after construction and all operations are pure functions.  Every
object also takes a batch of points stacked along leading axes: forms
``(..., m, n, n)``, derivative samples ``(..., m, n, n, n)``.  A scalar of
one point is then an array over those axes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DegenerateMeanCurvature, InvalidSample

MAX_DIM = 16
# the fewest trials a campaign evaluates together (campaign.chunk_size grows a
# chunk of small matrices up to a byte budget), and the smallest block of flow
# states simulate evaluates
CHUNK = 32
# float64 values the widest stack of a campaign chunk, a derivative slice, a
# block of flow states or a block of commutator_norm2's product stacks may
# hold: 128 KB, glibc's default mmap threshold
STACK_BUDGET = 2**14
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

    # computed on first read: the components are read-only
    @cached_property
    def norm2(self) -> float | np.ndarray:
        return sum_sq(self.components, 3)

    @cached_property
    def H(self) -> "MeanCurvature":
        """The mean curvature, which :func:`mean_curvature` returns."""
        vector = np.einsum("...aii->...a", self.components)
        return MeanCurvature(vector, _scalar(dot_norm(vector)))


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
    return A.H


@dataclass(frozen=True)
class PrincipalDecomposition:
    """Splitting A = A^- + h (x) nu1 along the principal normal.

    ``form`` is the A that was split and ``H`` its mean curvature.
    ``h_ij = <A_ij, nu1>`` is the second fundamental form in the principal
    direction, ``A^-`` the part orthogonal to it (vector-valued and traceless),
    ``h_ring`` the traceless part of h.  Squared norms are cached: the
    Pythagoras identities |A|^2 = |h|^2 + |A^-|^2 and
    |Aring|^2 = |h_ring|^2 + |A^-|^2 = |A|^2 - |H|^2/n hold by construction.
    Every field carries the leading batch axes of the form it splits.
    """

    form: SecondFundamentalForm
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

    @property
    def dims(self) -> Dims:
        return self.form.dims


def principal_decompose(A: SecondFundamentalForm) -> PrincipalDecomposition:
    """Split A along nu1 = H/|H|.

    Raises :class:`InvalidSample` when an entry of A is not finite, and
    :class:`DegenerateMeanCurvature` when |H| <= TOL_H (at any point of a
    batch).
    """
    # a finite |A|^2 has finite entries; finite entries may still overflow it
    if not np.isfinite(A.norm2).all() and not np.isfinite(A.components).all():
        entry = np.argwhere(~np.isfinite(A.components))[0].tolist()
        raise InvalidSample(f"form entry {entry} is not finite: {A.components[tuple(entry)]}")
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
        form=A,
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


@cache
def _pairs(k: int) -> np.ndarray:
    """The indices a (first row) < b (second row) of the pairs of k matrices."""
    index = np.array(np.triu_indices(k, 1))
    index.setflags(write=False)
    return index


def _commutators_norm2(left: np.ndarray, right: np.ndarray) -> float | np.ndarray:
    """:func:`commutator_norm2` of stacks whose products are formed at once."""
    lead = left.shape[:-3]
    if right is left:  # 2 sum_{a<b} |[L_a, L_b]|^2: [L_b, L_a] = -[L_a, L_b], [L_a, L_a] = 0
        first, second = _pairs(left.shape[-3])
        left, right, weight = np.take(left, first, axis=-3), np.take(left, second, axis=-3), 2.0
    else:
        left, right, weight = left[..., :, None, :, :], right[..., None, :, :, :], 1.0
    # in place: a third live product stack can make glibc trim the heap per chunk
    comm = left @ right
    comm -= right @ left
    flat = comm.reshape(*lead, -1)  # one flat axis a point: a batch rounds as its points
    return _scalar(weight * np.add.reduce(flat * flat, axis=-1))


def commutator_norm2(left: np.ndarray, right: np.ndarray) -> float | np.ndarray:
    """sum_{ab} |L_a R_b - R_b L_a|^2 over two stacks (..., k, n, n) of square
    matrices with the same leading axes.

    A stack against itself (``right is left``) forms the two products of each
    pair a < b once, k (k - 1) in all; two stacks form all k_left k_right.  A
    batch is walked in blocks of points whose k (k - 1) gathered or
    k_left k_right product matrices hold at most ``STACK_BUDGET`` values (one
    point a block when a point's are wider); each point is reduced over its
    own stack, so the blocks move no bit.
    """
    if left.ndim == 3:
        return _commutators_norm2(left, right)
    *lead, k_left, n, _ = left.shape
    k_right = k_left - 1 if right is left else right.shape[-3]
    step = max(1, STACK_BUDGET // max(1, k_left * k_right * n * n))
    flat_left, flat_right = left.reshape(-1, k_left, n, n), right.reshape(-1, *right.shape[-3:])
    out = np.empty(len(flat_left))
    for start in range(0, len(out), step):
        block = flat_left[start:start + step]
        out[start:start + step] = _commutators_norm2(
            block, block if right is left else flat_right[start:start + step])
    return out.reshape(lead)


def normal_curvature(decomp: PrincipalDecomposition) -> NormalCurvature:
    """|R^perp|^2 and its two parts from the split alone: R^perp(nu1) = [h, A^-]
    and the hat part is [A^-_a, A^-_b].  As A_a = A^-_a + nu1_a h with
    sum_b nu1_b A^-_b = 0 and |nu1| = 1, the cross terms vanish and
    |R^perp|^2 = |hat R^perp|^2 + 2 |R^perp(nu1)|^2, with no (m, m, n, n) stack."""
    am = decomp.a_minus.components
    principal, hat = commutator_norm2(decomp.h[..., None, :, :], am), commutator_norm2(am, am)
    return NormalCurvature(hat + 2 * principal, principal, hat)


@dataclass(frozen=True)
class GradientSample:
    """A sample of the covariant derivative of A with its principal splitting.

    ``tensor[a, i, j, k]`` models the alpha-component of the derivative of
    A_jk in the i-th tangent direction, and ``decomp`` is the split of the
    points it sits at.  The derived slices are the pieces of the splitting
    used by the gradient estimates, each computed (read-only) on first read:

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

    Every slice carries the leading batch axes of the points, and a scalar
    of one point is an array over those axes.  ``codazzi_defect`` is
    :meth:`asymmetry`, scanned once on first read.  A sample built with no
    split (``decomp`` None) still gives the norms and the Codazzi scan;
    a slice of the splitting then raises a ``ValueError``.
    """

    decomp: PrincipalDecomposition | None
    tensor: np.ndarray  # (..., m, n, n, n)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tensor", _freeze(self.tensor))

    @property
    def split(self) -> PrincipalDecomposition:  # what every slice of the splitting reads
        if self.decomp is None:
            raise ValueError("this derivative sample has no principal split (decomp is None)")
        return self.decomp

    @cached_property
    def nabla_H(self) -> np.ndarray:  # (..., m, n)  derivative of the H vector
        return _freeze(np.einsum("...aijj->...ai", self.tensor))

    @cached_property
    def nabla_normH(self) -> np.ndarray:  # (..., n)
        return _freeze(np.einsum("...a,...ai->...i", self.split.nu1, self.nabla_H))

    @cached_property
    def nabla_nu1(self) -> np.ndarray:  # (..., m, n)
        nu1, norm = self.split.nu1, np.asarray(self.split.H.norm)[..., None, None]
        return _freeze((self.nabla_H - nu1[..., :, None] * self.nabla_normH[..., None, :]) / norm)

    @cached_property
    def nabla_aminus_nu1(self) -> np.ndarray:  # (..., n, n, n) <dA^-, nu1> = -<A^-, d nu1>
        am = self.split.a_minus.components
        return _freeze(-np.einsum("...ajk,...ai->...ijk", am, self.nabla_nu1))

    @cached_property
    def _proj(self) -> np.ndarray:  # (..., n, n, n)  <dA, nu1>
        return np.einsum("...a,...aijk->...ijk", self.split.nu1, self.tensor)

    @cached_property
    def nabla_h(self) -> np.ndarray:  # (..., n, n, n)  [i, j, k]
        return _freeze(self._proj - self.nabla_aminus_nu1)

    @cached_property
    def hat_plus_h(self) -> np.ndarray:  # (..., m, n, n, n)
        nu1 = self.split.nu1
        return _freeze(self.tensor - self._proj[..., None, :, :, :] * nu1[..., :, None, None, None])

    @cached_property
    def hat_nabla_aminus(self) -> np.ndarray:  # (..., m, n, n, n)
        h_dnu1 = np.einsum("...jk,...ai->...aijk", self.split.h, self.nabla_nu1)
        return _freeze(self.hat_plus_h - h_dnu1)

    @cached_property
    def norm2(self) -> float | np.ndarray:
        return sum_sq(self.tensor, 4)

    @cached_property
    def nabla_H_norm2(self) -> float | np.ndarray:
        return sum_sq(self.nabla_H, 2)

    @cached_property
    def codazzi_defect(self) -> float | np.ndarray:
        return self.asymmetry()

    @cached_property
    def codazzi_scale(self) -> np.ndarray:
        """max(1, max|T|) per point, the scale of its Codazzi bound."""
        return np.maximum(1.0, np.max(np.abs(self.tensor), axis=(-4, -3, -2, -1)))

    def asymmetry(self) -> float | np.ndarray:
        """Max deviation of T[a, i, j, k] from full symmetry in (i, j, k), per
        point: the largest spread max - min of T over the permutations of a
        triple, which rounds as the largest |T - T o sigma| does."""
        T, n = self.tensor, self.tensor.shape[-1]
        orbits = np.take(T.reshape(*T.shape[:-3], n**3), _orbit_index(n), axis=-1)
        # abs only clears the sign of a NaN, as |T - T o sigma| does
        spread = np.abs(np.max(orbits, axis=-2) - np.min(orbits, axis=-2))
        if np.isinf(spread).any():
            # |T - T o sigma| also meets each infinity with an equal one: NaN
            for inf in (np.inf, -np.inf):
                spread[np.count_nonzero(orbits == inf, axis=-2) > 1] = np.nan
        return _scalar(np.max(spread, axis=(-2, -1)))


@cache
def _orbit_index(n: int) -> np.ndarray:
    """Flat (i, j, k) indices of the six permutations of every triple
    i <= j <= k, one column per triple; a repeated index repeats entries."""
    triples = itertools.combinations_with_replacement(range(n), 3)
    index = np.array([[(p * n + q) * n + r for p, q, r in itertools.permutations(t)]
                      for t in triples]).T
    index.setflags(write=False)
    return index


def gradient_sample(decomp: PrincipalDecomposition | None, tensor: np.ndarray) -> GradientSample:
    """The raw derivative tensors (..., m, n, n, n) at the points ``decomp``,
    or with no split (None), when m, n and the points are the tensor's."""
    tensor = np.asarray(tensor, dtype=np.float64)
    if decomp is not None:
        lead, m, n = decomp.nu1.shape[:-1], decomp.dims.m, decomp.dims.n
    elif tensor.ndim >= 4:
        lead, m, n = tensor.shape[:-4], tensor.shape[-4], tensor.shape[-1]
    else:
        raise ValueError(f"tensor shape {tensor.shape}, expected (..., m, n, n, n)")
    if tensor.shape != lead + (m, n, n, n):
        raise ValueError(f"tensor shape {tensor.shape}, expected {lead + (m, n, n, n)}")
    return GradientSample(decomp, tensor)


def require_codazzi(grad: GradientSample) -> None:
    """Raise :class:`InvalidSample` when a sample breaks the Codazzi (full
    tangent-index symmetry) constraint beyond TOL_CODAZZI times its scale
    max(1, max|T|); each point of a batch is held to its own scale, and a
    NaN defect breaks it."""
    defect = grad.codazzi_defect
    broken = np.extract(~(defect <= TOL_CODAZZI * grad.codazzi_scale), defect)
    if broken.size:
        raise InvalidSample(
            f"derivative tensor asymmetry {broken.max():.3e} exceeds {TOL_CODAZZI:.1e} x scale"
        )
