"""Deterministic, seeded samplers for forms and derivative tensors.

A campaign's trials draw in groups of ``CHUNK`` consecutive trials: group
g of an input kind is one generator, ``default_rng((seed, g, tag))``
(:func:`trial_rng`), which draws the rows of all its trials at once.  A
trial's inputs are its rows of its group's draws, so a campaign reproduces
bit-identically from (seed, spec) whatever lemmas it checks, whatever chunk
size it draws in and however many trials it runs, and a trial drawn alone
draws its group and takes its row.  The samplers take :class:`Trials`, the
consecutive trials of a chunk, or one generator, which draws one input.

A campaign's forms are pinched, |A|^2 < c|H|^2 - d, by construction: each
draws a fixed count of numbers and splits its pinching budget
B = (c - 1/n)|H|^2 - d into the shares of |h_ring|^2, |A^-|^2 and f, flat
or toward the edges where the reaction estimates are tight, and a boundary
form is the same draw with no share for f.  Matrices are Gaussian, and a
derivative tensor is a Gaussian draw over the orbits of its tangent indices,
exactly symmetric: :func:`orbit_normals` draws one normal per orbit, and
:func:`symmetric_three_tensor` gathers the tensor from them.

The samplers return raw data: forms, and derivative tensors.  A point is ``principal_decompose(A)`` of a
sampled form, and ``gradient_sample(decomp, tensor)`` splits a derivative
tensor there (both in :mod:`pinchflow.forms`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import pinching_gap
from .errors import InvalidConstants
from .forms import CHUNK, Dims, SecondFundamentalForm, _orbit_index, symmetrize
from .lemmas import boundary_offset

F_MIN = 1e-2  # the least share of the pinching budget f takes: f is a cancellation
# f = c|H|^2 - |A|^2 - d rounds to about this many units of 2c|H|^2 + d
F_ROUNDING = 64 * np.finfo(np.float64).eps
# the largest d drawn at: d enters a form as sqrt(d), and a quartic side
# stays far below overflow
MAX_D = 1e100

# substream tags: one per input kind so that lemma sets do not perturb draws
TAG_FORM = 0
TAG_MATRICES = 1
TAG_GRADIENT = 2
TAG_W = 3


@dataclass(frozen=True)
class SamplerSpec:
    """Every constant of a campaign: dimensions, the pinching constants of
    the forms (checked where a form is drawn), the seed, and the lemma
    constants delta, eta (kato; None is (n-1)/(n(n+2))) and eps0 (the case-2
    gradient margin).  The draws are standard: every id is homogeneous in
    (A, d), so a Gaussian scale would only restate d."""

    dims: Dims
    c: float = 0.0
    d: float = 0.0
    seed: int = 0
    delta: float = 0.5
    eta: float | None = None
    eps0: float | None = None

    def __post_init__(self) -> None:
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("c", "d", "delta", "eta", "eps0"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")


class Trials(NamedTuple):
    """The consecutive trials ``numbers`` of a campaign of ``seed``."""

    seed: int
    numbers: range


def trial_rng(seed: int, trial: int, tag: int = TAG_FORM) -> np.random.Generator:
    """The generator of the group of ``CHUNK`` consecutive trials that holds
    ``trial``: group g is ``default_rng((seed, g, tag))``."""
    return np.random.default_rng((int(seed), int(trial) // CHUNK, int(tag)))


# what the samplers draw from: one generator, or the trials of a chunk
Rng = np.random.Generator | Trials


def _draw(rng: Rng, tag: int, shape: tuple[int, ...], uniforms: int = 0
          ) -> tuple[np.ndarray, np.ndarray]:
    """Standard normals of ``shape``, then ``uniforms`` U(0, 1) numbers, from
    one generator, or for every trial of ``Trials``, stacked along a leading
    axis: a trial's are its row of its group's draw.  Each group draws the
    rows of all its trials in one call of each kind, straight into arrays of
    whole groups, so a trial drawn alone is its group's row too."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(shape), rng.random(uniforms)
    seed, numbers = rng
    groups = range(numbers.start - numbers.start % CHUNK, numbers.stop, CHUNK)
    normals = np.empty((len(groups), CHUNK, *shape))
    u = np.empty((len(groups), CHUNK, uniforms))
    for first, group_normals, group_u in zip(groups, normals, u):
        group = trial_rng(seed, first, tag)
        group.standard_normal(out=group_normals)
        group.random(out=group_u)
    rows = len(groups) * CHUNK
    own = slice(numbers.start - groups.start, numbers.stop - groups.start)
    return normals.reshape(rows, *shape)[own], u.reshape(rows, uniforms)[own]


def symmetric_gaussian(rng: Rng, dims: Dims) -> SecondFundamentalForm:
    return symmetrize(_draw(rng, TAG_FORM, (dims.m, dims.n, dims.n))[0])


def symmetric_matrices(rng: Rng, n: int, count: int) -> np.ndarray:
    """``count`` independent symmetric n x n Gaussian matrices, (..., count, n, n)."""
    raw = _draw(rng, TAG_MATRICES, (count, n, n))[0]
    return 0.5 * (raw + raw.swapaxes(-1, -2))


def _split_forms(rng: Rng, dims: Dims, c: float, d: float, boundary: bool = False
                 ) -> list[SecondFundamentalForm]:
    """The pinched forms of the split draws of ``rng``, stacked, and with
    ``boundary`` the forms of the same draws on the boundary at
    ``boundary_offset(d)``; one generator draws a chunk of one.

    A draw takes m n^2 + 1 normals and 3 uniforms: z of s = e^{z/2};
    unit symmetric traceless directions of h_ring (the first normal slot)
    and of the A^- stack (the others); and the raw shares of f and A^- of
    B = s^2, flat Dirichlet(1, 1, 1) shares or, for half the trials, edge
    shares, each 10^U(-12, 0).  A form sits in the frame nu1 = e_1 with
    |H|^2 = (d + B)/(c - 1/n), so B is its budget (c - 1/n)|H|^2 - d: f
    takes ``F_MIN`` of B plus the rest times its raw share (none on the
    boundary), and |h_ring|^2 and |A^-|^2 split what f leaves.
    """
    n, m = dims.n, dims.m
    g = pinching_gap(n, c)
    if not 0 <= d <= MAX_D:
        raise InvalidConstants(f"d must be in [0, {MAX_D:g}] for pinched sampling, got {d}")
    normals, u = np.atleast_2d(*_draw(rng, TAG_FORM, (m * n * n + 1,), 3))
    k = len(normals)
    dirs = normals[:, 1:].reshape(k, m, n, n)
    dirs = dirs + dirs.swapaxes(-1, -2)
    diag = dirs.reshape(k, m, n * n)[..., ::n + 1]  # a view of every diagonal
    diag -= diag.sum(axis=-1, keepdims=True) / n
    sq = np.einsum("...ij,...ij->...", dirs, dirs)
    # the norm of the h_ring direction in the first slot, of the A^- stack in the others
    norms = np.sqrt(np.where(np.arange(m) > 0, sq[:, 1:].sum(axis=-1, keepdims=True), sq[:, :1]))
    edge = u[:, :1] < 0.5
    f = np.where(edge, 10.0 ** (12 * (u[:, 1:2] - 1)), 1 - np.sqrt(1 - u[:, 1:2]))  # Beta(1, 2)
    t = np.where(edge, 10.0 ** (12 * (u[:, 2:] - 1)), u[:, 2:]) if m > 1 else np.zeros((k, 1))
    slot_share = np.where(np.arange(m) > 0, t, 1 - t)  # of what f leaves
    s2 = np.exp(0.5 * normals[:, :1]) ** 2  # np.exp(z) rounds differently

    def assemble(offset: float, share: np.ndarray | float) -> SecondFundamentalForm:
        # B is at least what f's rounding, F_ROUNDING (2c|H|^2 + d), needs for F_MIN of it
        budget = np.maximum(s2, F_ROUNDING * (2 * c / g + 1) * offset / F_MIN)
        rest = share * budget  # what f leaves of B
        A = dirs * (np.sqrt(slot_share * rest) / norms)[..., None, None]
        A.reshape(k, m, n * n)[:, 0, ::n + 1] += np.sqrt((offset + budget) / g) / n
        return SecondFundamentalForm(dims, A)

    pinched = assemble(d, (1 - F_MIN) * (1 - f))
    return [pinched, assemble(boundary_offset(d), 1.0)] if boundary else [pinched]


def sample_pinched(rng: np.random.Generator, dims: Dims, c: float, d: float
                   ) -> SecondFundamentalForm:
    """A form with f = c|H|^2 - |A|^2 - d > 0: a chunk of one, from ``rng``."""
    return SecondFundamentalForm(dims, _split_forms(rng, dims, c, d)[0].components[0])


def sample_form(spec: SamplerSpec, trials: range) -> SecondFundamentalForm:
    """The pinched forms of the consecutive ``trials``, stacked."""
    return _split_forms(Trials(spec.seed, trials), spec.dims, spec.c, spec.d)[0]


def sample_boundary(spec: SamplerSpec, trials: range
                    ) -> tuple[SecondFundamentalForm, SecondFundamentalForm]:
    """The forms of :func:`sample_form`, and the forms of the same draws with
    f = 0, on the boundary |A|^2 = c|H|^2 - d at ``boundary_offset(spec.d)``."""
    return tuple(_split_forms(Trials(spec.seed, trials), spec.dims, spec.c, spec.d,
                              boundary=True))


@functools.cache
def _orbit_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbit of every flat (i, j, k) index, numbered as the triples of
    ``forms._orbit_index(n)``, and the square root of each orbit's size."""
    index = _orbit_index(n)
    orbit = np.empty(n**3, dtype=np.intp)
    orbit[index] = np.arange(index.shape[1])
    return orbit, np.sqrt(np.bincount(orbit))


def orbit_normals(rng: Rng, dims: Dims) -> np.ndarray:
    """The (..., m, C(n+2, 3)) orbit normals of a derivative tensor: one normal
    per slot and triple i <= j <= k, over the square root of the size of
    the triple's orbit."""
    root = _orbit_gather(dims.n)[1]
    z = _draw(rng, TAG_GRADIENT, (dims.m, root.size))[0]
    z /= root
    return z


def symmetric_three_tensor(z: np.ndarray, dims: Dims) -> np.ndarray:
    """Gaussian (..., m, n, n, n) tensor fully symmetric in its tangent
    indices, gathered from its :func:`orbit_normals` z: T[a, i, j, k] =
    z[a, t] for the sorted triple t of (i, j, k).  Its law is that of the
    average of the six transposes of a Gaussian tensor, and its Codazzi
    defect is exactly 0."""
    orbit = _orbit_gather(dims.n)[0]
    # take, not z[..., orbit], returns the gather C-contiguous, as a sample stores it
    return np.take(z, orbit, axis=-1).reshape(*z.shape[:-1], dims.n, dims.n, dims.n)


def kato_e_tensor(
    dims: Dims, nabla_H: np.ndarray, w: np.ndarray | None = None
) -> np.ndarray:
    """The (m, n, n, n) trace component E built from dH and the w array."""
    n = dims.n
    eye = np.eye(n)
    t = (
        np.einsum("ai,jk->aijk", nabla_H, eye)
        + np.einsum("aj,ik->aijk", nabla_H, eye)
        + np.einsum("ak,ij->aijk", nabla_H, eye)
    ) / (n + 2)
    if w is not None:
        coeff = (n + 2) * (n - 1)
        t = t - 2.0 / coeff * np.einsum("ai,jk->aijk", w, eye)
        t = t + float(n) / coeff * (
            np.einsum("aj,ik->aijk", w, eye) + np.einsum("ak,ij->aijk", w, eye)
        )
    return t


def sample_w(rng: Rng, dims: Dims) -> np.ndarray:
    return _draw(rng, TAG_W, (dims.m, dims.n))[0]
