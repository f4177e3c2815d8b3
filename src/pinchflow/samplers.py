"""Deterministic, seeded samplers for forms and derivative tensors.

Every trial draws from its own substream ``default_rng((seed, trial, tag))``
so a campaign reproduces bit-identically from (seed, spec) regardless of
which lemmas are being checked.  A chunk of trials is drawn at once from the
same substreams: :func:`substream_states` runs NumPy's seed hash over a
vector of trial numbers into a (trials, 4) array of states, and
:func:`generators` hands each row to NumPy's own PCG64 seeding, so a
campaign hashes a block of trials once and draws its chunks from slices of
the array.  :func:`sample_form` takes states only, so a trial drawn alone is
a chunk of one; the low-level samplers also take one generator,
:func:`trial_rng` of a trial.  A campaign's forms are pinched,
|A|^2 < c|H|^2 - d, by construction: each draws a fixed count of numbers
and splits its pinching budget B = (c - 1/n)|H|^2 - d into the shares of
|h_ring|^2, |A^-|^2 and f, flat or toward the edges where the reaction
estimates are tight, and a boundary form is the same draw with no share
for f.  Matrices are Gaussian, and a derivative tensor is a Gaussian draw
over the orbits of its tangent indices, exactly symmetric.

The samplers return raw data: forms, and derivative tensors from
:func:`symmetric_three_tensor`.  A point is ``principal_decompose(A)`` of a
sampled form, and ``gradient_sample(decomp, tensor)`` splits a derivative
tensor there (both in :mod:`pinchflow.forms`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .constants import pinching_gap
from .errors import InvalidConstants
from .forms import Dims, SecondFundamentalForm, _orbit_index, symmetrize
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

# the constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx, NEP 19)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


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


def trial_rng(seed: int, trial: int, tag: int = TAG_FORM) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(trial), int(tag)))


def _words(x: int) -> list[int]:
    """The uint32 entropy words SeedSequence takes from a non-negative int."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The multipliers of ``calls`` hashmix calls, as a column: call j xors
    with entry j and multiplies by entry j + 1."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    out = np.array(consts, dtype=np.uint32)[:, None]
    out.setflags(write=False)
    return out


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` by consecutive calls, one per row
    of ``consts[1:]``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_hash(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool mixing and generate_state(4, uint64) of every
    column of the (words, k) uint32 ``entropy``; returns (k, 4) uint64.

    The hashmix calls run in the order of the scalar loops.  Calls that do
    not depend on each other's output run as one array operation.
    """
    words = len(entropy)
    extra = max(0, words - _POOL_SIZE)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:words] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, consts[:_POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[at:at + _POOL_SIZE]))
        at += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, consts[at:at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    # generate_state cycles through the pool for 8 uint32 words, and
    # consecutive words pair into one little-endian uint64
    out = _hashmix(pool[np.arange(8) % _POOL_SIZE], _hash_constants(_INIT_B, _MULT_B, 8))
    out = out.astype(np.uint64)
    return (out[0::2] | out[1::2] << np.uint64(32)).T


def substream_states(seed: int, trials: Sequence[int], tag: int) -> np.ndarray:
    """``SeedSequence((seed, trial, tag)).generate_state(4, np.uint64)`` of
    every trial, shape (len(trials), 4).

    The hash is uint32 arithmetic on a constant schedule that depends only on
    the number of entropy words, so it runs once over all trials whose
    numbers take the same number of words.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    low = (trials & np.uint64(_MASK32)).astype(np.uint32)
    high = (trials >> np.uint64(32)).astype(np.uint32)
    states = np.empty((trials.size, 4), dtype=np.uint64)
    for wide in (False, True):  # a trial number >= 2**32 takes a second word
        rows = (high > 0) == wide
        if rows.any():
            count = int(rows.sum())
            trial_words = [low[rows], high[rows]] if wide else [low[rows]]
            entropy = np.array([
                *(np.full(count, w) for w in _words(int(seed))),
                *trial_words,
                *(np.full(count, w) for w in _words(int(tag))),
            ], dtype=np.uint32)
            states[rows] = _seed_hash(entropy)
    return states


@dataclass
class _KnownState(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one trial: its :func:`substream_states` row is the
    ``generate_state(4, np.uint64)`` that ``default_rng`` seeds PCG64 from."""

    state: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"only generate_state(4, uint64) is known, got ({n_words}, {dtype})")
        return self.state


def generators(states: np.ndarray) -> Iterator[np.random.Generator]:
    """The generator of each trial, in turn, seeded by NumPy from its
    :func:`substream_states` row, which PCG64 reads straight from the
    buffer, so the rows are made C-contiguous first."""
    for state in np.ascontiguousarray(states, dtype=np.uint64):
        yield np.random.Generator(np.random.PCG64(_KnownState(state)))


# what the samplers draw from: one generator, or the substream states of a chunk
Rng = np.random.Generator | np.ndarray


def _normals(rng: Rng, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of ``shape`` from one generator, or from the
    generator of each row of substream states, stacked along a leading axis."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(shape)
    out = np.empty((len(rng), *shape))
    for row, r in zip(out, generators(rng)):
        r.standard_normal(out=row)
    return out


def symmetric_gaussian(rng: Rng, dims: Dims) -> SecondFundamentalForm:
    return symmetrize(_normals(rng, (dims.m, dims.n, dims.n)))


def symmetric_matrices(rng: Rng, n: int, count: int) -> np.ndarray:
    """``count`` independent symmetric n x n Gaussian matrices, (..., count, n, n)."""
    raw = _normals(rng, (count, n, n))
    return 0.5 * (raw + raw.swapaxes(-1, -2))


def _split_forms(rngs: list[np.random.Generator], dims: Dims, c: float, d: float,
                 boundary: bool = False) -> list[SecondFundamentalForm]:
    """The pinched forms of one split draw per generator, stacked, and with
    ``boundary`` the forms of the same draws on the boundary at
    ``boundary_offset(d)``.

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
    k = len(rngs)
    normals, u = np.empty((k, m * n * n + 1)), np.empty((k, 3))
    for row, uniforms, rng in zip(normals, u, rngs):
        rng.standard_normal(out=row)
        rng.random(out=uniforms)
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
    return SecondFundamentalForm(dims, _split_forms([rng], dims, c, d)[0].components[0])


def sample_form(spec: SamplerSpec, streams: np.ndarray) -> SecondFundamentalForm:
    """The pinched forms of the trials of the ``TAG_FORM`` substream states,
    stacked; a trial's form is the one :func:`sample_pinched` draws from its
    ``trial_rng`` alone."""
    return _split_forms(list(generators(streams)), spec.dims, spec.c, spec.d)[0]


def sample_boundary(spec: SamplerSpec, streams: np.ndarray
                    ) -> tuple[SecondFundamentalForm, SecondFundamentalForm]:
    """The forms of :func:`sample_form`, and the forms of the same draws with
    f = 0, on the boundary |A|^2 = c|H|^2 - d at ``boundary_offset(spec.d)``."""
    return tuple(_split_forms(list(generators(streams)), spec.dims, spec.c, spec.d,
                              boundary=True))


@functools.cache
def _orbit_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbit of every flat (i, j, k) index, numbered as the triples of
    ``forms._orbit_index(n)``, and the square root of each orbit's size."""
    index = _orbit_index(n)
    orbit = np.empty(n**3, dtype=np.intp)
    orbit[index] = np.arange(index.shape[1])
    return orbit, np.sqrt(np.bincount(orbit))


def symmetric_three_tensor(rng: Rng, dims: Dims) -> np.ndarray:
    """Gaussian (..., m, n, n, n) tensor fully symmetric in its tangent
    indices, drawn by orbits: m C(n+2, 3) normals z, one per slot and triple
    i <= j <= k, and T[a, i, j, k] = z[a, t] / sqrt(|orbit t|) for the
    sorted triple t of (i, j, k).  Its law is that of the average of the six
    transposes of a Gaussian tensor, and its Codazzi defect is exactly 0."""
    orbit, root = _orbit_gather(dims.n)
    z = _normals(rng, (dims.m, root.size))
    z /= root
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
    return _normals(rng, (dims.m, dims.n))
