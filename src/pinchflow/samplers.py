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
:func:`trial_rng` of a trial.  A campaign's forms are drawn pinched,
|A|^2 < c|H|^2 - d, by rejection, in batches over the trials still
rejected, each continuing its own generator; its matrices and derivative
tensors are Gaussian.  One radial factor moves a pinched form onto the
boundary to machine precision.

The samplers return raw data: forms, and derivative tensors from
:func:`symmetric_three_tensor`.  A point is ``principal_decompose(A)`` of a
sampled form, and ``gradient_sample(decomp, tensor)`` splits a derivative
tensor there (both in :mod:`pinchflow.forms`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidConstants, NotPinched
from .forms import Dims, SecondFundamentalForm, dot_norm, mean_curvature, symmetrize

MAX_ATTEMPTS = 400  # rejection attempts of a pinched form
FIRST_CAP = 0.5  # perturbation cap of the first attempt, halved every 8
# the largest scales drawn: a quartic side stays far below overflow
MAX_SIGMA, MAX_D = 1e50, 1e100  # d enters a form as sqrt(d)

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
    """What to sample: dimensions, Gaussian scale, the pinching constants of
    the forms (checked where a form is drawn), and the seed."""

    dims: Dims
    sigma: float = 1.0
    c: float = 0.0
    d: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("sigma", "c", "d"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        if not 0 < self.sigma <= MAX_SIGMA:
            raise ValueError(f"sigma must be in (0, {MAX_SIGMA:g}], got {self.sigma}")


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


def _normals(rng: Rng, shape: tuple[int, ...], sigma: float = 1.0) -> np.ndarray:
    """Normals of ``shape`` and scale ``sigma`` from one generator, or from
    the generator of each row of substream states, stacked along a leading
    axis."""
    if isinstance(rng, np.random.Generator):
        out = rng.standard_normal(shape)
    else:
        out = np.empty((len(rng), *shape))
        for row, r in zip(out, generators(rng)):
            r.standard_normal(out=row)
    if sigma != 1.0:
        out *= sigma  # in place: a chunk of derivative tensors is large
    return out


def symmetric_gaussian(rng: Rng, dims: Dims, sigma: float = 1.0) -> SecondFundamentalForm:
    return symmetrize(_normals(rng, (dims.m, dims.n, dims.n), sigma))


def symmetric_matrices(rng: Rng, n: int, count: int, sigma: float = 1.0) -> np.ndarray:
    """``count`` independent symmetric n x n Gaussian matrices, (..., count, n, n)."""
    raw = _normals(rng, (count, n, n), sigma)
    return 0.5 * (raw + raw.swapaxes(-1, -2))


def _pinched(
    rngs: Iterable[np.random.Generator], dims: Dims, c: float, d: float, sigma: float
) -> SecondFundamentalForm:
    """Forms with f = c|H|^2 - |A|^2 - d > 0, one per generator, stacked.

    Umbilic seed in a random normal direction sized so the umbilic slack is
    positive, plus a perturbation scaled to the available slack; rejection
    guarantees the constraint exactly.  Each attempt is one batch over the
    rows still rejected, each drawing from its own generator; the cap starts
    at ``FIRST_CAP`` and halves every 8 attempts.
    """
    n, m = dims.n, dims.m
    if c - 1.0 / n <= 0:
        raise InvalidConstants(f"pinched sampling needs c > 1/n, got c={c} for n={n}")
    if not 0 <= d <= MAX_D:
        raise InvalidConstants(f"d must be in [0, {MAX_D:g}] for pinched sampling, got {d}")
    rngs = list(rngs)
    rows = np.arange(len(rngs))
    cap = FIRST_CAP
    for attempt in range(MAX_ATTEMPTS):
        normals = np.empty((len(rows), m * (1 + n * n) + 1))
        u = np.empty(len(rows))
        for j, i in enumerate(rows):
            rngs[i].standard_normal(out=normals[j])
            u[j] = rngs[i].random()
        nu = normals[:, :m] / dot_norm(normals[:, :m])[:, None]
        s = sigma * np.exp(0.5 * normals[:, m])
        h0 = np.sqrt((d + s * s) / (c - 1.0 / n))
        base = (h0 / n)[:, None, None, None] * np.eye(n) * nu[..., None, None]
        pert = normals[:, m + 1:].reshape(len(rows), m, n, n)
        pert = 0.5 * (pert + pert.swapaxes(-1, -2))
        pert = pert / dot_norm(pert.reshape(len(rows), m * n * n))[:, None, None, None]
        A = SecondFundamentalForm(dims, base + (cap * u * s)[:, None, None, None] * pert)
        pinched = c * mean_curvature(A).norm2 - A.norm2 - d > 0
        if attempt == 0:
            if pinched.all():
                return A
            comps = A.components.copy()
        else:
            comps[rows[pinched]] = A.components[pinched]
        if not len(rows := rows[~pinched]):
            return SecondFundamentalForm(dims, comps)
        if attempt % 8 == 7:
            cap *= 0.5
    raise NotPinched(f"no pinched sample found in {MAX_ATTEMPTS} attempts")


def sample_pinched(rng: np.random.Generator, dims: Dims, c: float, d: float,
                   sigma: float = 1.0) -> SecondFundamentalForm:
    """A form with f = c|H|^2 - |A|^2 - d > 0: a chunk of one, from ``rng``."""
    return SecondFundamentalForm(dims, _pinched([rng], dims, c, d, sigma).components[0])


def rescale_to_boundary(
    form: SecondFundamentalForm, c: float, d: float
) -> SecondFundamentalForm:
    """Radially rescale so that |A|^2 = c |H|^2 - d holds exactly.

    Needs d > 0 (for d = 0 the boundary is a scale-invariant cone that radial
    scaling cannot reach) and strict pinching direction c|H|^2 > |A|^2.
    """
    if d <= 0:
        raise InvalidConstants("boundary rescaling needs d > 0")
    H = mean_curvature(form)
    g0 = c * H.norm2 - form.norm2
    if np.any(g0 <= 0):
        raise NotPinched("cannot reach the boundary: c|H|^2 - |A|^2 <= 0")
    lam = np.sqrt(d / g0)
    return SecondFundamentalForm(form.dims, lam[..., None, None, None] * form.components)


def sample_form(spec: SamplerSpec, streams: np.ndarray) -> SecondFundamentalForm:
    """The pinched forms of the trials of the ``TAG_FORM`` substream states,
    stacked; a trial's form is the one :func:`sample_pinched` draws from its
    ``trial_rng`` alone."""
    return _pinched(generators(streams), spec.dims, spec.c, spec.d, spec.sigma)


def symmetric_three_tensor(rng: Rng, dims: Dims, sigma: float = 1.0) -> np.ndarray:
    """Gaussian (..., m, n, n, n) tensor symmetrized over its tangent indices."""
    raw = _normals(rng, (dims.m, dims.n, dims.n, dims.n), sigma)
    lead = raw.ndim - 3
    p0, p1, *rest = (raw.transpose(*range(lead), *perm)
                     for perm in itertools.permutations(range(lead, lead + 3)))
    acc = p0 + p1
    for p in rest:
        acc += p
    acc /= 6.0
    return acc


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


def sample_w(rng: Rng, dims: Dims, sigma: float = 1.0) -> np.ndarray:
    return _normals(rng, (dims.m, dims.n), sigma)
