"""Deterministic, seeded samplers for forms and derivative tensors.

Every trial draws from its own substream ``default_rng((seed, trial, tag))``
so a campaign reproduces bit-identically from (seed, spec) regardless of
which lemmas are being checked.  Constrained distributions are produced by
rejection plus exact radial rescaling: norm constraints are radial, so a
single multiplicative factor lands on them to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConstants, NotPinched
from .forms import (
    Dims,
    GradientSample,
    MeanCurvature,
    PrincipalDecomposition,
    SecondFundamentalForm,
    gradient_sample,
    mean_curvature,
    principal_decompose,
    symmetrize,
)

DISTRIBUTIONS = ("gaussian", "pinched", "boundary")
MAX_ATTEMPTS = 400  # rejection attempts of sample_pinched

# substream tags: one per input kind so that lemma sets do not perturb draws
TAG_FORM = 0
TAG_MATRICES = 1
TAG_GRADIENT = 2
TAG_W = 3


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: dimensions, distribution and constants, plus the seed."""

    dims: Dims
    distribution: str = "gaussian"
    sigma: float = 1.0
    c: float = 0.0
    d: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        for name in ("sigma", "c", "d"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.distribution in ("pinched", "boundary") and self.c <= 1.0 / self.dims.n:
            raise InvalidConstants("pinched/boundary sampling needs c > 1/n")


def trial_rng(seed: int, trial: int, tag: int = TAG_FORM) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(trial), int(tag)))


@dataclass(frozen=True)
class PointSample:
    """A form together with its mean curvature and principal splitting."""

    form: SecondFundamentalForm
    decomp: PrincipalDecomposition

    @classmethod
    def from_form(cls, form: SecondFundamentalForm) -> "PointSample":
        return cls(form, principal_decompose(form))

    @property
    def H(self) -> MeanCurvature:
        return self.decomp.H

    def scaled(self, lam: float) -> "PointSample":
        return PointSample.from_form(self.form.scaled(lam))


def symmetric_gaussian(
    rng: np.random.Generator, dims: Dims, sigma: float = 1.0
) -> SecondFundamentalForm:
    raw = sigma * rng.standard_normal((dims.m, dims.n, dims.n))
    return symmetrize(raw)


def symmetric_matrices(
    rng: np.random.Generator, n: int, count: int, sigma: float = 1.0
) -> list[np.ndarray]:
    """``count`` independent symmetric n x n Gaussian matrices."""
    out = []
    for _ in range(count):
        raw = sigma * rng.standard_normal((n, n))
        out.append(0.5 * (raw + raw.T))
    return out


def sample_pinched(
    rng: np.random.Generator,
    dims: Dims,
    c: float,
    d: float,
    sigma: float = 1.0,
) -> SecondFundamentalForm:
    """A form with f = c|H|^2 - |A|^2 - d > 0.

    Umbilic seed in a random normal direction sized so the umbilic slack is
    positive, plus a perturbation scaled to the available slack; rejection
    guarantees the constraint exactly.
    """
    n, m = dims.n, dims.m
    g = c - 1.0 / n
    if g <= 0:
        raise InvalidConstants("pinched sampling needs c > 1/n")
    cap = 0.5
    for attempt in range(MAX_ATTEMPTS):
        nu = rng.standard_normal(m)
        nu /= np.linalg.norm(nu)
        s = sigma * np.exp(0.5 * rng.standard_normal())
        h0 = np.sqrt((d + s * s) / g)
        base = (h0 / n) * np.eye(n)[None, :, :] * nu[:, None, None]
        pert = rng.standard_normal((m, n, n))
        pert = 0.5 * (pert + pert.transpose(0, 2, 1))
        pert /= np.linalg.norm(pert)
        tau = rng.uniform(0.0, cap) * s
        A = symmetrize(base + tau * pert)
        H = mean_curvature(A)
        if c * H.norm2 - A.norm2 - d > 0:
            return A
        if attempt % 8 == 7:
            cap *= 0.5
    raise NotPinched(f"no pinched sample found in {MAX_ATTEMPTS} attempts")


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
    if g0 <= 0:
        raise NotPinched("cannot reach the boundary: c|H|^2 - |A|^2 <= 0")
    lam = np.sqrt(d / g0)
    return form.scaled(float(lam))


def sample_form(spec: SamplerSpec, trial: int) -> SecondFundamentalForm:
    rng = trial_rng(spec.seed, trial, TAG_FORM)
    if spec.distribution == "gaussian":
        return symmetric_gaussian(rng, spec.dims, spec.sigma)
    if spec.distribution == "pinched":
        return sample_pinched(rng, spec.dims, spec.c, spec.d, spec.sigma)
    pinched = sample_pinched(rng, spec.dims, spec.c, 0.0, spec.sigma)
    return rescale_to_boundary(pinched, spec.c, spec.d)


def sample_point(spec: SamplerSpec, trial: int) -> PointSample:
    return PointSample.from_form(sample_form(spec, trial))


def symmetric_three_tensor(
    rng: np.random.Generator, dims: Dims, sigma: float = 1.0
) -> np.ndarray:
    """Gaussian (m, n, n, n) tensor symmetrized over its tangent indices."""
    raw = sigma * rng.standard_normal((dims.m, dims.n, dims.n, dims.n))
    acc = np.zeros_like(raw)
    for perm in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3),
                 (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)):
        acc += raw.transpose(*perm)
    return acc / 6.0


def sample_gradient(
    rng: np.random.Generator, point: PointSample, sigma: float = 1.0
) -> GradientSample:
    """Codazzi-constrained derivative sample at ``point``.

    A fully symmetric raw tensor plays the role of the derivative of A, so
    both projected tensors are symmetric and the trace identities hold by
    construction.
    """
    tensor = symmetric_three_tensor(rng, point.decomp.dims, sigma)
    return gradient_sample(point.decomp, point.H, tensor)


def pure_trace_tensor(
    dims: Dims, nu1: np.ndarray, nabla_normH: np.ndarray, scaled_nabla_nu1: np.ndarray
) -> np.ndarray:
    """The trace-type tensor built from given d|H| and |H| d nu1 slices.

    This is the minimizer of the sharp Kato inequality; feeding it back
    through the splitting reproduces the two trace inequalities with
    equality.
    """
    dH = nu1[:, None] * nabla_normH[None, :] + scaled_nabla_nu1  # (m, n)
    return kato_e_tensor(dims, dH)


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


def sample_w(rng: np.random.Generator, dims: Dims, sigma: float = 1.0) -> np.ndarray:
    return sigma * rng.standard_normal((dims.m, dims.n))
