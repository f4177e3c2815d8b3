"""Two-sided evaluators for every standalone algebraic inequality.

Each evaluator computes both sides of one inequality exactly from the
sampled data and reports them as an :class:`InequalityCheck` of
``lhs <= rhs`` with ``slack = rhs - lhs``; the reaction bounds of
:mod:`~pinchflow.reaction` return their two sides, which the lemma table
wraps as checks.  :data:`LEMMAS` describes every identifier once, in report
order: what it bounds, its ``verify`` suite, the sampled input kinds a
trial of it draws and reads, the homogeneity degree of its slack (forms
scale linearly for the quartic reaction bounds, derivative samples for the
quadratic gradient bounds) and the evaluator of its group.  Each gradient
lemma L4.6-L4.9 is one formula; each of its two cases of c supplies
coefficients to it.

A point is its :class:`~pinchflow.forms.PrincipalDecomposition`, the result
of ``principal_decompose(A)``, which carries the form A and its mean
curvature H: the reaction evaluators take it alone, and the gradient ones a
:class:`~pinchflow.forms.GradientSample`, which carries it as ``decomp``.
The kato evaluators read only the sample's norms and Codazzi scan, so a
kato trial draws no form and builds its sample with no split.

Every evaluator also takes a batch of points (and of derivative samples)
stacked along leading axes; its checks then hold one lhs and rhs per point,
and a precondition such as f > 0 must hold at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .constants import c_n, pinching_gap
from .errors import InvalidConstants, NotPinched
from .forms import (
    GradientSample,
    PrincipalDecomposition,
    commutator_norm2,
    normal_curvature,
    require_codazzi,
    sum_sq,
)
from .reaction import boundary_reaction_bound, gram_norm2, reaction_gap


@dataclass(frozen=True)
class InequalityCheck:
    lemma_id: str
    lhs: float | np.ndarray
    rhs: float | np.ndarray

    @cached_property  # a campaign reads it for the worst trial and the verdict
    def slack(self) -> float | np.ndarray:
        return self.rhs - self.lhs

    @property
    def scale(self) -> float | np.ndarray:
        return np.maximum(1.0, np.maximum(np.abs(self.lhs), np.abs(self.rhs)))


def default_kato_eta(n: int) -> float:
    """The choice (n-1)/(n(n+2)), which turns 3.1 into 3.2."""
    return (n - 1) / (n * (n + 2))


def check_li(matrices: Sequence[np.ndarray] | np.ndarray) -> InequalityCheck:
    """Trace-square plus commutator norm against 3/2 (sum of norms)^2.

    ``matrices`` is k square matrices, or a (..., k, n, n) batch of them.
    """
    stack = np.asarray(matrices, dtype=np.float64)
    if stack.ndim < 3 or stack.shape[-3] == 0:
        raise ValueError("need at least one matrix")
    lhs = gram_norm2(stack, stack) + commutator_norm2(stack, stack)
    total = np.einsum("...aij,...aij->...", stack, stack)
    return InequalityCheck("li", lhs, 1.5 * total * total)


def check_kato(grad: GradientSample, w: np.ndarray, eta: float) -> InequalityCheck:
    """|dA|^2 >= (3/(n+2) - eta) |dH|^2 - (2/(n+2)) ((2/(n+2))/eta - n/(n-1)) |w|^2."""
    if not 0 < eta < np.inf:
        raise InvalidConstants(f"eta must be a positive finite number, got {eta}")
    require_codazzi(grad)
    n = grad.tensor.shape[-1]
    w2 = sum_sq(np.asarray(w, dtype=np.float64), 2)
    lhs = (3.0 / (n + 2) - eta) * grad.nabla_H_norm2 - (
        2.0 / (n + 2) * (2.0 / ((n + 2) * eta) - n / (n - 1.0))
    ) * w2
    return InequalityCheck("kato.3.1", lhs, grad.norm2)


def check_kato_trace(grad: GradientSample, w: np.ndarray) -> InequalityCheck:
    """|dA|^2 - |dH|^2/n >= (n-1)/(2n+1) |dA|^2 - 2n/((n-1)(2n+1)) |w|^2."""
    require_codazzi(grad)
    n = grad.tensor.shape[-1]
    w2 = sum_sq(np.asarray(w, dtype=np.float64), 2)
    lhs = (n - 1.0) / (2 * n + 1) * grad.norm2 - 2.0 * n / ((n - 1.0) * (2 * n + 1)) * w2
    rhs = grad.norm2 - grad.nabla_H_norm2 / n
    return InequalityCheck("kato.3.2", lhs, rhs)


# ----------------------------------------------------------------------
# reaction estimates (flat specialization)
# ----------------------------------------------------------------------

def _c_in_range(c: float, limit: float) -> bool:
    return c <= limit * (1 + 1e-12)


def require_c(ids: Sequence[str], n: int, c: float, eps0: float | None = None) -> None:
    """Refuse a c that the range check of one of ``ids`` rejects: 4.12's and
    4.14's 1/n < c <= 4/(3n), or the gradient regimes of L4.6-L4.9."""
    if {"4.12", "4.14"} & set(ids) and not (1.0 / n < c and _c_in_range(c, 4.0 / (3 * n))):
        raise InvalidConstants(f"need 1/n < c <= 4/(3n), got c={c} for n={n}")
    if {"L4.6", "L4.7", "L4.8", "L4.9"} & set(ids):
        _gradient_case(n, c, eps0)


def reaction_checks(
    ids: Sequence[str],
    dec: PrincipalDecomposition,
    c: float,
    d: float,
    delta: float = 0.5,
) -> list[InequalityCheck]:
    """Evaluate the requested flat reaction estimates on one pinched point,
    or on a batch of them (every point must be pinched)."""
    n = dec.dims.n
    rperp = normal_curvature(dec)
    hat2 = rperp.hat_part_norm2
    princ2 = rperp.principal_norm2
    am = dec.a_minus.components
    hra2 = gram_norm2(dec.h_ring[..., None, :, :], am)  # sum_b (<h_ring, A^b>)^2
    gram_am2 = gram_norm2(am, am)
    am2, hr2 = dec.a_minus2, dec.h_ring2
    out: list[InequalityCheck] = []
    if "4.12" in ids or "4.14" in ids:
        if "4.14" in ids and not (0 < delta <= 0.5):
            raise InvalidConstants(f"the reaction estimate needs 0 < delta <= 1/2, got {delta}")
        f = c * dec.H.norm2 - dec.a2 - d
        if np.any(f <= 0):
            raise NotPinched(f"reaction lemma needs f > 0, got {np.min(f)}")
        require_c(ids, n, c)
        gap = reaction_gap(dec.form, dec.H, rperp, c)

    for lemma_id in ids:
        if lemma_id == "4.5":
            out.append(InequalityCheck("4.5", hra2 + princ2, 2 * hr2 * am2))
        elif lemma_id == "4.6":
            out.append(InequalityCheck("4.6", gram_am2 + hat2, 1.5 * am2 * am2))
        elif lemma_id == "4.10":
            out.append(
                InequalityCheck(
                    "4.10", gram_am2 + hat2 + princ2, 1.5 * am2 * am2 + 2 * hr2 * am2
                )
            )
        elif lemma_id == "4.12":
            ncm1 = n * c - 1.0
            lhs = (2.0 / ncm1) * am2 * am2 + (n * c / ncm1) * hr2 * am2
            out.append(InequalityCheck("4.12", lhs, am2 / f * gap))
        elif lemma_id == "4.14":
            lhs = gram_am2 + hat2 + princ2
            out.append(InequalityCheck("4.14", lhs, (1 - delta) * am2 / f * gap))
        else:
            raise ValueError(f"unknown reaction lemma {lemma_id!r}")
    return out


# ----------------------------------------------------------------------
# gradient estimates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GradientQuantities:
    """All scalar contractions the gradient lemmas consume, computed once
    (one value per point of a batch)."""

    nablaA2: float | np.ndarray          # |dA|^2
    nablaH2: float | np.ndarray          # |dH|^2
    nabla_normH2: float | np.ndarray     # |d|H||^2
    nabla_nu12: float | np.ndarray       # |d nu1|^2
    hat_am2: float | np.ndarray          # |hat dA^-|^2
    proj_am2: float | np.ndarray         # |<dA^-, nu1>|^2
    nabla_am2: float | np.ndarray        # |dA^-|^2
    ring_proj2: float | np.ndarray       # |<d Aring, nu1>|^2
    hat_plus_h2: float | np.ndarray      # sum |hat dA^- + h d nu1|^2
    hat_plus_hring2: float | np.ndarray  # sum |hat dA^- + h_ring d nu1|^2
    q_pairing: float | np.ndarray        # 4 sum Q_kij <A^-_ij, d_k nu1>


def gradient_quantities(grad: GradientSample) -> GradientQuantities:
    dec = grad.split
    n = dec.dims.n
    h_norm = np.asarray(dec.H.norm)[..., None, None, None]
    proj = grad.nabla_h + grad.nabla_aminus_nu1  # (..., n, n, n), [i, j, k]
    eye = np.eye(n)
    trace_part = np.einsum("...i,jk->...ijk", grad.nabla_normH / n, eye)
    ring_proj = proj - trace_part
    hat_plus_hring = grad.hat_plus_h - (h_norm[..., None] / n) * np.einsum(
        "...ai,jk->...aijk", grad.nabla_nu1, eye
    )
    # Q_kij = d_k h_ring_ij - h_ring_ij d_k|H| / |H|
    nabla_hring = grad.nabla_h - trace_part
    q = nabla_hring - np.einsum("...jk,...i->...ijk", dec.h_ring, grad.nabla_normH) / h_norm
    am_pairing = -grad.nabla_aminus_nu1
    hat_am2 = sum_sq(grad.hat_nabla_aminus, 4)
    proj_am2 = sum_sq(grad.nabla_aminus_nu1, 3)
    return GradientQuantities(
        nablaA2=grad.norm2,
        nablaH2=grad.nabla_H_norm2,
        nabla_normH2=sum_sq(grad.nabla_normH, 1),
        nabla_nu12=sum_sq(grad.nabla_nu1, 2),
        hat_am2=hat_am2,
        proj_am2=proj_am2,
        nabla_am2=hat_am2 + proj_am2,
        ring_proj2=sum_sq(ring_proj, 3),
        hat_plus_h2=sum_sq(grad.hat_plus_h, 4),
        hat_plus_hring2=sum_sq(hat_plus_hring, 4),
        q_pairing=4.0 * np.sum(q * am_pairing, axis=(-3, -2, -1)),
    )


def _gradient_case(n: int, c: float, eps0: float | None) -> tuple[tuple, tuple, tuple, float, str]:
    """Case 1 when the 4/(3n) regime applies (n >= 8), else case 2; raise
    outside both.  A case is its coefficients of the terms of L4.6, L4.7 and
    L4.8, each in formula order (the first of L4.8 is None in case 2 without
    eps0 > 0), its cap on the delta of L4.9 and the refusal of a delta above
    that cap.  An eps0 given must be > 0."""
    if eps0 is not None and not eps0 > 0:
        raise InvalidConstants(f"the gradient lemmas need eps0 > 0, got eps0={eps0}")
    if n >= 8 and _c_in_range(c, 4.0 / (3 * n)):
        return (
            ((4.0 * n - 10) / (n + 2), 6.0 * (n - 1) / (n + 2)),
            ((5.0 * n - 8) / (3 * (n - 1)), (10.0 * n - 16) / (n + 2)),
            ((5.0 * n - 9) / (3 * (n - 1)), 3.0 * (n - 1) / (n - 3), 2.0 * (n + 2) / (n + 3)),
            1.0 / (5 * n - 8), "case-1 gradient estimate needs 0 < delta <= 1/(5n-8)",
        )
    limit = 3.0 * (n + 1) / (2 * n * (n + 2)) - (eps0 or 0.0)
    if _c_in_range(c, limit):
        eps = 2.0 * n * (n + 2) / (3 * (n - 1)) * (eps0 or 0.0)
        ring = None if eps0 is None else (1 - eps) * 1.5
        cap = min(0.5, eps)
        rule = f"case-2 gradient estimate needs 0 < delta <= {cap}"
        return (2, 4), (1.5, 6), (ring, 4, 2), cap, rule
    raise InvalidConstants(f"c={c} outside both gradient-lemma regimes for n={n} (eps0={eps0})")


def gradient_checks(
    ids: Sequence[str],
    grad: GradientSample,
    c: float,
    d: float,
    delta: float,
    eps0: float | None = None,
) -> list[InequalityCheck]:
    """Evaluate the requested gradient estimates on one constrained sample,
    or on a batch of them."""
    require_codazzi(grad)
    dec, H = grad.split, grad.split.H
    n = dec.dims.n
    pinching_gap(n, c)
    gq = gradient_quantities(grad)
    f = c * H.norm2 - dec.a2 - d
    am2, hr2, nu12 = dec.a_minus2, dec.h_ring2, gq.nabla_nu12
    out: list[InequalityCheck] = []
    for lemma_id in ids:
        if lemma_id in ("L4.6", "L4.7", "L4.8", "L4.9"):
            if np.any(f <= 0):
                raise NotPinched(f"gradient lemma needs f > 0, got {np.min(f)}")
            l46, l47, l48, delta_cap, delta_rule = _gradient_case(n, c, eps0)
        if lemma_id == "4.20":
            lhs = 3.0 / (n + 2) * H.norm2 * nu12
            out.append(InequalityCheck("4.20", lhs, gq.hat_plus_h2))
        elif lemma_id == "4.21":
            lhs = 2.0 * (n - 1) / (n * (n + 2)) * gq.nabla_normH2
            out.append(InequalityCheck("4.21", lhs, gq.ring_proj2))
        elif lemma_id == "4.22":
            lhs = 2.0 * (n - 1) / (n * (n + 2)) * H.norm2 * nu12
            out.append(InequalityCheck("4.22", lhs, gq.hat_plus_hring2))
        elif lemma_id == "L4.6":
            a, b = l46
            lhs = a * hr2 * nu12 + b * (am2 + f + d) * nu12
            out.append(InequalityCheck("L4.6", lhs, 2 * gq.hat_am2))
        elif lemma_id == "L4.7":
            a, b = l47
            lhs = a * am2 / f * gq.ring_proj2 + b * am2 * nu12
            out.append(InequalityCheck("L4.7", lhs, 2 * am2 / f * (gq.nablaA2 - c * gq.nablaH2)))
        elif lemma_id == "L4.8":
            a, b, e = l48
            if a is None:
                raise InvalidConstants("case-2 gradient lemma needs eps0 > 0")
            rhs = (2 * gq.proj_am2 + a * am2 / f * gq.ring_proj2 + 2 * am2 * nu12
                   + b * f * nu12 + e * hr2 * nu12)
            out.append(InequalityCheck("L4.8", gq.q_pairing, rhs))
        elif lemma_id == "L4.9":
            if not (0 < delta <= delta_cap * (1 + 1e-12)):
                raise InvalidConstants(f"{delta_rule}, got {delta}")
            rhs = 2 * gq.nabla_am2 + 2 * (1 - delta) * am2 / f * (gq.nablaA2 - c * gq.nablaH2)
            out.append(InequalityCheck("L4.9", gq.q_pairing, rhs))
        else:
            raise ValueError(f"unknown gradient lemma {lemma_id!r}")
    return out


# ----------------------------------------------------------------------
# the lemma table
# ----------------------------------------------------------------------
# A group's evaluator takes the group's requested ids, the campaign's
# ``TrialInputs`` of one evaluation unit (the ``dims``, ``matrices`` and
# ``w`` of its trials, the splits ``decomp`` and ``boundary_decomp`` of its
# forms and its derivative sample ``grad``, split only when the unit holds
# forms) and the campaign's spec, which holds every constant it reads.  It
# calls the checks by module attribute, so a rebound attribute is what runs.

def boundary_offset(d: float) -> float:
    """The d of the boundary |A|^2 = c|H|^2 - d the boundary estimate is taken
    on: d, or 1 when d <= 0, where it is a cone and the d terms vanish."""
    return d if d > 0 else 1.0


def _li_group(ids: Sequence[str], inputs, spec) -> list[InequalityCheck]:
    return [check_li(inputs.matrices) for _ in ids]


def _kato_group(ids: Sequence[str], inputs, spec) -> list[InequalityCheck]:
    eta = spec.eta if spec.eta is not None else default_kato_eta(inputs.dims.n)
    return [
        check_kato(inputs.grad, inputs.w, eta) if lemma_id == "kato.3.1"
        else check_kato_trace(inputs.grad, inputs.w)
        for lemma_id in ids
    ]


def _gradient_group(ids: Sequence[str], inputs, spec) -> list[InequalityCheck]:
    return gradient_checks(ids, inputs.grad, spec.c, spec.d, spec.delta, spec.eps0)


def _reaction_group(ids: Sequence[str], inputs, spec) -> list[InequalityCheck]:
    return reaction_checks(ids, inputs.decomp, spec.c, spec.d, spec.delta)


def _boundary_group(ids: Sequence[str], inputs, spec) -> list[InequalityCheck]:
    sides = boundary_reaction_bound(inputs.boundary_decomp, spec.c, boundary_offset(spec.d))
    return [InequalityCheck("boundary", *sides) for _ in ids]


# the order in which a unit runs its groups, which fixes the first error raised
GROUPS = (_li_group, _kato_group, _gradient_group, _reaction_group, _boundary_group)


@dataclass(frozen=True)
class Lemma:
    suite: str             # the ``verify --suite`` that reports it
    kinds: frozenset[str]  # the sampled input kinds a trial of it draws and reads
    degree: int            # the homogeneity degree of its slack
    evaluate: Callable[..., list[InequalityCheck]]  # its group's evaluator


def _entries(suite: str, ids: Sequence[str], kinds: set[str], degree: int, evaluate):
    return {lemma_id: Lemma(suite, frozenset(kinds), degree, evaluate) for lemma_id in ids}


# every inequality id, in report order
LEMMAS: dict[str, Lemma] = {
    # trace squares plus commutators of symmetric matrices against 3/2 the
    # total norm squared
    **_entries("li", ["li"], {"matrices"}, 4, _li_group),
    # sharpened Kato inequalities for the derivative of A against that of H,
    # which hold for any Codazzi tensor: no form, so no pinching
    **_entries("kato", ["kato.3.1", "kato.3.2"], {"grad", "w"}, 2, _kato_group),
    # reaction estimates, flat specialization
    **_entries("reaction", ["4.5", "4.6", "4.10", "4.12", "4.14"], {"form"}, 4, _reaction_group),
    # the reaction estimate on the pinching boundary
    **_entries("reaction", ["boundary"], {"form", "boundary"}, 4, _boundary_group),
    # trace inequalities for the split derivative (4.20-4.22) and Bochner /
    # gradient-term estimates (L4.6-L4.9)
    **_entries("gradient", ["4.20", "4.21", "4.22", "L4.6", "L4.7", "L4.8", "L4.9"],
               {"form", "grad"}, 2, _gradient_group),
}


def default_constants(lemma_ids: Sequence[str], n: int, c: float | None = None,
                      delta: float | None = None, eps0: float | None = None
                      ) -> tuple[float, float, float | None]:
    """The c, delta and eps0 of a campaign of ``lemma_ids`` at tangent
    dimension n, each one not given (None) filled in.

    c is min(4/(3n), 1/(n-2)) when an id reads a form, else 0, and delta is
    the case-1 bound 1/(5n-8) when a gradient estimate is requested, else
    1/2.  A gradient estimate at 5 <= n < 8 takes the case-2 constants:
    eps0 = 0.005, c = 3(n+1)/(2n(n+2)) - eps0 and
    delta = min(1/2, 2n(n+2) eps0/(3(n-1))), with the eps0 given if any.
    """
    gradient = any(LEMMAS[lemma_id].suite == "gradient" for lemma_id in lemma_ids)
    if gradient and 5 <= n < 8:
        eps0 = 0.005 if eps0 is None else eps0
        limit = float(c_n(n, "codim_estimate"))
        if (c is None or delta is None) and not 0 < eps0 < limit - 1.0 / n:
            raise InvalidConstants(
                f"eps0 must be in (0, {limit - 1.0 / n:.6g}) at n={n}, got {eps0}")
        c = limit - eps0 if c is None else c
        delta = min(0.5, 2.0 * n * (n + 2) * eps0 / (3 * (n - 1))) if delta is None else delta
    if c is None:
        reads_form = any("form" in LEMMAS[lemma_id].kinds for lemma_id in lemma_ids)
        c = float(c_n(n, "general")) if reads_form else 0.0
    if delta is None:
        delta = 1.0 / (5 * n - 8) if gradient else 0.5
    return c, delta, eps0
