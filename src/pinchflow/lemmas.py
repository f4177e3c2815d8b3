"""Two-sided evaluators for every standalone algebraic inequality.

Each evaluator computes both sides of one inequality exactly from the
sampled data and reports them normalized as ``lhs <= rhs`` with
``slack = rhs - lhs``.  Identifiers:

* ``li``                     symmetric-matrix inequality (trace squares plus
                             commutators against 3/2 the total norm squared)
* ``kato.3.1``, ``kato.3.2`` sharpened Kato inequalities for the derivative
                             of A against the derivative of H
* ``4.5``, ``4.6``, ``4.10``, ``4.12``, ``4.14``
                             reaction estimates, flat specialization
* ``boundary``               boundary reaction estimate (data on the pinching
                             boundary)
* ``4.20``, ``4.21``, ``4.22``
                             trace inequalities for the split derivative
* ``L4.6`` .. ``L4.9``       Bochner / gradient-term estimates

``DEGREES`` records the homogeneity degree of each slack under the
documented scaling (forms scale linearly for the quartic reaction bounds,
derivative samples scale linearly for the quadratic gradient bounds).

Every evaluator also takes a batch of points (and of derivative samples)
stacked along leading axes; its checks then hold one lhs and rhs per point,
and a precondition such as f > 0 must hold at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConstants, NotPinched
from .forms import GradientSample, commutator_norm2, normal_curvature, require_codazzi, sum_sq
from .reaction import boundary_reaction_bound, gram_norm2, reaction_gap
from .samplers import PointSample

LI_IDS = ("li",)
KATO_IDS = ("kato.3.1", "kato.3.2")
REACTION_IDS = ("4.5", "4.6", "4.10", "4.12", "4.14")
BOUNDARY_IDS = ("boundary",)
GRADIENT_IDS = ("4.20", "4.21", "4.22", "L4.6", "L4.7", "L4.8", "L4.9")
ALL_IDS = LI_IDS + KATO_IDS + REACTION_IDS + BOUNDARY_IDS + GRADIENT_IDS

DEGREES = {
    "li": 4, "kato.3.1": 2, "kato.3.2": 2,
    "4.5": 4, "4.6": 4, "4.10": 4, "4.12": 4, "4.14": 4, "boundary": 4,
    "4.20": 2, "4.21": 2, "4.22": 2,
    "L4.6": 2, "L4.7": 2, "L4.8": 2, "L4.9": 2,
}


@dataclass(frozen=True)
class InequalityCheck:
    lemma_id: str
    lhs: float | np.ndarray
    rhs: float | np.ndarray

    @property
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
    n = grad.dims.n
    w2 = sum_sq(np.asarray(w, dtype=np.float64), 2)
    lhs = (3.0 / (n + 2) - eta) * grad.nabla_H_norm2 - (
        2.0 / (n + 2) * (2.0 / ((n + 2) * eta) - n / (n - 1.0))
    ) * w2
    return InequalityCheck("kato.3.1", lhs, grad.norm2)


def check_kato_trace(grad: GradientSample, w: np.ndarray) -> InequalityCheck:
    """|dA|^2 - |dH|^2/n >= (n-1)/(2n+1) |dA|^2 - 2n/((n-1)(2n+1)) |w|^2."""
    require_codazzi(grad)
    n = grad.dims.n
    w2 = sum_sq(np.asarray(w, dtype=np.float64), 2)
    lhs = (n - 1.0) / (2 * n + 1) * grad.norm2 - 2.0 * n / ((n - 1.0) * (2 * n + 1)) * w2
    rhs = grad.norm2 - grad.nabla_H_norm2 / n
    return InequalityCheck("kato.3.2", lhs, rhs)


# ----------------------------------------------------------------------
# reaction estimates (flat specialization)
# ----------------------------------------------------------------------

def _c_in_range(c: float, limit: float) -> bool:
    return c <= limit * (1 + 1e-12)


def reaction_checks(
    ids: Sequence[str],
    point: PointSample,
    c: float,
    d: float,
    delta: float = 0.5,
) -> list[InequalityCheck]:
    """Evaluate the requested flat reaction estimates on one pinched point,
    or on a batch of them (every point must be pinched)."""
    dec, H = point.decomp, point.H
    n = dec.dims.n
    rperp = normal_curvature(point.form, dec)
    hat2 = rperp.hat_part_norm2
    princ2 = rperp.principal_norm2
    am = dec.a_minus.components
    hra2 = gram_norm2(dec.h_ring[..., None, :, :], am)  # sum_b (<h_ring, A^b>)^2
    gram_am2 = gram_norm2(am, am)
    am2, hr2 = dec.a_minus2, dec.h_ring2
    out: list[InequalityCheck] = []
    f = None
    gap = None

    def need_f() -> tuple[float | np.ndarray, float | np.ndarray]:
        nonlocal f, gap
        if f is None:
            f = c * H.norm2 - dec.a2 - d
            if np.any(f <= 0):
                raise NotPinched(f"reaction lemma needs f > 0, got {np.min(f)}")
            if not (1.0 / n < c and _c_in_range(c, 4.0 / (3 * n))):
                raise InvalidConstants(f"need 1/n < c <= 4/(3n), got c={c} for n={n}")
            gap = reaction_gap(point.form, H, rperp, c)
        return f, gap

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
            fv, gv = need_f()
            ncm1 = n * c - 1.0
            lhs = (2.0 / ncm1) * am2 * am2 + (n * c / ncm1) * hr2 * am2
            out.append(InequalityCheck("4.12", lhs, am2 / fv * gv))
        elif lemma_id == "4.14":
            if not (0 < delta <= 0.5):
                raise InvalidConstants(f"the reaction estimate needs 0 < delta <= 1/2, got {delta}")
            fv, gv = need_f()
            lhs = gram_am2 + hat2 + princ2
            out.append(InequalityCheck("4.14", lhs, (1 - delta) * am2 / fv * gv))
        else:
            raise ValueError(f"unknown reaction lemma {lemma_id!r}")
    return out


def boundary_check(point: PointSample, c: float, d: float) -> InequalityCheck:
    report = boundary_reaction_bound(point.decomp, point.H, c, d)
    return InequalityCheck("boundary", report.lhs_bound, report.rhs_bound)


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


def gradient_quantities(point: PointSample, grad: GradientSample) -> GradientQuantities:
    dec = point.decomp
    n = dec.dims.n
    h_norm = np.asarray(grad.h_norm)[..., None, None, None]
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


def _gradient_case(n: int, c: float, eps0: float | None) -> int:
    """1 when the 4/(3n) regime applies (n >= 8), else 2; raise otherwise."""
    if n >= 8 and _c_in_range(c, 4.0 / (3 * n)):
        return 1
    limit = 3.0 * (n + 1) / (2 * n * (n + 2)) - (eps0 or 0.0)
    if _c_in_range(c, limit):
        return 2
    raise InvalidConstants(
        f"c={c} outside both gradient-lemma regimes for n={n} (eps0={eps0})"
    )


def gradient_checks(
    ids: Sequence[str],
    point: PointSample,
    grad: GradientSample,
    c: float,
    d: float,
    delta: float,
    eps0: float | None = None,
) -> list[InequalityCheck]:
    """Evaluate the requested gradient estimates on one constrained sample,
    or on a batch of them."""
    require_codazzi(grad)
    dec, H = point.decomp, point.H
    n = dec.dims.n
    if c <= 1.0 / n:
        raise InvalidConstants(f"need c > 1/n, got c={c}")
    gq = gradient_quantities(point, grad)
    f = c * H.norm2 - dec.a2 - d
    am2, hr2 = dec.a_minus2, dec.h_ring2
    out: list[InequalityCheck] = []

    def need_pinched() -> float | np.ndarray:
        if np.any(f <= 0):
            raise NotPinched(f"gradient lemma needs f > 0, got {np.min(f)}")
        return f

    for lemma_id in ids:
        if lemma_id == "4.20":
            lhs = 3.0 / (n + 2) * H.norm2 * gq.nabla_nu12
            out.append(InequalityCheck("4.20", lhs, gq.hat_plus_h2))
        elif lemma_id == "4.21":
            lhs = 2.0 * (n - 1) / (n * (n + 2)) * gq.nabla_normH2
            out.append(InequalityCheck("4.21", lhs, gq.ring_proj2))
        elif lemma_id == "4.22":
            lhs = 2.0 * (n - 1) / (n * (n + 2)) * H.norm2 * gq.nabla_nu12
            out.append(InequalityCheck("4.22", lhs, gq.hat_plus_hring2))
        elif lemma_id == "L4.6":
            fv = need_pinched()
            case = _gradient_case(n, c, eps0)
            if case == 1:
                lhs = (
                    (4.0 * n - 10) / (n + 2) * hr2 * gq.nabla_nu12
                    + 6.0 * (n - 1) / (n + 2) * (am2 + fv + d) * gq.nabla_nu12
                )
            else:
                lhs = 2 * hr2 * gq.nabla_nu12 + 4 * (am2 + fv + d) * gq.nabla_nu12
            out.append(InequalityCheck("L4.6", lhs, 2 * gq.hat_am2))
        elif lemma_id == "L4.7":
            fv = need_pinched()
            case = _gradient_case(n, c, eps0)
            rhs = 2 * am2 / fv * (gq.nablaA2 - c * gq.nablaH2)
            if case == 1:
                lhs = (
                    (5.0 * n - 8) / (3 * (n - 1)) * am2 / fv * gq.ring_proj2
                    + (10.0 * n - 16) / (n + 2) * am2 * gq.nabla_nu12
                )
            else:
                lhs = 1.5 * am2 / fv * gq.ring_proj2 + 6 * am2 * gq.nabla_nu12
            out.append(InequalityCheck("L4.7", lhs, rhs))
        elif lemma_id == "L4.8":
            fv = need_pinched()
            case = _gradient_case(n, c, eps0)
            if case == 1:
                rhs = (
                    2 * gq.proj_am2
                    + (5.0 * n - 9) / (3 * (n - 1)) * am2 / fv * gq.ring_proj2
                    + 2 * am2 * gq.nabla_nu12
                    + 3.0 * (n - 1) / (n - 3) * fv * gq.nabla_nu12
                    + 2.0 * (n + 2) / (n + 3) * hr2 * gq.nabla_nu12
                )
            else:
                if eps0 is None or eps0 <= 0:
                    raise InvalidConstants("case-2 gradient lemma needs eps0 > 0")
                eps = 2.0 * n * (n + 2) / (3 * (n - 1)) * eps0
                rhs = (
                    2 * gq.proj_am2
                    + (1 - eps) * 1.5 * am2 / fv * gq.ring_proj2
                    + 2 * am2 * gq.nabla_nu12
                    + 4 * fv * gq.nabla_nu12
                    + 2 * hr2 * gq.nabla_nu12
                )
            out.append(InequalityCheck("L4.8", gq.q_pairing, rhs))
        elif lemma_id == "L4.9":
            fv = need_pinched()
            case = _gradient_case(n, c, eps0)
            if case == 1:
                if not (0 < delta <= 1.0 / (5 * n - 8) * (1 + 1e-12)):
                    raise InvalidConstants(
                        f"case-1 gradient estimate needs 0 < delta <= 1/(5n-8), got {delta}"
                    )
            else:
                cap = min(0.5, 2.0 * n * (n + 2) / (3 * (n - 1)) * (eps0 or 0.0))
                if not (0 < delta <= cap * (1 + 1e-12)):
                    raise InvalidConstants(
                        f"case-2 gradient estimate needs 0 < delta <= {cap}, got {delta}"
                    )
            rhs = 2 * gq.nabla_am2 + 2 * (1 - delta) * am2 / fv * (
                gq.nablaA2 - c * gq.nablaH2
            )
            out.append(InequalityCheck("L4.9", gq.q_pairing, rhs))
        else:
            raise ValueError(f"unknown gradient lemma {lemma_id!r}")
    return out
