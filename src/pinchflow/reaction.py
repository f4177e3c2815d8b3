"""Zeroth-order (reaction) quantities of the evolution equations and their bounds.

R1 and R2 are the two quartic contractions driving d|A|^2/dt and d|H|^2/dt;
``reaction_gap`` is the combination whose nonnegativity on pinched data makes
the pinching function f a supersolution.  The remaining functions evaluate
both sides of the closed-form reaction estimates (the boundary estimate and
the constant-curvature estimate for Q; the flat ones are in ``lemmas``) and
return the two sides of ``lhs <= rhs``; the lemma table wraps them as checks.
The bounds take a point as its principal split, which carries the form and its
mean curvature.  The contractions and the boundary estimate also take a batch
of points along leading axes, as the forms module does.
"""

from __future__ import annotations

import numpy as np

from .constants import pinching_gap
from .errors import NotPinched
from .forms import (
    MeanCurvature,
    NormalCurvature,
    PrincipalDecomposition,
    SecondFundamentalForm,
    commutator_norm2,
    sum_sq,
)


def r1(A: SecondFundamentalForm) -> float | np.ndarray:
    """sum_{ab} (tr A^a A^b)^2 + sum_{ab} |[A^a, A^b]|^2."""
    comps = A.components
    return gram_norm2(comps, comps) + commutator_norm2(comps, comps)


def r2(A: SecondFundamentalForm, H: MeanCurvature) -> float | np.ndarray:
    """sum_ij (sum_a H^a A^a_ij)^2."""
    ha = np.einsum("...a,...aij->...ij", H.vector, A.components)
    return sum_sq(ha, 2)


def gram_norm2(left: np.ndarray, right: np.ndarray) -> float | np.ndarray:
    """sum_{ab} <L_a, R_b>^2 (entrywise inner product) over two stacks
    (..., k, n, n) of matrices; for A against itself, sum_{ijpq} <A_ij, A_pq>^2."""
    gram = np.einsum("...aij,...bij->...ab", left, right)
    return sum_sq(gram, 2)


def reaction_gap(
    A: SecondFundamentalForm,
    H: MeanCurvature,
    rperp: NormalCurvature,
    c: float,
) -> float:
    """c sum|<A,H>|^2 - sum|<A,A>|^2 - sum|R^perp|^2.

    This is (half) the reaction part of the evolution of f; the pinching
    condition makes it nonnegative.
    """
    return c * r2(A, H) - gram_norm2(A.components, A.components) - rperp.norm2


def boundary_reaction_bound(
    decomp: PrincipalDecomposition,
    c: float,
    d: float,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Upper bound for 2 R1 - 2 c R2 on the pinching boundary |A|^2 = c|H|^2 - d.

    The substitution |H|^2 = (|Aring|^2 + d) / (c - 1/n) only holds on the
    boundary, so the data is checked to sit there first (every point of a
    batch).
    """
    n = decomp.dims.n
    g = pinching_gap(n, c)
    H = decomp.H
    scale = np.maximum(np.maximum(1.0, decomp.a2), c * H.norm2)
    if np.any(abs(decomp.a2 - (c * H.norm2 - d)) > 1e-9 * scale):
        raise NotPinched(
            "data is not on the pinching boundary |A|^2 = c|H|^2 - d"
        )
    A = decomp.form
    lhs = 2 * r1(A) - 2 * c * r2(A, H)
    am2, hr2 = decomp.a_minus2, decomp.h_ring2
    rhs = (
        (6 - 2 / (n * g)) * hr2 * am2
        + (3 - 2 / (n * g)) * am2**2
        - 2 * c * d / g * hr2
        - 4 * d / (n * g) * am2
        - 2 * d * d / (n * g)
    )
    return lhs, rhs


def cc_reaction_upper_bound(
    decomp: PrincipalDecomposition,
    Q: float,
    c: float,
    d: float,
    kbar: float,
) -> tuple[float, float, float | None]:
    """Zeroth-order estimate (lhs, rhs, blowup_rhs) of dQ/dt in a space form.

    lhs = 2 R1 - 2 c R2 - 2 n Kbar |Aring|^2 - 2 n Kbar (c - 1/n) |H|^2 (the
    exact homogeneous dQ/dt), rhs the displayed multi-line bound in terms of
    |h_ring|^2, |A^-|^2, Kbar and Q.  When Q <= 0, Kbar < 0,
    c <= min{4/(3n), 3/(n+2)} and d >= 2n - 2/c, ``blowup_rhs`` is the rhs of
    the stronger bound lhs <= -(2/n)/(c - 1/n) Q^2 that forces Q to blow up in
    finite time; it is None otherwise.
    """
    n = decomp.dims.n
    g = pinching_gap(n, c)
    H = decomp.H
    R1, R2 = r1(decomp.form), r2(decomp.form, H)
    lhs = 2 * R1 - 2 * c * R2 - 2 * n * kbar * decomp.a_ring2 - 2 * n * kbar * g * H.norm2
    am2, hr2 = decomp.a_minus2, decomp.h_ring2
    dng = d / n / g
    rhs = (
        (6 - (2 / n) / g) * hr2 * am2
        + (3 - (2 / n) / g) * am2**2
        + 2 * (dng + d - 2 * n) * kbar * hr2
        + 4 * (dng - n) * kbar * am2
        + 2 * (n - dng) * d * kbar**2
        + 2 * (1 + (1 / n) / g) * hr2 * Q
        + (2 / n) / g * Q * (2 * am2 - Q)
        + 2 * (n - 2 * dng) * kbar * Q
    )
    eligible = (
        kbar < 0
        and Q <= 0
        and c <= min(4.0 / (3 * n), 3.0 / (n + 2)) * (1 + 1e-12)
        and d >= (2 * n - 2 / c) * (1 - 1e-12)
    )
    blowup_rhs = -(2.0 / n) / g * Q * Q if eligible else None
    return lhs, rhs, blowup_rhs
