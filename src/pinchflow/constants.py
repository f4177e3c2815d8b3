"""Pinching constants and pinching quantities.

The quadratic pinching condition reads |A|^2 <= c |H|^2 - d with a
dimension-dependent coefficient c and an offset d that absorbs background
curvature.  This module computes the admissible c for each estimate regime
(exact rationals, so regime-boundary comparisons are not at the mercy of
rounding), the lower bound for d from the sectional-curvature and
derivative-of-curvature bounds, the gradient-estimate constant
kappa = 3/(n+2) - c, and evaluates the scalar pinching quantities

    f = c |H|^2 - |A|^2 - d          (flat / bounded background)
    Q = |Aring|^2 - (c - 1/n) |H|^2 - d Kbar   (space form)

on a form's principal split, ``principal_decompose(A)``, which carries
|A|^2 and H.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidConstants, NonpositiveKappa, UnsupportedDimension
from .forms import Dims, PrincipalDecomposition

RHO = THETA = VARTHETA = 1.0  # the Young parameters of d_lower_bound


def c_n(n: int, regime: str = "general") -> Fraction:
    """Admissible pinching coefficient, as an exact fraction.

    ``general`` is min{4/(3n), 1/(n-2)}; ``codim_estimate`` is the slightly
    different constant the codimension estimate needs for n in {5, 6, 7}.
    Only stated for n >= 5.
    """
    if n < 5:
        raise UnsupportedDimension(f"pinching coefficient undefined for n={n} < 5")
    if regime == "general":
        return min(Fraction(4, 3 * n), Fraction(1, n - 2))
    if regime == "codim_estimate":
        if n >= 8:
            return Fraction(4, 3 * n)
        return Fraction(3 * (n + 1), 2 * n * (n + 2))
    raise ValueError(f"unknown regime {regime!r}")


def pinching_gap(n: int, c: float | Fraction) -> float:
    """g = c - 1/n, which every pinched estimate needs positive."""
    g = c - 1.0 / n
    if g <= 0:
        raise InvalidConstants(f"need c > 1/n, got c={c} for n={n}")
    return g


def d_lower_bound(n: int, m: int, c: float | Fraction, K1: float, K2: float, L: float) -> float:
    """Lower bound for the pinching offset d under the background bounds.

    Assembles the four constants C1..C4 from (n, m, c, K1, K2, L) and the
    free Young parameters rho, theta, vartheta (the constants ``RHO``,
    ``THETA`` and ``VARTHETA``, all 1) and returns

        max{ C1 (c - 1/n) / (2c),
             C2 n (c - 1/n) / 4,
             (n (c - 1/n) / 4) (C3 + sqrt(C3^2 + 8 C4 / (n (c - 1/n)))) }.

    Returns 0 when K1 + K2 = 0 and L = 0 (flat regime needs no offset).
    """
    c = float(c)
    if not all(map(math.isfinite, (c, K1, K2, L))):
        raise InvalidConstants(f"need finite c, K1, K2, L, got c={c}, K1={K1}, K2={K2}, L={L}")
    g = pinching_gap(n, c)
    if min(K1, K2, L) < 0:
        raise InvalidConstants("curvature bounds K1, K2, L must be nonnegative")
    if K1 + K2 == 0 and L == 0:
        return 0.0
    base = 4 * n * K1 + 2 * n * K2 + 2 * (n * c * K1 + K2) / g
    C1 = base + (RHO * n * (m - 1) + n * (m - 2)
                 + 16.0 / 3.0 * RHO * (n - 1) * (m - 1)) * (K1 + K2) + THETA
    C2 = base + (n / RHO + 16.0 / (3.0 * RHO) * (n - 1)
                 + 8.0 / 3.0 * math.sqrt(n - 1) * (m - 2)) * (K1 + K2) + n * VARTHETA
    C3 = 2 * (n * c * K1 + K2) / g
    C4 = L * L / THETA + 4 * L * L / VARTHETA if K1 + K2 != 0 else 0.0
    return max(
        C1 * g / (2 * c),
        C2 * n * g / 4,
        n * g / 4 * (C3 + math.sqrt(C3 * C3 + 8 * C4 / (n * g))),
    )


def kappa_n(n: int, c: float | Fraction) -> float:
    """Gradient-estimate constant 3/(n+2) - c; must be positive."""
    kappa = 3.0 / (n + 2) - float(c)
    if kappa <= 0:
        raise NonpositiveKappa(f"3/(n+2) - c = {kappa} <= 0 for n={n}, c={float(c)}")
    return kappa


def space_form_d_lower(n: int, c: float | Fraction) -> float:
    """Minimal offset 2n - 2/c preserving Q <= 0 in a negative space form."""
    c = float(c)
    pinching_gap(n, c)
    return 2.0 * n - 2.0 / c


@dataclass(frozen=True)
class PinchingConstants:
    """Pinching constants (c, d) in flat space (``Kbar`` None, d >= 0) or in
    a space form of constant curvature ``Kbar``, which for Kbar < 0 requires
    d >= 2n - 2/c.  Equality with that bound is accepted but flagged with a
    warning, since the strictness needed by the maximum principle is
    analytic rather than numeric.  A background of bounded geometry enters
    only through the lower bound :func:`d_lower_bound` of its d.
    """

    dims: Dims
    c: float
    d: float = 0.0
    Kbar: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", float(self.c))
        for name in ("c", "d", "Kbar"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidConstants(f"{name} must be a finite number, got {value}")
        pinching_gap(self.dims.n, self.c)
        if self.Kbar is None and self.d < 0:
            raise InvalidConstants("flat space needs d >= 0")
        if self.Kbar is not None and self.Kbar < 0:
            lower = space_form_d_lower(self.dims.n, self.c)
            if self.d < lower:
                raise InvalidConstants(f"space form with Kbar<0 needs d >= 2n - 2/c = {lower}")
            if self.d == lower:
                warnings.warn("d equals 2n - 2/c; preservation needs strict inequality",
                              stacklevel=3)


def pinching_f(decomp: PrincipalDecomposition, k: PinchingConstants) -> float:
    """f = c |H|^2 - |A|^2 - d; positive exactly on pinched data."""
    return k.c * decomp.H.norm2 - decomp.a2 - k.d


def pinching_Q(decomp: PrincipalDecomposition, k: PinchingConstants) -> float:
    """Q = |Aring|^2 - (c - 1/n) |H|^2 - d Kbar (space form only)."""
    if k.Kbar is None:
        raise InvalidConstants("Q is defined in a space form only")
    return decomp.a_ring2 - (k.c - 1.0 / k.dims.n) * decomp.H.norm2 - k.d * k.Kbar
