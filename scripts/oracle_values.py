#!/usr/bin/env python3
"""Standalone oracle computations for the frozen expected values in tests/.

Everything here is computed from first principles (explicit index loops,
closed-form geometry, mpmath root finding) with no import of the package
under test.  Run it to regenerate the numbers pinned in the test suite:

    python scripts/oracle_values.py
"""

import numpy as np
from mpmath import mp, mpf, cosh, coth, findroot

mp.dps = 30


# ----------------------------------------------------------------------
# Product of spheres S^7(1) x S^1(4) in R^10, codimension 2.
# Factor k of radius r contributes an umbilic block (1/r) I_k in its own
# normal slot; everything computed by raw loops below.
# ----------------------------------------------------------------------

def product_form(p, q, a, b):
    n = p + q
    A = np.zeros((2, n, n))
    for i in range(p):
        A[0, i, i] = 1.0 / a
    for i in range(p, n):
        A[1, i, i] = 1.0 / b
    return A


def loop_norms(A):
    """Brute-force |A|^2, H, |H|^2, |h|^2, |A^-|^2 by explicit index loops."""
    m, n, _ = A.shape
    H = np.array([sum(A[al, i, i] for i in range(n)) for al in range(m)])
    H2 = sum(H[al] ** 2 for al in range(m))
    A2 = sum(A[al, i, j] ** 2 for al in range(m) for i in range(n) for j in range(n))
    # |h|^2 = sum_ij <A_ij, H>^2 / |H|^2
    h2 = sum(sum(A[al, i, j] * H[al] for al in range(m)) ** 2
             for i in range(n) for j in range(n)) / H2
    return A2, H, H2, h2, A2 - h2


def section_product_initial():
    A = product_form(7, 1, 1.0, 4.0)
    A2, H, H2, h2, Am2 = loop_norms(A)
    n = 8
    c = 1.0 / 6.0
    f = c * H2 - A2
    print("== product S^7(1) x S^1(4), t = 0 ==")
    print(f"H            = {H}")
    print(f"|A|^2        = {A2!r}")
    print(f"|H|^2        = {H2!r}")
    print(f"|h|^2        = {h2!r}")
    print(f"|A^-|^2      = {Am2!r}")
    print(f"f (c=1/6,d=0)= {f!r}")
    print(f"ratio_pinch  = {A2 / H2!r}")
    print(f"ratio_codim  = {Am2 / f!r}")
    print(f"ratio_cyl    = {A2 - H2 / (n - 1)!r}")


# ----------------------------------------------------------------------
# Product family along the flow: a(t) = sqrt(1 - 14t), b(t) = sqrt(16 - 2t).
# Crossing times for f = 100 f(0), f = 100 (absolute) and a = 0.05 solved
# with mpmath on the closed forms; diagnostics re-evaluated by the loops.
# ----------------------------------------------------------------------

def product_diag(t):
    a = float(mp.sqrt(1 - 14 * mpf(t)))
    b = float(mp.sqrt(16 - 2 * mpf(t)))
    A = product_form(7, 1, a, b)
    A2, H, H2, h2, Am2 = loop_norms(A)
    f = H2 / 6.0 - A2
    return a, b, A2, H2, Am2, f


def section_product_decay():
    f0 = product_diag(0.0)[5]
    rc0 = product_diag(0.0)[4] / f0

    def f_of_t(t):
        # closed form: f = (7/6)/a^2 - (5/6)/b^2
        return mpf(7) / 6 / (1 - 14 * t) - mpf(5) / 6 / (16 - 2 * t)

    bracket = (mpf("0.06"), mpf("0.0714"))
    t_cross = findroot(lambda t: f_of_t(t) - 100 * mpf(f0), bracket,
                       solver="anderson")
    t_abs = findroot(lambda t: f_of_t(t) - 100, bracket, solver="anderson")
    a, b, A2, H2, Am2, f = product_diag(float(t_cross))
    rc = Am2 / f
    print("== product family decay of |A^-|^2 / f ==")
    print(f"f(0)                      = {f0!r}")
    print(f"ratio_codim(0)            = {rc0!r}")
    print(f"t* (f = 100 f(0))         = {float(t_cross)!r}")
    print(f"ratio_codim(t*)           = {rc!r}")
    print(f"decrease factor           = {rc0 / rc!r}")
    t2 = float(t_abs)
    rc2 = product_diag(t2)[4] / product_diag(t2)[5]
    print(f"t  (f = 100 absolute)     = {t2!r},  ratio_codim = {rc2!r}")
    # ratio_pinch once a <= 0.05
    t_a = float((1 - mpf("0.05") ** 2) / 14)
    a, b, A2, H2, Am2, f = product_diag(t_a)
    print(f"t  (a = 0.05)             = {t_a!r}")
    print(f"ratio_pinch(a=0.05)       = {A2 / H2!r}   (1/7 = {1/7!r})")
    print(f"|ratio_pinch - 1/7|       = {abs(A2 / H2 - 1/7)!r}")


# ----------------------------------------------------------------------
# Hyperbolic geodesic sphere, n = 8, r0 = 0.5, Kbar = -1, c = 1/6, d = 4.
# ----------------------------------------------------------------------

def section_hyperbolic():
    n, c, d = 8, mpf(1) / 6, mpf(4)
    lam = coth(mpf("0.5"))
    H2 = n * n * lam * lam
    Q = -(c - mpf(1) / n) * H2 + d  # |Aring|^2 = 0, -d*Kbar = +d
    print("== hyperbolic geodesic sphere n=8, r0=0.5, Kbar=-1, c=1/6, d=4 ==")
    print(f"coth(0.5)    = {mp.nstr(lam, 20)}")
    print(f"|H|^2        = {mp.nstr(H2, 20)}")
    print(f"Q(0)         = {mp.nstr(Q, 20)}")
    print(f"f(0) = -Q    = {mp.nstr(-Q, 20)}")
    # blow-up time of cosh r = cosh(r0) e^{-nt}
    print(f"t(r -> 0)    = {mp.nstr(mp.log(cosh(mpf('0.5'))) / n, 20)}")


# ----------------------------------------------------------------------
# d lower bound, n=8, m=2, c=1/6, K1=K2=1, L=0, rho=theta=vartheta=1
# (independent transcription of the three-branch maximum).
# ----------------------------------------------------------------------

def section_d_lower():
    n, m = 8, 2
    c = mpf(1) / 6
    K1 = K2 = mpf(1)
    L = mpf(0)
    rho = theta = vartheta = mpf(1)
    g = c - mpf(1) / n
    base = 4 * n * K1 + 2 * n * K2 + 2 * (n * c * K1 + K2) / g
    C1 = base + (rho * n * (m - 1) + n * (m - 2)
                 + mpf(16) / 3 * rho * (n - 1) * (m - 1)) * (K1 + K2) + theta
    C2 = base + (n / rho + mpf(16) / (3 * rho) * (n - 1)
                 + mpf(8) / 3 * mp.sqrt(n - 1) * (m - 2)) * (K1 + K2) + n * vartheta
    C3 = 2 * (n * c * K1 + K2) / g
    C4 = L ** 2 / theta + 4 * L ** 2 / vartheta
    b1 = C1 * g / (2 * c)
    b2 = C2 * n * g / 4
    b3 = n * g / 4 * (C3 + mp.sqrt(C3 ** 2 + 8 * C4 / (n * g)))
    print("== d lower bound, n=8 m=2 c=1/6 K1=K2=1 L=0 ==")
    print(f"C1 = {mp.nstr(C1, 20)}, C2 = {mp.nstr(C2, 20)}, C3 = {mp.nstr(C3, 20)}, C4 = {mp.nstr(C4, 20)}")
    print(f"branches = {mp.nstr(b1, 20)}, {mp.nstr(b2, 20)}, {mp.nstr(b3, 20)}")
    print(f"d_lower  = {mp.nstr(max(b1, b2, b3), 20)}")


# ----------------------------------------------------------------------
# Sphere S^8(2): reaction values by loops.
# ----------------------------------------------------------------------

def section_sphere():
    n, m, r = 8, 2, 2.0
    A = np.zeros((m, n, n))
    for i in range(n):
        A[0, i, i] = 1.0 / r
    A2, H, H2, h2, Am2 = loop_norms(A)
    # R1 and R2 by raw loops
    R1 = sum(sum(A[al, i, j] * A[be, i, j] for i in range(n) for j in range(n)) ** 2
             for al in range(m) for be in range(m))
    R1 += sum(sum(A[al, i, p] * A[be, j, p] - A[al, j, p] * A[be, i, p]
                  for p in range(n)) ** 2
              for al in range(m) for be in range(m) for i in range(n) for j in range(n))
    R2 = sum(sum(H[al] * A[al, i, j] for al in range(m)) ** 2
             for i in range(n) for j in range(n))
    print("== sphere S^8(2) ==")
    print(f"|A|^2 = {A2!r}, |H|^2 = {H2!r}, |h|^2 = {h2!r}")
    print(f"R1 = {R1!r}, R2 = {R2!r}")
    print(f"f(c=1/6,d=0) = {H2/6 - A2!r}")
    print(f"gap(c=1/6)   = {R2/6 - R1!r}   (flat: |Rperp|^2 = commutator part of R1)")
    print(f"d|H|^2/dt at r=2 (2|h|^2|H|^2) = {2*h2*H2!r}")


if __name__ == "__main__":
    section_product_initial()
    print()
    section_product_decay()
    print()
    section_hyperbolic()
    print()
    section_d_lower()
    print()
    section_sphere()
