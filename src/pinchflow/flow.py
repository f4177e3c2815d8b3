"""ODE-reduced mean-curvature-flow families and their diagnostics.

Every family here is homogeneous: the second fundamental form is constant in
space, so the flow collapses to an ODE on a few radii, Laplacian and
gradient terms vanish identically, and the evolution equations can be
cross-checked against exact solutions.  Supported families:

* :class:`SpheresFlow`, products of round spheres and flat directions in
  flat space, made by :func:`SphereFlow` (shrinking round sphere),
  :func:`CylinderFlow` (shrinking round cylinder S^{n-1} x R; also useful as
  a static diagnostic for the cylindrical ratio) and
  :func:`ProductSpheresFlow` (two round spheres, genuinely codimension two);
* :class:`HyperbolicSphereFlow`, the geodesic sphere in a negatively curved
  space form.

The sphere and cylinder are the classical model solutions; the product and
the hyperbolic geodesic sphere are artifact-chosen oracle families that let
the codimension and space-form diagnostics be exercised with closed forms.
A run's diagnostics form a :class:`TimeSeries`, one array per CSV column.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import chain
from typing import Callable, ClassVar, Iterator, NamedTuple, TextIO

import numpy as np

from .constants import PinchingConstants, pinching_Q, pinching_f
from .errors import InvalidConstants, NonpositiveZ, PastBlowup
from .forms import (CHUNK, STACK_BUDGET, Dims, SecondFundamentalForm, mean_curvature,
                    principal_decompose)
from .reaction import r1, r2

R_MIN = 1e-6
MAX_STEPS = 10**7  # fixed steps, ceil(min(t_end, blow-up time) / dt), that simulate accepts
_COLLAPSED = "radius collapsed inside an RK4 stage"
FD_STEP = 1e-5
WRITE_ROWS = 1024  # rows formatted by one % in write_rows
CSV_HEADER = "t,param1,param2,A2,H2,h2,Aminus2,f,Q,ratio_pinch,ratio_codim,ratio_cyl"


def _diag_form(dims: Dims, blocks: list[tuple[int, np.ndarray]]) -> SecondFundamentalForm:
    """Diagonal form from consecutive (size, value) blocks, block i in normal
    slot i; tangent directions after the last block are flat.  The values
    are arrays over the leading batch axes of the form (0-d for one point)."""
    comps = np.zeros((*np.shape(blocks[0][1]), dims.m, dims.n, dims.n))
    start = 0
    for slot, (size, value) in enumerate(blocks):
        diag = np.arange(start, start + size)
        comps[..., slot, diag, diag] = np.asarray(value)[..., None]
        start += size
    return SecondFundamentalForm(dims, comps)


@dataclass(frozen=True)
class SpheresFlow:
    """S^{k_1}(r_1) x ... x S^{k_j}(r_j) x R^flat in flat space.

    Sphere factor i has dimension k_i and radius r_i and sits in normal slot
    i; each radius obeys r_i' = -k_i / r_i, so r_i(t)^2 = r_i^2 - 2 k_i t and
    the family blows up at min r_i^2 / (2 k_i).  At most two factors, one
    per radius column of the CSV time series.
    """

    factors: tuple[tuple[int, float], ...]  # (k_i, initial r_i)
    flat: int
    m: int
    kind: str
    kbar = 0.0

    def __post_init__(self) -> None:
        if not 1 <= len(self.factors) <= 2:
            raise ValueError("need one or two sphere factors, one per CSV radius column")
        for i, (k, r) in enumerate(self.factors, 1):
            if k < 1:
                raise ValueError(f"sphere factor {i} needs dimension k_{i} >= 1, got {k}")
            _require_radius(f"r_{i}", r)
        if self.m < len(self.factors):
            raise ValueError("each sphere factor needs its own normal slot (m too small)")
        _require_blowup(self, ", ".join(f"r_{i}={r}" for i, (_, r) in enumerate(self.factors, 1)))

    @cached_property
    def n(self) -> int:
        return sum(k for k, _ in self.factors) + self.flat

    def blowup_time(self) -> float:
        return min(r**2 / (2.0 * k) for k, r in self.factors)

    def exact_params(self, t: float) -> tuple[float, ...]:
        squares = [r**2 - 2.0 * k * t for k, r in self.factors]
        if min(squares) <= 0:
            raise PastBlowup(f"t={t} at or past blow-up T={self.blowup_time()}")
        return tuple(math.sqrt(s) for s in squares)

    @cached_property
    def radius_rates(self) -> tuple[Callable[[float], float], ...]:
        """Each radius's rate as a function of that radius: r -> -k_i / r."""
        return tuple(partial(operator.truediv, -k) for k, _ in self.factors)

    def form(self, params: tuple[float, ...] | np.ndarray) -> SecondFundamentalForm:
        """The form at radii ``params``, shape (k,) or (..., k) for a batch."""
        radii = np.asarray(params, dtype=np.float64)
        blocks = [(k, 1.0 / radii[..., i]) for i, (k, _) in enumerate(self.factors)]
        return _diag_form(Dims(self.n, self.m), blocks)


def _require_radius(name: str, r: float) -> float:
    if not R_MIN < r < math.inf:
        raise ValueError(f"radius {name}={r} must satisfy r_min={R_MIN:g} < {name} < inf")
    return r


def _require_blowup(family: Family, named: str) -> None:
    """Refuse a family, naming its parameters, unless its blow-up time is a
    finite positive float."""
    try:
        t_max = family.blowup_time()
    except OverflowError:  # r**2 or cosh(kappa r0) past the largest float
        t_max = math.inf
    if not 0 < t_max < math.inf:
        hint = "; use the sphere family for so small a kbar" if t_max == 0 else ""
        raise ValueError(f"{family.kind} family at {named} has blow-up time {t_max} "
                         f"in floating point, not a finite positive time{hint}")


def SphereFlow(n: int, m: int, r0: float) -> SpheresFlow:
    """Round sphere S^n(r0) in flat space, n >= 2, any codimension."""
    return SpheresFlow(((n, _require_radius("r0", r0)),), 0, m, "sphere")


def CylinderFlow(n: int, m: int, r0: float) -> SpheresFlow:
    """S^{n-1}(r0) x R in flat space; the sphere factor shrinks."""
    return SpheresFlow(((n - 1, _require_radius("r0", r0)),), 1, m, "cylinder")


def ProductSpheresFlow(p: int, q: int, m: int, a0: float, b0: float) -> SpheresFlow:
    """S^p(a0) x S^q(b0), codimension-two normal structure (m >= 2)."""
    factors = ((p, _require_radius("a0", a0)), (q, _require_radius("b0", b0)))
    return SpheresFlow(factors, 0, m, "product")


@dataclass(frozen=True)
class HyperbolicSphereFlow:
    """Geodesic sphere of radius r0 in a space form of curvature kbar < 0."""

    n: int
    m: int
    r0: float
    kbar: float = -1.0
    kind = "hyperbolic"

    def __post_init__(self) -> None:
        _require_radius("r0", self.r0)
        if not -math.inf < self.kbar < 0:
            raise ValueError(f"hyperbolic family needs -inf < kbar < 0, got kbar={self.kbar}")
        _require_blowup(self, f"r0={self.r0}, kbar={self.kbar}")

    @cached_property
    def kappa(self) -> float:
        return math.sqrt(-self.kbar)

    @cached_property
    def _log_cosh0(self) -> float:
        # log1p(u0) with u0 = cosh(kappa r0) - 1 = 2 sinh^2(kappa r0 / 2), exact at small kappa r0
        return math.log1p(2.0 * math.sinh(0.5 * self.kappa * self.r0) ** 2)

    def blowup_time(self) -> float:
        # cosh(kappa r(t)) = cosh(kappa r0) exp(n kbar t) reaches 1
        return self._log_cosh0 / (self.n * -self.kbar)

    def exact_params(self, t: float) -> tuple[float, ...]:
        # u = cosh(kappa r) - 1 = 2 sinh^2(kappa r / 2)
        u = math.expm1(self._log_cosh0 + self.n * self.kbar * t)
        if u <= 0.0:
            raise PastBlowup(f"t={t} at or past blow-up T={self.blowup_time()}")
        return (2.0 * math.asinh(math.sqrt(0.5 * u)) / self.kappa,)

    @cached_property
    def radius_rates(self) -> tuple[Callable[[float], float]]:
        """The radius's rate as a function of it: r -> -n kappa / tanh(kappa r)."""
        scale, kappa, tanh = -self.n * self.kappa, self.kappa, math.tanh
        return (lambda r: scale / tanh(kappa * r),)

    def form(self, params: tuple[float, ...] | np.ndarray) -> SecondFundamentalForm:
        """The form at radius ``params``, shape (1,) or (..., 1) for a batch."""
        radius = np.asarray(params, dtype=np.float64)[..., 0]
        # math.tanh record by record: np.tanh can round the last bit otherwise
        lam = [self.kappa / math.tanh(self.kappa * r) for r in radius.flat]
        return _diag_form(Dims(self.n, self.m), [(self.n, np.reshape(lam, radius.shape))])


Family = SpheresFlow | HyperbolicSphereFlow


class FlowState(NamedTuple):
    """A family at time ``t`` with radii ``params``, the full state."""

    family: Family
    t: float
    params: tuple[float, ...]


def exact_state(family: Family, t: float) -> FlowState:
    return FlowState(family, t, family.exact_params(t))


def _rk4_radii(state: list[tuple[Callable[[float], float], float, float]],
               dt: float) -> list[tuple[Callable[[float], float], float, float]]:
    """One classical fourth-order step of the decoupled radius ODEs, radius
    by radius in plain floats.  ``state`` holds a (rate, radius, rate at
    that radius) triple per radius, and so does the result, whose last rate
    is the next step's first stage.  PastBlowup when a radius is at or
    below R_MIN at a stage or at the end; every rate is negative, so a
    radius already there fails its first stage."""
    half = 0.5 * dt
    new = []
    for rate, r, a in state:
        if (s := r + half * a) <= R_MIN:
            raise PastBlowup(_COLLAPSED)
        b = rate(s)
        if (s := r + half * b) <= R_MIN:
            raise PastBlowup(_COLLAPSED)
        c = rate(s)
        if (s := r + dt * c) <= R_MIN:
            raise PastBlowup(_COLLAPSED)
        d = rate(s)
        if (r := r + dt / 6.0 * (a + 2 * b + 2 * c + d)) <= R_MIN:
            raise PastBlowup(f"radius fell to {r:.3e} <= r_min={R_MIN:.1e}")
        new.append((rate, r, rate(r)))
    return new


def step_rk4(state: FlowState, dt: float) -> FlowState:
    """One RK4 step of ``state``'s radii through the routine that
    :func:`simulate` steps with.  PastBlowup when a radius is at or below
    R_MIN at the start (checked before any rate is taken), at a stage or at
    the end."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a positive finite step, got {dt}")
    fam, y = state.family, state.params
    if min(y) <= R_MIN:
        raise PastBlowup(_COLLAPSED)
    new = _rk4_radii([(rate, r, rate(r)) for rate, r in zip(fam.radius_rates, y)], dt)
    return FlowState(fam, state.t + dt, tuple([r for _, r, _ in new]))


@dataclass(frozen=True)
class TimeSeries:
    """A diagnostics series, one float64 array per CSV column.

    ``param2`` is NaN for one-radius families and Q is NaN in flat space.
    """

    header: ClassVar[str] = CSV_HEADER
    t: np.ndarray
    param1: np.ndarray
    param2: np.ndarray
    A2: np.ndarray
    H2: np.ndarray
    h2: np.ndarray
    Aminus2: np.ndarray
    f: np.ndarray
    Q: np.ndarray
    ratio_pinch: np.ndarray
    ratio_codim: np.ndarray
    ratio_cyl: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def columns(self) -> list[np.ndarray]:
        """Every column, in header order."""
        return [getattr(self, field.name) for field in fields(self)]


def diagnostics(family: Family, t: np.ndarray | list[float],
                params: np.ndarray | list[tuple[float, ...]],
                constants: PinchingConstants) -> TimeSeries:
    """All scalar diagnostics of ``family`` at times ``t``, shape (k,), and
    radii ``params``, shape (k, j), evaluated together on the stacked forms."""
    if constants.dims != (dims := Dims(family.n, family.m)):
        raise InvalidConstants(f"constants have dims {constants.dims} but family has {dims}")
    if constants.Kbar is not None and constants.Kbar != family.kbar:
        raise InvalidConstants(
            f"constants Kbar={constants.Kbar} but family has kbar={family.kbar}"
        )
    params = np.asarray(params, dtype=np.float64)
    dec = principal_decompose(family.form(params))
    H2 = dec.H.norm2
    f = pinching_f(dec, constants)
    nan = np.full(len(params), math.nan)
    return TimeSeries(
        np.asarray(t, dtype=np.float64), params[:, 0],
        params[:, 1] if params.shape[1] > 1 else nan,
        dec.a2, H2, dec.h2, dec.a_minus2, f,
        nan if constants.Kbar is None else pinching_Q(dec, constants),
        dec.a2 / H2,
        np.divide(dec.a_minus2, f, out=nan.copy(), where=f > 0),
        dec.a2 - H2 / (family.n - 1),
    )


def simulate(
    family: Family,
    constants: PinchingConstants,
    dt: float,
    t_end: float,
    every: int = 1,
) -> TimeSeries:
    """Fixed-step RK4 time series with records every ``every`` steps.

    The step is halved whenever a radius gets within 10 dt |rate| of
    collapse; integration stops at t_end or when a radius reaches R_MIN.
    A run of more than ``MAX_STEPS`` fixed steps, ceil(min(t_end, T) / dt)
    with T the family's blow-up time, is refused.  The radii are stepped in
    plain floats through the RK4 routine that ``step_rk4`` wraps, each with
    its rate at hand.  The recorded steps are evaluated in blocks whose
    forms hold at most ``STACK_BUDGET`` values (never fewer than ``CHUNK``
    records), each as soon as it fills, and the blocks are then joined.
    """
    if every < 1:
        raise ValueError(f"every must be a positive step count, got {every}")
    if not t_end > 0:
        raise ValueError(f"t_end must be a positive time, got {t_end}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a positive finite step, got {dt}")
    t_max = family.blowup_time()
    if (steps := min(t_end, t_max) / dt) > MAX_STEPS:
        steps = math.ceil(steps) if steps < math.inf else steps
        raise ValueError(f"t_end={t_end} at dt={dt} takes {steps} fixed steps, "
                         f"more than MAX_STEPS={MAX_STEPS}, counted to "
                         f"min(t_end, blow-up time {t_max})")
    t, y = 0.0, family.exact_params(0.0)
    state = [(rate, r, rate(r)) for rate, r in zip(family.radius_rates, y)]
    # the initial record is evaluated before any step, so that a constants
    # mismatch or a degenerate |H| fails at once
    parts = [diagnostics(family, [t], [y], constants)]
    block = max(CHUNK, STACK_BUDGET // (family.m * family.n**2))
    times, states = [], []

    def evaluate() -> None:
        parts.append(diagnostics(family, times, [[r for _, r, _ in s] for s in states],
                                 constants))
        del times[:], states[:]

    step, k = dt, 0
    while t < t_end:
        for _, r, a in state:  # a halving never puts a radius back within reach
            while step > 1e-12 and r < 10.0 * step * abs(a):
                step *= 0.5
        h = min(step, t_end - t)
        try:
            state = _rk4_radii(state, h)
        except PastBlowup:
            break
        t += h
        k += 1
        if k % every == 0:
            times.append(t)
            states.append(state)
            if len(times) == block:
                evaluate()
    if times:
        evaluate()
    return TimeSeries(*map(np.concatenate, zip(*(part.columns() for part in parts))))


@dataclass(frozen=True)
class EvolutionResidual:
    """Relative mismatch between exact d/dt and the reaction-only right side."""

    t: float
    dA2_dt: float
    dH2_dt: float
    reaction_A2: float
    reaction_H2: float
    residual_A2: float
    residual_H2: float


def evolution_residual(state: FlowState) -> EvolutionResidual:
    """Centered finite difference of |A|^2, |H|^2 against the reaction terms.

    For homogeneous families the Laplacian and all gradient squares vanish,
    so the exact time derivatives must match 2 R1 (plus the space-form
    terms 4 Kbar |H|^2 - 2n Kbar |A|^2) and 2 R2 + 2n Kbar |H|^2.  The forms
    at t + h, t - h and t, h = ``FD_STEP``, are evaluated together.
    """
    fam, t, h = state.family, state.t, FD_STEP
    A = fam.form([fam.exact_params(s) for s in (t + h, t - h, t)])
    H = mean_curvature(A)
    a2, h2 = A.norm2, H.norm2
    dA2 = float((a2[0] - a2[1]) / (2 * h))
    dH2 = float((h2[0] - h2[1]) / (2 * h))
    kbar, n = fam.kbar, fam.n
    reaction_A2 = float(2 * r1(A)[2] + 4 * kbar * h2[2] - 2 * n * kbar * a2[2])
    reaction_H2 = float(2 * r2(A, H)[2] + 2 * n * kbar * h2[2])
    return EvolutionResidual(t, dA2, dH2, reaction_A2, reaction_H2, *[
        abs(d - r) / max(1.0, abs(r)) for d, r in ((dA2, reaction_A2), (dH2, reaction_H2))])


@dataclass(frozen=True)
class BlowupVerdict:
    """Verdict of the mean-curvature lower-barrier sweep along a family.

    ``barrier_ok`` refers to the flat-model barrier
    |H(t)|^2 >= 1/(1/|H_0|^2 - 2t/n); ``equality`` flags when it is attained
    (round sphere).  ``adjusted_ok`` checks the curvature-corrected barrier
    solving u' = (2/n) u^2 + 2n kbar u, the sharp comparison for kbar < 0
    (hyperbolic geodesic spheres attain it); for kbar = 0 the two coincide.
    ``tmax_ok`` reports whether the family's blow-up time respects
    T <= n / (2 |H_0|^2).
    """

    barrier_ok: bool
    equality: bool
    adjusted_ok: bool
    tmax_ok: bool
    worst_margin: float          # min over samples of |H|^2/barrier - 1
    worst_adjusted_margin: float


def blowup_bound_check(family: Family) -> BlowupVerdict:
    """Sweep the barrier inequalities along the exact solution, all sample
    times in one batch; the flat barrier is the kbar = 0 case."""
    n_times, rel_tol = 1000, 1e-9
    if family.kbar > 0:
        raise InvalidConstants("barrier sweep assumes kbar <= 0")
    n = family.n
    t_max = family.blowup_time()
    t = t_max * np.arange(n_times) / n_times
    h2 = mean_curvature(family.form([family.exact_params(s) for s in t.tolist()])).norm2
    h0sq = float(h2[0])
    margins = []
    for kbar in (0.0, family.kbar):  # the flat barrier, then the adjusted one
        if kbar == 0.0:
            denom = 1.0 / h0sq - 2.0 * t / n
        else:
            c = n * n * kbar
            # math.exp time by time: np.exp can round the last bit otherwise
            growth = np.array([math.exp(-2.0 * n * kbar * s) for s in t.tolist()])
            denom = growth * (1.0 / h0sq + 1.0 / c) - 1.0 / c
        barrier = np.divide(1.0, denom, out=np.full(n_times, math.inf), where=denom > 0)
        margins.append(h2 / barrier - 1.0)  # -1 where the barrier is infinite
    flat, adjusted = margins
    return BlowupVerdict(
        barrier_ok=bool(flat.min() >= -rel_tol),
        equality=not np.any(np.abs(flat) > 1e-6),
        adjusted_ok=bool(adjusted.min() >= -rel_tol),
        tmax_ok=t_max <= n / (2.0 * h0sq) * (1 + rel_tol),
        worst_margin=float(flat.min()),
        worst_adjusted_margin=float(adjusted.min()),
    )


def quotient_identity_residual(
    w: np.ndarray,
    z: np.ndarray,
    W: np.ndarray,
    Z: np.ndarray,
    dt: float,
    dx: float,
) -> float:
    """Max-norm residual of the quotient evolution identity on a periodic grid.

    For fields w, z with dw/dt = laplacian(w) + W and dz/dt = laplacian(z) + Z,
    the quotient satisfies

        (d/dt - laplacian)(w/z) = (2/z) <grad(w/z), grad z> + W/z - (w/z^2) Z.

    Both sides are discretized with second-order centered stencils and one
    forward Euler step, so the residual shrinks at O(dx^2) + O(dt).
    """
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0):
        raise NonpositiveZ("z must be strictly positive")

    def lap(u: np.ndarray) -> np.ndarray:
        return (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / dx**2

    def grad(u: np.ndarray) -> np.ndarray:
        return (np.roll(u, -1) - np.roll(u, 1)) / (2 * dx)

    w_next = w + dt * (lap(w) + W)
    z_next = z + dt * (lap(z) + Z)
    if np.any(z_next <= 0):
        raise NonpositiveZ("z stepped to a nonpositive value; shrink dt")
    q = w / z
    lhs = (w_next / z_next - q) / dt - lap(q)
    rhs = 2.0 / z * grad(q) * grad(z) + W / z - w / z**2 * Z
    return float(np.max(np.abs(lhs - rhs)))


# ----------------------------------------------------------------------
# CSV time series
# ----------------------------------------------------------------------

def write_rows(series: TimeSeries, fh: TextIO) -> None:
    """Write ``series`` as CSV text to an open file: its header, then one
    line per row, each value with 17 significant digits and NaN as ``NaN``.
    Blocks of ``WRITE_ROWS`` rows are formatted with one ``%`` each.  A
    column that is NaN throughout a block is a literal ``NaN`` in its line;
    only a block with a NaN left to format is searched for ``nan``."""
    columns = series.columns()
    fh.write(series.header + "\n")
    for start in range(0, len(series), WRITE_ROWS):
        block = np.stack([col[start:start + WRITE_ROWS] for col in columns])
        nan = np.isnan(block)
        blank = nan.all(axis=1)
        line = ",".join(["NaN" if b else "%.17g" for b in blank.tolist()]) + "\n"
        text = line * block.shape[1] % tuple(block[~blank].T.ravel().tolist())
        fh.write(text.replace("nan", "NaN") if nan[~blank].any() else text)


def write_csv(series: TimeSeries, path: str) -> None:
    with open(path, "w") as fh:
        write_rows(series, fh)


def read_csv(path: str) -> TimeSeries:
    """The series that :func:`write_csv` wrote, empty for a header-only file.
    The file is read once, front to back, so ``path`` may be a pipe such as
    ``/dev/stdin``: its non-blank lines stream into NumPy, and the whole
    text is never held.  ValueError on a different header, or naming the
    file line of the first row whose field count is not the header's, or
    the file line and field of the first value ``loadtxt`` cannot read as a
    float (it refuses ``1_0``, which ``float()`` takes)."""
    width = len(fields(TimeSeries))
    blanks: list[int] = []

    def rows(fh: TextIO) -> Iterator[str]:
        for lineno, line in enumerate(fh, 2):
            if line.count(",") == width - 1:
                yield line
            elif line.strip():
                raise ValueError(f"line {lineno}: {line.count(',') + 1} fields, "
                                 f"the header has {width}")
            else:
                blanks.append(lineno)

    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        lines = rows(fh)
        if (first := next(lines, None)) is None:  # loadtxt warns on empty input
            return TimeSeries(*np.empty((width, 0)))
        try:
            table = np.loadtxt(chain([first], lines), delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            # loadtxt counts the rows it was given from 0, and columns from 1
            if not (found := re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", str(exc))):
                raise
            lineno = int(found[2]) + 2
            for blank in blanks:  # in file order
                lineno += blank <= lineno
            raise ValueError(f"line {lineno}, field {found[3]}: {found[1]}") from None
    return TimeSeries(*table.T)
