"""Parabolic rescaling of recorded flow diagnostics.

Zooming near a high-curvature record normalizes the pinching quantity to 1:
with curvature-squared multiplier rho = 1/f(base), every dimensionful
diagnostic (|A|^2, |H|^2, f, Q, the background curvature) is multiplied
by rho and time dilates by 1/rho around the base record.  The
metric scale is rho^{-1/2}; since f carries units of curvature squared, the
length factor is f(base)^{-1/2} so that the base record lands exactly on
fbar = 1.  Dimensionless ratios are unchanged record by record, and the
rescaled background curvature kbar * rho flattens as the base f grows:
the numerical shadow of blow-up limits living in flat space.

Rescaling acts on the recorded scalars only, one array expression per
column of the series; no immersion is transformed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPinchedAtBase
from .flow import CSV_HEADER, TimeSeries, write_rows

RESCALED_HEADER = CSV_HEADER + ",tbar,fbar,Kresc"


@dataclass(frozen=True)
class RescaledTimeSeries(TimeSeries):
    """A transformed diagnostics series plus the dedicated rescaled columns.

    ``t`` stays the original time, kept for joins; ``tbar`` is the rescaled
    time around the base record.
    """

    header = RESCALED_HEADER
    tbar: np.ndarray
    fbar: np.ndarray
    kresc: np.ndarray


@dataclass(frozen=True)
class RescaledSeries:
    base_index: int
    rho: float                # curvature^2 multiplier, 1/f(base)
    records: RescaledTimeSeries


def rescale(series: TimeSeries, base_index: int, kbar: float = 0.0) -> RescaledSeries:
    """Transform a diagnostics series so the base record has fbar = 1.

    Raises :class:`NotPinchedAtBase` when f at the base record is not
    positive and ValueError when the series is empty, ``base_index`` is not
    one of its rows, or ``kbar`` is not finite.
    """
    if not math.isfinite(kbar):
        raise ValueError(f"kbar must be a finite number, got {kbar}")
    if not len(series):
        raise ValueError("the series has no rows")
    if not 0 <= base_index < len(series):
        raise ValueError(f"base row {base_index} outside 0..{len(series) - 1}")
    f_base = float(series.f[base_index])
    if not (f_base > 0):
        raise NotPinchedAtBase(f"f(base) = {f_base} is not positive")
    rho = 1.0 / f_base
    a2, h2_full, am2, f = (rho * col for col in (series.A2, series.H2, series.Aminus2, series.f))
    records = RescaledTimeSeries(  # the columns in header order
        series.t, series.param1, series.param2, a2, h2_full, rho * series.h2, am2, f,
        rho * series.Q, a2 / h2_full,
        np.divide(am2, f, out=np.full(len(f), np.nan), where=f > 0),
        rho * series.ratio_cyl,
        # tbar, fbar, kresc
        (series.t - series.t[base_index]) / rho, f, np.full(len(f), rho * kbar),
    )
    return RescaledSeries(base_index=base_index, rho=rho, records=records)


@dataclass(frozen=True)
class InvarianceReport:
    """Record-wise invariance of the dimensionless ratios under rescaling."""

    max_pinch_drift: float
    max_codim_drift: float
    base_fbar: float
    kresc: float


def invariance_report(series: TimeSeries, rescaled: RescaledSeries) -> InvarianceReport:
    if len(series) != len(rescaled.records):
        raise ValueError("series lengths differ")
    resc, base = rescaled.records, rescaled.base_index
    # fmax skips the NaN of rows where either ratio is undefined
    pinch, codim = (
        float(np.fmax.reduce(np.abs(getattr(series, name) - getattr(resc, name)), initial=0.0))
        for name in ("ratio_pinch", "ratio_codim")
    )
    return InvarianceReport(pinch, codim, float(resc.fbar[base]), float(resc.kresc[base]))


def write_rescaled_csv(series: RescaledSeries, path: str) -> None:
    with open(path, "w") as fh:
        write_rows(series.records, fh)
