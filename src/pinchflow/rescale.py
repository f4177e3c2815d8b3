"""Parabolic rescaling of recorded flow diagnostics.

Zooming near a high-curvature record normalizes the pinching quantity to 1:
with curvature-squared multiplier rho = 1/f(base), every dimensionful
diagnostic (|A|^2, |H|^2, f, Q, the offset d, the background curvature) is
multiplied by rho and time dilates by 1/rho around the base record.  The
metric scale is rho^{-1/2}; since f carries units of curvature squared, the
length factor is f(base)^{-1/2} so that the base record lands exactly on
fbar = 1.  Dimensionless ratios are unchanged record by record, and the
rescaled background curvature kbar * rho flattens as the base f grows:
the numerical shadow of blow-up limits living in flat space.

Rescaling acts on the recorded scalars only; no immersion is transformed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotPinchedAtBase
from .flow import CSV_HEADER, TimeSeriesRecord, _csv_num, record_row

RESCALED_HEADER = CSV_HEADER + ",tbar,fbar,Kresc"


@dataclass(frozen=True)
class RescaledRecord(TimeSeriesRecord):
    """A transformed diagnostics row plus the dedicated rescaled columns.

    ``t`` stays the original time, kept for joins; ``tbar`` is the rescaled
    time around the base record.
    """

    tbar: float
    fbar: float
    kresc: float


@dataclass(frozen=True)
class RescaledSeries:
    base_index: int
    rho: float                # curvature^2 multiplier, 1/f(base)
    dbar: float               # rescaled pinching offset
    records: tuple[RescaledRecord, ...]


def rescale(
    records: list[TimeSeriesRecord],
    base_index: int,
    kbar: float = 0.0,
    d: float = 0.0,
) -> RescaledSeries:
    """Transform a diagnostics series so the base record has fbar = 1.

    Raises :class:`NotPinchedAtBase` when f at the base record is not
    positive and ValueError when ``base_index`` is not a row of ``records``.
    """
    if not 0 <= base_index < len(records):
        raise ValueError(f"base row {base_index} outside 0..{len(records) - 1}")
    base = records[base_index]
    if not (base.f > 0):
        raise NotPinchedAtBase(f"f(base) = {base.f} is not positive")
    rho = 1.0 / base.f
    out = []
    for rec in records:
        a2 = rho * rec.A2
        h2_full = rho * rec.H2
        f = rho * rec.f
        am2 = rho * rec.Aminus2
        out.append(
            RescaledRecord(
                t=rec.t,
                params=rec.params,
                A2=a2,
                H2=h2_full,
                h2=rho * rec.h2,
                Aminus2=am2,
                f=f,
                Q=rho * rec.Q,
                ratio_pinch=a2 / h2_full,
                ratio_codim=am2 / f if f > 0 else math.nan,
                ratio_cyl=rho * rec.ratio_cyl,
                tbar=(rec.t - base.t) / rho,
                fbar=f,
                kresc=rho * kbar,
            )
        )
    return RescaledSeries(
        base_index=base_index, rho=rho, dbar=rho * d, records=tuple(out)
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Record-wise invariance of the dimensionless ratios under rescaling."""

    max_pinch_drift: float
    max_codim_drift: float
    base_fbar: float
    kresc: float


def invariance_report(
    records: list[TimeSeriesRecord], rescaled: RescaledSeries
) -> InvarianceReport:
    if len(records) != len(rescaled.records):
        raise ValueError("series lengths differ")
    pinch = 0.0
    codim = 0.0
    for orig, resc in zip(records, rescaled.records):
        pinch = max(pinch, abs(orig.ratio_pinch - resc.ratio_pinch))
        both_finite = not (math.isnan(orig.ratio_codim) or math.isnan(resc.ratio_codim))
        if both_finite:
            codim = max(codim, abs(orig.ratio_codim - resc.ratio_codim))
    return InvarianceReport(
        max_pinch_drift=pinch,
        max_codim_drift=codim,
        base_fbar=rescaled.records[rescaled.base_index].fbar,
        kresc=rescaled.records[rescaled.base_index].kresc,
    )


def rescaled_row(rec: RescaledRecord) -> str:
    tail = (rec.tbar, rec.fbar, rec.kresc)
    return ",".join([record_row(rec)] + [_csv_num(v) for v in tail])


def write_rescaled_csv(series: RescaledSeries, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(RESCALED_HEADER + "\n")
        for rec in series.records:
            fh.write(rescaled_row(rec) + "\n")
