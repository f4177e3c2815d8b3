"""Parabolic rescaling of diagnostics series."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow.errors import NotPinchedAtBase
from pinchflow.flow import (
    HyperbolicSphereFlow,
    ProductSpheresFlow,
    SphereFlow,
    TimeSeries,
    read_csv,
    simulate,
    write_csv,
)
from pinchflow.rescale import (
    RESCALED_HEADER,
    invariance_report,
    rescale,
    write_rescaled_csv,
)
from tests.test_flow import FLAT_K, hyperbolic_constants


def product_series():
    fam = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
    return simulate(fam, FLAT_K, dt=1e-4, t_end=0.0712, every=2)


class TestRescale:
    def test_base_normalization(self):
        recs = product_series()
        for base in (0, len(recs) // 2, len(recs) - 1):
            series = rescale(recs, base)
            assert abs(series.records.fbar[base] - 1.0) <= 1e-12

    def test_identity_when_base_f_is_one(self):
        # a series whose base f is exactly 1 rescales to itself
        recs = product_series()
        base = min(range(len(recs)), key=lambda i: abs(recs.f[i] - 1.0))
        series = rescale(recs, base)
        rho = series.rho
        assert series.records.A2[base] == pytest.approx(recs.A2[base] * rho, rel=1e-15)
        if abs(recs.f[base] - 1.0) < 1e-3:
            assert series.records.A2[base] == pytest.approx(recs.A2[base], rel=1e-2)

    def test_ratio_invariance(self):
        recs = product_series()
        base = next(i for i, f in enumerate(recs.f) if f >= 100.0)
        series = rescale(recs, base)
        report = invariance_report(recs, series)
        assert report.max_pinch_drift <= 1e-12
        assert report.max_codim_drift <= 1e-12
        assert report.base_fbar == pytest.approx(1.0, abs=1e-12)

    def test_time_dilation(self):
        recs = product_series()
        series = rescale(recs, 10)
        f_base = recs.f[10]
        for t, tbar in zip(recs.t, series.records.tbar):
            assert tbar == pytest.approx((t - recs.t[10]) * f_base, rel=1e-13)

    def test_dbar_and_q_transform(self):
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        recs = simulate(fam, hyperbolic_constants(), dt=1e-5, t_end=0.012)
        series = rescale(recs, 5, kbar=-1.0)
        rho = 1.0 / recs.f[5]
        assert series.records.Q[5] == pytest.approx(recs.Q[5] * rho, rel=1e-14)

    def test_background_flattening_monotone(self):
        fam = HyperbolicSphereFlow(8, 2, 0.5, -1.0)
        recs = simulate(fam, hyperbolic_constants(), dt=1e-5, t_end=fam.blowup_time())
        targets = [10.0, 30.0, 100.0, 300.0, 1000.0]
        kresc = []
        for target in targets:
            base = next(i for i, f in enumerate(recs.f) if f >= target)
            kresc.append(rescale(recs, base, kbar=-1.0).records.kresc[base])
        mags = [abs(k) for k in kresc]
        assert all(b < a for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-3
        assert all(k < 0 for k in kresc)

    @pytest.mark.parametrize("name, value", [
        ("kbar", math.nan), ("kbar", math.inf), ("kbar", -math.inf),
    ])
    def test_non_finite_kbar_or_d_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            rescale(product_series(), 3, **{name: value})

    def test_empty_series_rejected(self):
        empty = TimeSeries(*np.empty((12, 0)))
        with pytest.raises(ValueError, match="the series has no rows"):
            rescale(empty, 0)

    def test_flat_kresc_zero(self):
        recs = simulate(SphereFlow(8, 2, 2.0), FLAT_K, dt=1e-3, t_end=0.2)
        series = rescale(recs, 3, kbar=0.0)
        assert all(k == 0.0 for k in series.records.kresc)

    def test_not_pinched_at_base(self):
        recs = simulate(SphereFlow(8, 2, 2.0), FLAT_K, dt=1e-3, t_end=0.2)
        f = recs.f.copy()
        f[0] = -1.0
        bad = dataclasses.replace(recs, f=f)
        with pytest.raises(NotPinchedAtBase):
            rescale(bad, 0)

    @given(st.floats(1e-6, 1e6), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_base_normalization(self, scale, base):
        # base normalization and ratio invariance hold at any base f scale
        recs = simulate(SphereFlow(8, 2, 2.0), FLAT_K, dt=5e-3, t_end=0.2)
        scaled = dataclasses.replace(
            recs,
            A2=scale * recs.A2, H2=scale * recs.H2, h2=scale * recs.h2,
            Aminus2=scale * recs.Aminus2, f=scale * recs.f,
            ratio_cyl=scale * recs.ratio_cyl,
        )
        base = min(base, len(scaled) - 1)
        series = rescale(scaled, base)
        assert abs(series.records.fbar[base] - 1.0) <= 1e-12
        for orig, resc in zip(scaled.ratio_pinch, series.records.ratio_pinch):
            assert abs(orig - resc) <= 1e-12


class TestRescaledCsv:
    def test_header_and_roundtrip_columns(self, tmp_path):
        recs = product_series()
        series = rescale(recs, 4, kbar=0.0)
        path = str(tmp_path / "rescaled.csv")
        write_rescaled_csv(series, path)
        with open(path) as fh:
            header = fh.readline().strip()
            first = fh.readline().strip().split(",")
        assert header == RESCALED_HEADER
        assert header.endswith("tbar,fbar,Kresc")
        assert len(first) == 15

    def test_flow_csv_feeds_rescale(self, tmp_path):
        recs = product_series()
        path = str(tmp_path / "series.csv")
        write_csv(recs, path)
        back = read_csv(path)
        series = rescale(back, 7)
        assert series.records.fbar[7] == pytest.approx(1.0, abs=1e-12)
