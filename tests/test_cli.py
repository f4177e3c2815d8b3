"""Command-line interface: subcommands, exit codes, file formats."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pinchflow.campaign as campaign
import pinchflow.cli as cli
import pinchflow.lemmas as lemmas
from pinchflow.campaign import CheckResult
from pinchflow.errors import InvalidConstants
from pinchflow.flow import CSV_HEADER, MAX_STEPS, read_csv
from pinchflow.forms import Dims
from pinchflow.lemmas import InequalityCheck
from pinchflow.samplers import SamplerSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_general_n8(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "8", "--m", "2",
                           "--regime", "general")
        assert code == 0
        assert "1/6" in out
        assert "d_lower (flat) = 0" in out
        assert "kappa" in out

    def test_bounded_background(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "8", "--m", "2",
                           "--K1", "1", "--K2", "1")
        assert code == 0
        assert "d_lower (bounded background) = 31.4583333333333" in out

    def test_space_form(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "8", "--m", "2",
                           "--Kbar", "-1")
        assert code == 0
        assert "d_lower (space form) = 4" in out

    # the space form refuses c <= 1/n as the flat case does, before
    # 2n - 2/c divides by c
    @pytest.mark.parametrize("c", ["0", "0.1", "0.125"])
    def test_space_form_c_at_most_one_over_n_is_config_error(self, capsys, c):
        code, out, err = run(capsys, "constants", "--n", "8", "--m", "2", "--c", c,
                             "--Kbar", "-1")
        assert code == 2
        assert out == "" and "error: need c > 1/n" in err

    # c > 1/n is needed for either sign of Kbar, though only Kbar < 0 adds an offset
    @pytest.mark.parametrize("kbar", ["0", "1"])
    def test_space_form_c_at_most_one_over_n_for_kbar_at_least_0(self, capsys, kbar):
        code, out, err = run(capsys, "constants", "--n", "8", "--m", "2", "--c", "0.1",
                             "--Kbar", kbar)
        assert code == 2
        assert out == "" and "error: need c > 1/n" in err

    def test_space_form_kbar_at_least_0_has_no_offset(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "8", "--m", "2", "--Kbar", "1")
        assert code == 0 and "d_lower (space form) = 0\n" in out

    # the lower bounds of Dims, checked before 1/n is taken
    @pytest.mark.parametrize("n, m", [("0", "2"), ("-3", "2"), ("1", "2"), ("8", "0"),
                                      ("8", "-5")])
    def test_dimension_below_its_bound_is_config_error(self, capsys, n, m):
        code, out, err = run(capsys, "constants", "--n", n, "--m", m, "--c", "0.5")
        assert code == 2
        assert out == "" and f"error: need n >= 2 and m >= 1, got n={n}, m={m}" in err

    def test_dimension_past_the_sampling_cap(self, capsys):
        # Dims caps sampled arrays at 16; the constants are closed forms
        code, out, _ = run(capsys, "constants", "--n", "40", "--m", "20")
        assert code == 0 and "c (general) = 1/38" in out

    def test_unsupported_dimension_is_config_error(self, capsys):
        code, _, err = run(capsys, "constants", "--n", "3", "--m", "1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag, value", [
        ("c", "nan"), ("K1", "nan"), ("K2", "inf"), ("L", "inf"), ("Kbar", "nan"),
        ("Kbar", "inf"),
    ])
    def test_non_finite_input_names_itself(self, capsys, flag, value):
        code, out, err = run(capsys, "constants", "--n", "8", "--m", "3", f"--{flag}", value)
        assert code == 2
        assert out == "" and f"error: {flag} must be a finite number" in err


# every suite at n = 2..12, m = 2..4, without and with --eps0; a case is
# named n-suite, plus its m unless it is 2 and its eps0 if one is given
DEFAULTS_GRID = [
    pytest.param(suite, n, m, eps0, id=f"{n}-{suite}" + (f"-m{m}" if m != 2 else "")
                 + (f"-eps0={eps0}" if eps0 else ""))
    for n in range(2, 13) for suite in cli.SUITES for m in range(2, 5)
    for eps0 in (None, "0.005", "0.01")
]


class TestVerify:
    def test_li_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run(capsys, "verify", "--suite", "li", "--trials", "1000",
                             "--seed", "7", "--n", "4", "--m", "3",
                             "--out", str(out))
            assert code == 0
        assert out1.read_text() == out2.read_text()
        report = json.loads(out1.read_text())
        assert report["seed"] == 7
        entry = report["results"][0]
        assert {"lemma_id", "trials", "violations", "worst_slack", "seed"} <= set(entry)
        assert entry["violations"] == 0

    def test_negative_seed_names_itself(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "li", "--trials", "5",
                             "--seed", "-1", "--n", "3", "--m", "2")
        assert code == 2
        assert out == "" and "error: seed must be a non-negative integer" in err

    def test_sigma_option_removed(self, capsys):
        # a Gaussian scale would only restate d: every id is homogeneous in (A, d)
        code, out, err = run(capsys, "verify", "--suite", "li", "--trials", "5",
                             "--seed", "1", "--n", "3", "--m", "2", "--sigma", "1")
        assert code == 2
        assert out == "" and "unrecognized arguments: --sigma 1" in err

    def test_violation_exit_code(self, capsys, monkeypatch, tmp_path):
        def fake_run_campaign(*args, **kwargs):
            return [CheckResult("li", 5, 2, -1.0, "deadbeef", 1)]

        monkeypatch.setattr(cli, "run_campaign", fake_run_campaign)
        code, _, _ = run(capsys, "verify", "--suite", "li", "--trials", "5",
                         "--seed", "1", "--n", "3", "--m", "2",
                         "--out", str(tmp_path / "r.json"))
        assert code == 1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_is_config_error(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--suite", "li", "--trials", trials,
                             "--seed", "1", "--n", "3", "--m", "2")
        assert code == 2
        assert out == "" and "error:" in err

    # a tol of 1 or more admits a lhs above its rhs by the sides' whole
    # scale; at 1e308, -tol * scale overflowed to -inf and passed every trial
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1", "1e308"])
    def test_bad_tol_is_config_error(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--suite", "li", "--trials", "5",
                             "--seed", "1", "--n", "3", "--m", "2", "--tol", tol)
        assert code == 2
        assert out == "" and "tol must be" in err

    @pytest.mark.parametrize("suite, flag, value, name", [
        ("kato", "--eta", "nan", "eta"),
        ("kato", "--eta", "inf", "eta"),
        ("reaction", "--c", "nan", "c"),
        ("reaction", "--d", "nan", "d"),
        # a negative d made NaN pinched forms instead of an error naming it
        ("reaction", "--d", "-1", "d"),
        ("gradient", "--d", "-0.5", "d"),
        ("all", "--d", "-1", "d"),
        # a d whose quartic sides would overflow into NaN slacks, which
        # count as violations, or into an asymmetric form
        ("reaction", "--d", "1e200", "d"),
        ("all", "--d", "1e101", "d"),
        # an option the suite does not read still lands in the report
        ("li", "--delta", "nan", "delta"),
        ("reaction", "--eta", "inf", "eta"),
        ("gradient", "--eps0", "nan", "eps0"),
    ])
    def test_bad_constant_names_itself(self, capsys, suite, flag, value, name):
        code, out, err = run(capsys, "verify", "--suite", suite, "--trials", "5",
                             "--seed", "1", "--n", "8", "--m", "3", flag, value)
        assert code == 2
        assert out == "" and f"error: {name} must be" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_eps0_named_where_c_and_delta_derive_from_it(self, capsys, value):
        # at 5 <= n < 8 the gradient suite's default c and delta are taken
        # from eps0, so a non-finite eps0 is named before they are
        code, out, err = run(capsys, "verify", "--suite", "gradient", "--trials", "5",
                             "--seed", "1", "--n", "6", "--m", "2", f"--eps0={value}")
        assert code == 2
        assert out == "" and "error: eps0 must be a finite number" in err

    @pytest.mark.parametrize("value", ["-1e308", "0", "0.06", "1e308"])
    def test_eps0_outside_its_range_is_named(self, capsys, value):
        # a margin below case 2's limit on c, which c must keep above 1/n:
        # at -1e308 the derived delta overflowed to -inf and was named instead
        code, out, err = run(capsys, "verify", "--suite", "gradient", "--trials", "5",
                             "--seed", "1", "--n", "6", "--m", "2", f"--eps0={value}")
        assert code == 2
        assert out == "" and "error: eps0 must be in (0, 0.0520833)" in err

    @pytest.mark.parametrize("suite, value", [("reaction", "1e100"), ("reaction", "1e308"),
                                              ("all", "1e100"), ("gradient", "0.2")])
    def test_c_outside_the_ids_range_is_named_before_a_draw(self, capsys, monkeypatch,
                                                            suite, value):
        # the draw at such a c once failed first, on |H| or on the form's symmetry
        def no_draw(*args):
            raise AssertionError("a form was drawn")

        monkeypatch.setattr(campaign, "sample_trial_inputs", no_draw)
        code, out, err = run(capsys, "verify", "--suite", suite, "--trials", "4",
                             "--seed", "1", "--n", "8", "--m", "3", "--c", value)
        assert code == 2
        assert out == "" and f"c={float(value)}" in err

    def test_eps0_not_above_zero_is_named_before_a_draw(self, capsys, monkeypatch):
        # given c and delta derive nothing from eps0, and case 2's limit on c,
        # 3(n+1)/(2n(n+2)) - eps0, would admit any c at this eps0
        def no_draw(*args):
            raise AssertionError("a form was drawn")

        monkeypatch.setattr(campaign, "sample_trial_inputs", no_draw)
        code, out, err = run(capsys, "verify", "--suite", "gradient", "--n", "6", "--m", "2",
                             "--c", "0.2", "--delta", "0.01", "--eps0=-1e308")
        assert code == 2
        assert out == "" and "eps0=-1e+308" in err
        spec = SamplerSpec(Dims(6, 2), c=0.6, delta=0.01, eps0=-0.5)
        with pytest.raises(InvalidConstants, match="eps0=-0.5"):
            campaign.run_campaign(spec, ["L4.6"], 4)

    # li draws no form, so it reads no d; kato draws no form either
    @pytest.mark.parametrize("suite, flag, value", [
        pytest.param("li", "--d", "-1", id="--d--1"),
        pytest.param("li", "--d", "1e200", id="--d-1e200"),
        pytest.param("kato", "--d", "-1", id="kato---d--1"),
    ])
    def test_li_runs_at_the_edges(self, capsys, suite, flag, value):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--trials", "64", "--seed", "1",
                           "--n", "4", "--m", "3", flag, value)
        assert code == 0
        assert all(r["violations"] == 0 for r in json.loads(out)["results"])

    # the kato inequalities hold for any Codazzi tensor, so they need no
    # pinching coefficient, which is undefined below n = 5
    @pytest.mark.parametrize("n", ["2", "3", "4"])
    def test_kato_runs_below_n5(self, capsys, n):
        code, out, err = run(capsys, "verify", "--suite", "kato", "--trials", "2000",
                             "--seed", "1", "--n", n, "--m", "3")
        assert code == 0, err
        report = json.loads(out)
        assert report["constants"]["c"] == 0.0
        assert [r["violations"] for r in report["results"]] == [0, 0]

    def test_report_is_strict_json(self, capsys, monkeypatch, tmp_path):
        # every slack NaN: there is no worst slack, and the report says null
        # rather than Infinity; the counterexamples go to the working directory
        monkeypatch.chdir(tmp_path)
        def nan_li(matrices):
            nan = np.full(np.shape(matrices)[:-3], np.nan)
            return InequalityCheck("li", nan, nan)

        def refuse(name):
            raise AssertionError(f"non-JSON constant {name}")

        monkeypatch.setattr(lemmas, "check_li", nan_li)
        code, out, _ = run(capsys, "verify", "--suite", "li", "--trials", "5",
                           "--seed", "1", "--n", "2", "--m", "2")
        assert code == 1
        (entry,) = json.loads(out, parse_constant=refuse)["results"]
        assert entry["violations"] == 5 and entry["worst_slack"] is None

    @pytest.mark.parametrize("suite, n, m, eps0", DEFAULTS_GRID)
    def test_gradient_defaults_hold_from_n5(self, capsys, suite, n, m, eps0):
        # every suite runs on its default constants from n = 5; below n = 8
        # the gradient estimates take the case-2 constants of the eps0 given,
        # or of 0.005; below n = 5 a suite that reads a form has no default c
        def verify(*extra):
            return run(capsys, "verify", "--suite", suite, "--trials", "4",
                       "--seed", "1", "--n", str(n), "--m", str(m), *extra)

        code, out, err = verify(*(() if eps0 is None else ("--eps0", eps0)))
        ids = cli.SUITES[suite]
        if n < 5 and any("form" in lemmas.LEMMAS[i].kinds for i in ids):
            assert code == 2 and "pinching coefficient undefined" in err
            return
        assert code == 0, err
        constants = json.loads(out)["constants"]
        if not any(lemmas.LEMMAS[i].suite == "gradient" for i in ids):
            return
        if n < 8:
            e = 0.005 if eps0 is None else float(eps0)
            assert constants["eps0"] == e
            assert constants["c"] == 3 * (n + 1) / (2 * n * (n + 2)) - e
            assert constants["delta"] == min(0.5, 2 * n * (n + 2) * e / (3 * (n - 1)))
            if eps0 == "0.005":  # the value the defaults take without --eps0
                assert json.loads(verify()[1])["constants"] == constants
        elif eps0 is None:
            assert constants["eps0"] is None and constants["delta"] == 1 / (5 * n - 8)

    def test_reaction_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "reaction", "--trials", "50",
                           "--seed", "5", "--n", "8", "--m", "3", "--d", "0.5")
        assert code == 0
        report = json.loads(out)
        assert {e["lemma_id"] for e in report["results"]} == {
            "4.5", "4.6", "4.10", "4.12", "4.14", "boundary"
        }


# the ids of each suite, in report order, as the README documents them
DOCUMENTED_IDS = {
    "li": ["li"],
    "kato": ["kato.3.1", "kato.3.2"],
    "reaction": ["4.5", "4.6", "4.10", "4.12", "4.14", "boundary"],
    "gradient": ["4.20", "4.21", "4.22", "L4.6", "L4.7", "L4.8", "L4.9"],
}
DOCUMENTED_IDS["all"] = [i for ids in DOCUMENTED_IDS.values() for i in ids]


@pytest.mark.parametrize("suite", list(DOCUMENTED_IDS))
def test_suite_reports_its_documented_ids(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--trials", "2",
                       "--seed", "1", "--n", "8", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert [r["lemma_id"] for r in report["results"]] == DOCUMENTED_IDS[suite]
    # li and kato read no form: no coefficient; the gradient estimates take
    # the case-1 delta 1/(5n - 8)
    assert report["constants"]["c"] == (0.0 if suite in ("li", "kato") else 1 / 6)
    assert report["constants"]["delta"] == (1 / 32 if suite in ("gradient", "all") else 0.5)


class TestSimulate:
    def test_product_csv(self, capsys, tmp_path):
        out = tmp_path / "prod.csv"
        code, _, _ = run(capsys, "simulate", "--family", "product",
                         "--params", "p=7,q=1,a=1,b=4", "--dt", "1e-4",
                         "--t-end", "0.07", "--every", "10", "--out", str(out))
        assert code == 0
        series = read_csv(str(out))
        assert series.Aminus2[0] == pytest.approx(0.07133757961783438, abs=1e-10)
        assert (series.param1[0], series.param2[0]) == (1.0, 4.0)

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, "simulate", "--family", "sphere",
                           "--params", "n=8,m=2,r=2", "--dt", "1e-3",
                           "--t-end", "0.01")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,param1,param2,")
        assert len(lines) > 5

    def test_hyperbolic_defaults(self, capsys, tmp_path):
        out = tmp_path / "hyp.csv"
        with pytest.warns(UserWarning, match="2n - 2/c"):
            code, _, _ = run(capsys, "simulate", "--family", "hyperbolic",
                             "--params", "n=8,m=2,r=0.5", "--dt", "1e-4",
                             "--t-end", "0.01", "--out", str(out))
        assert code == 0
        series = read_csv(str(out))
        assert not math.isnan(series.Q[0])

    def test_missing_param_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--family", "sphere",
                           "--params", "n=8")
        assert code == 2
        assert "error:" in err

    def test_every_zero_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--family", "sphere",
                           "--params", "r=2", "--every", "0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("family, params", [
        ("sphere", "n=8.9,r=1"),
        ("sphere", "r=1,nn=3"),
        ("cylinder", "n=8,m=2.5,r=1"),
        ("product", "p=7,q=1,a=1,b=4,r=2"),
        ("hyperbolic", "r=0.5,k=-1"),
    ])
    def test_malformed_params_are_config_errors(self, capsys, family, params):
        code, out, err = run(capsys, "simulate", "--family", family,
                             "--params", params, "--dt", "1e-3", "--t-end", "0.01")
        assert code == 2
        assert out == "" and "error:" in err

    def test_repeated_param_is_config_error(self, capsys):
        code, out, err = run(capsys, "simulate", "--family", "sphere",
                             "--params", "r=1,r=2", "--dt", "1e-3", "--t-end", "0.01")
        assert code == 2
        assert out == "" and "given twice" in err

    @pytest.mark.parametrize("t_end", ["-1", "0", "nan"])
    def test_nonpositive_t_end_is_config_error(self, capsys, t_end):
        code, out, err = run(capsys, "simulate", "--family", "sphere",
                             "--params", "r=1", "--t-end", t_end)
        assert code == 2
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("dt", ["nan", "inf", "0", "-1e-3"])
    def test_bad_dt_is_config_error(self, capsys, dt):
        code, out, err = run(capsys, "simulate", "--family", "sphere",
                             "--params", "r=1", f"--dt={dt}", "--t-end", "0.1")
        assert code == 2
        assert out == "" and "error: dt must be a positive finite step" in err

    def test_step_count_over_the_cap_is_config_error(self, capsys):
        # blow-up at t = 6.25e10 is 6.25e14 steps of 1e-4: refused before any step
        code, out, err = run(capsys, "simulate", "--family", "sphere", "--params", "r=1e6",
                             "--dt", "1e-4")
        assert code == 2
        assert out == "" and (f"error: t_end=62500000000.0 at dt=0.0001 takes "
                              f"625000000000000 fixed steps, more than MAX_STEPS={MAX_STEPS}"
                              in err)

    def test_steps_past_blowup_do_not_count(self, capsys, tmp_path):
        # t_end=1e5 at dt=1e-3 is 1e8 fixed steps, but blow-up at T = 0.25
        # comes after 250 of them: the run goes to blow-up and stops there
        out = tmp_path / "capped.csv"
        code, _, err = run(capsys, "simulate", "--family", "sphere", "--params", "r=2",
                           "--dt", "1e-3", "--t-end", "1e5", "--out", str(out))
        assert code == 0 and err == ""
        series = read_csv(str(out))
        assert len(series) > 250 and 0.249 < series.t[-1] < 0.25

    @pytest.mark.parametrize("family, params, named", [
        ("hyperbolic", "r=-0.5", "radius r0=-0.5"),
        ("hyperbolic", "r=inf", "radius r0=inf"),
        ("sphere", "r=nan", "radius r0=nan"),
        ("cylinder", "r=0", "radius r0=0.0"),
        ("product", "a=-1,b=4", "radius a0=-1.0"),
        ("product", "a=1,b=inf", "radius b0=inf"),
        ("hyperbolic", "r=1,kbar=nan", "-inf < kbar < 0, got kbar=nan"),
        ("hyperbolic", "r=1,kbar=-inf", "-inf < kbar < 0, got kbar=-inf"),
        ("hyperbolic", "r=1,kbar=0", "-inf < kbar < 0, got kbar=0.0"),
    ])
    def test_bad_radius_or_kbar_is_named(self, capsys, family, params, named):
        code, out, err = run(capsys, "simulate", "--family", family,
                             "--params", params, "--dt", "1e-3", "--t-end", "0.01")
        assert code == 2
        assert out == "" and named in err

    def test_hyperbolic_c_at_most_one_over_n_is_config_error(self, capsys):
        # refused before the default d = 2n - 2/c divides by c
        code, out, err = run(capsys, "simulate", "--family", "hyperbolic",
                             "--params", "r=0.5", "--c", "0")
        assert code == 2
        assert out == "" and "error: need c > 1/n, got c=0.0 for n=8" in err

    def test_hyperbolic_too_flat_names_its_parameters(self, capsys):
        # no --t-end: the refusal is the family's, not a zero blow-up time's
        # 2 sinh^2(kappa r0 / 2) underflows to 0 at the least subnormal kbar
        code, out, err = run(capsys, "simulate", "--family", "hyperbolic",
                             "--params", "r=1,kbar=-5e-324")
        assert code == 2
        assert out == "" and "r0=1.0, kbar=-5e-324" in err and "sphere family" in err
        assert "t_end" not in err

    # a family whose exact solution overflows the float range is refused
    # when it is built, not by an OverflowError traceback with exit code 1
    @pytest.mark.parametrize("family, params, named", [
        ("hyperbolic", "r=1000", "r0=1000.0, kbar=-1.0"),
        ("hyperbolic", "r=1,kbar=-1e300", "r0=1.0, kbar=-1e+300"),
        ("sphere", "r=1e200", "r_1=1e+200"),
        ("cylinder", "r=1e155", "r_1=1e+155"),
        ("product", "a=1,b=1e200", "r_1=1.0, r_2=1e+200"),
    ])
    def test_overflowing_parameters_exit_2(self, capsys, family, params, named):
        code, out, err = run(capsys, "simulate", "--family", family, "--params", params)
        assert code == 2
        assert out == "" and named in err and "not a finite positive time" in err

    # a start radius at or below R_MIN, where no step can be taken, is
    # refused before any row is written, and before a blow-up time that
    # rounds to 0 (r=1e-300) could be taken as a bad --t-end
    @pytest.mark.parametrize("family, params, named", [
        ("cylinder", "n=8,m=2,r=1e-7", "radius r0=1e-07"),
        ("hyperbolic", "n=8,m=2,r=1e-300,kbar=-1", "radius r0=1e-300"),
        ("sphere", "r=1e-6", "radius r0=1e-06"),
        ("product", "a=1,b=1e-6", "radius b0=1e-06"),
    ])
    def test_start_radius_at_or_below_r_min_is_config_error(self, capsys, family, params,
                                                            named):
        code, out, err = run(capsys, "simulate", "--family", family, "--params", params)
        assert code == 2
        assert out == "" and named in err and "r_min=1e-06" in err

    @pytest.mark.parametrize("family, params, option, value", [
        ("sphere", "r=2", "c", "nan"),
        ("sphere", "r=2", "c", "inf"),
        ("sphere", "r=2", "d", "inf"),
        ("sphere", "r=2", "d", "nan"),
        ("hyperbolic", "r=0.5", "c", "nan"),
        ("hyperbolic", "r=0.5", "d", "-inf"),
    ])
    def test_non_finite_constant_is_config_error(self, capsys, family, params, option,
                                                 value):
        code, out, err = run(capsys, "simulate", "--family", family, "--params", params,
                             f"--{option}={value}", "--dt", "1e-3", "--t-end", "0.01")
        assert code == 2
        assert out == "" and f"error: {option} must be a finite number" in err

    def test_bad_family_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--family", "torus", "--params", "r=1")
        assert code == 2


class TestRescaleCommand:
    def test_roundtrip_base_row(self, capsys, tmp_path):
        series = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--family", "product",
                         "--params", "p=7,q=1,a=1,b=4", "--dt", "1e-4",
                         "--t-end", "0.06", "--every", "20", "--out", str(series))
        assert code == 0
        out = tmp_path / "rescaled.csv"
        code, _, _ = run(capsys, "rescale", "--in", str(series),
                         "--base-row", "3", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            header = fh.readline().strip()
            rows = [line.strip().split(",") for line in fh]
        fbar_col = header.split(",").index("fbar")
        assert float(rows[3][fbar_col]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("base_row", ["-1", "4"])
    def test_base_row_outside_series_is_config_error(self, capsys, tmp_path, base_row):
        series = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--family", "sphere", "--params", "r=2",
                         "--dt", "1e-3", "--t-end", "0.003", "--out", str(series))
        assert code == 0 and len(read_csv(str(series))) == 4
        code, out, err = run(capsys, "rescale", "--in", str(series),
                             "--base-row", base_row)
        assert code == 2
        assert out == "" and "outside 0..3" in err

    # one row of 11 or 13 fields, or two whose counts add up to two rows of
    # 12: the first wrong row is named
    @pytest.mark.parametrize("widths", [(11,), (13,), (11, 13)], ids=["11", "13", "11-13"])
    def test_row_of_wrong_width_is_config_error(self, capsys, tmp_path, widths):
        series = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--family", "sphere", "--params", "r=2",
                         "--dt", "1e-3", "--t-end", "0.003", "--out", str(series))
        assert code == 0
        lines = series.read_text().splitlines()
        for i, fields in enumerate(widths, 2):
            row = lines[i].split(",")
            lines[i] = ",".join(row[:fields] + ["1.0"] * (fields - len(row)))
        series.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "rescale", "--in", str(series), "--base-row", "0")
        assert code == 2
        assert out == "" and f"error: line 3: {widths[0]} fields, the header has 12" in err

    def test_non_numeric_field_is_config_error(self, capsys, tmp_path):
        series = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--family", "sphere", "--params", "r=2",
                         "--dt", "1e-3", "--t-end", "0.003", "--out", str(series))
        assert code == 0
        lines = series.read_text().splitlines()
        row = lines[3].split(",")
        lines[3] = ",".join(row[:4] + ["H2"] + row[5:])
        series.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="H2"):
            read_csv(str(series))
        code, out, err = run(capsys, "rescale", "--in", str(series), "--base-row", "0")
        assert code == 2
        assert out == "" and "error:" in err and "H2" in err

    def test_stdout_matches_out_file(self, capsys, tmp_path):
        series, rescaled = tmp_path / "series.csv", tmp_path / "rescaled.csv"
        simulate = ["simulate", "--family", "product", "--params", "p=7,q=1,a=1,b=4",
                    "--dt", "1e-4", "--t-end", "0.06", "--every", "7"]
        rescale = ["rescale", "--in", str(series), "--base-row", "5", "--kbar", "-1"]
        for argv, path in ((simulate, series), (rescale, rescaled)):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            code, _, _ = run(capsys, *argv, "--out", str(path))
            assert code == 0
            assert out.encode() == path.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_rescale_reads_a_pipe(self, capsys, tmp_path):
        # simulate's output piped into rescale --in /dev/stdin, a file that
        # cannot seek, writes what rescale of the saved series writes
        simulate = ["simulate", "--family", "product", "--params", "p=7,q=1,a=1,b=4",
                    "--dt", "1e-4", "--t-end", "0.07"]
        series, rescaled, piped = (tmp_path / name for name in ("series.csv",
                                                                "rescaled.csv", "piped.csv"))
        assert run(capsys, *simulate, "--out", str(series))[0] == 0
        assert run(capsys, "rescale", "--in", str(series), "--base-row", "120",
                   "--out", str(rescaled))[0] == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        command = [sys.executable, "-m", "pinchflow.cli"]
        with subprocess.Popen([*command, *simulate], stdout=subprocess.PIPE,
                              env=env) as producer:
            consumer = subprocess.run([*command, "rescale", "--in", "/dev/stdin",
                                       "--base-row", "120", "--out", str(piped)],
                                      stdin=producer.stdout, capture_output=True, env=env,
                                      timeout=120)
            producer.stdout.close()
        assert producer.returncode == 0 and consumer.returncode == 0, consumer.stderr
        assert piped.read_bytes() == rescaled.read_bytes()

    @pytest.mark.parametrize("kbar", ["nan", "inf", "-inf"])
    def test_non_finite_kbar_is_config_error(self, capsys, tmp_path, kbar):
        series = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--family", "sphere", "--params", "r=2",
                         "--dt", "1e-3", "--t-end", "0.003", "--out", str(series))
        assert code == 0
        code, out, err = run(capsys, "rescale", "--in", str(series), "--base-row", "1",
                             f"--kbar={kbar}")
        assert code == 2
        assert out == "" and "error: kbar must be a finite number" in err

    def test_d_option_removed(self, capsys, tmp_path):
        # the rescaled offset is not a CSV column, so --d had no output
        series = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--family", "sphere", "--params", "r=2",
                         "--dt", "1e-3", "--t-end", "0.003", "--out", str(series))
        assert code == 0
        code, out, err = run(capsys, "rescale", "--in", str(series), "--base-row", "1",
                             "--d", "4")
        assert code == 2
        assert out == "" and "unrecognized arguments: --d 4" in err

    def test_header_only_input_is_config_error(self, capsys, tmp_path):
        series = tmp_path / "empty.csv"
        series.write_text(CSV_HEADER + "\n")
        code, out, err = run(capsys, "rescale", "--in", str(series), "--base-row", "0")
        assert code == 2
        assert out == "" and "error: the series has no rows" in err

    def test_missing_file_is_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "rescale", "--in", str(tmp_path / "nope.csv"),
                           "--base-row", "0")
        assert code == 2


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_parser_built_once_and_commands_looked_up_per_call(capsys, monkeypatch):
    builds, build = [], cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for _ in range(3):
        assert run(capsys, "constants", "--n", "8", "--m", "2")[0] == 0
    assert run(capsys, "verify", "--suite", "li", "--trials", "5", "--seed", "1",
               "--n", "3", "--m", "2")[0] == 0
    assert builds == [1]
    # a rebound cmd_* runs, as a tracer that wraps it by name expects
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.suite) or 0)
    assert run(capsys, "verify", "--suite", "kato", "--n", "8", "--m", "3")[0] == 0
    assert calls == ["kato"] and builds == [1]
