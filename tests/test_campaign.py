"""Campaign machinery: determinism, constrained samplers, counterexamples, replay."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import pinchflow.campaign
import pinchflow.lemmas
from pinchflow.campaign import (
    DEFAULT_TOL,
    CheckResult,
    TrialInputs,
    _decode_array,
    _encode_array,
    _needed_kinds,
    _violated,
    evaluate_trial,
    load_counterexample,
    run_campaign,
    sample_trial_inputs,
    write_counterexample,
)
from pinchflow.cli import main
from pinchflow.errors import InvalidSample, NotPinched
from pinchflow.forms import Dims, SecondFundamentalForm, mean_curvature, principal_decompose
from pinchflow.lemmas import LEMMAS, InequalityCheck
from pinchflow.samplers import SamplerSpec, sample_form
from tests.test_lemmas import GRADIENT_IDS, REACTION_IDS


def form_of(spec, trial):
    return sample_form(spec, range(trial, trial + 1))


class TestDeterminism:
    def test_identical_inputs(self):
        spec = SamplerSpec(Dims(5, 3), c=4 / 15, d=0.5, seed=99)
        a = form_of(spec, 7)
        b = form_of(spec, 7)
        assert np.array_equal(a.components, b.components)
        other = form_of(spec, 8)
        assert not np.array_equal(a.components, other.components)

    def test_identical_results(self):
        spec = SamplerSpec(Dims(4, 3), seed=7)
        r1 = run_campaign(spec, ["li"], 500)
        r2 = run_campaign(spec, ["li"], 500)
        assert r1 == r2
        assert r1[0].worst_input_digest == r2[0].worst_input_digest

    def test_lemma_set_does_not_perturb_samples(self):
        # input groups are keyed by kind, so adding lemmas to the set
        # leaves each kind's draw unchanged
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, seed=3)
        only_form = sample_trial_inputs(spec, range(5, 5 + 1), {"form"})
        everything = sample_trial_inputs(spec, range(5, 5 + 1),
                                         {"form", "grad", "w", "matrices"})
        assert np.array_equal(only_form.form.components, everything.form.components)


class TestConstrainedSamplers:
    def test_pinched_always_pinched(self):
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.7, seed=11)
        for trial in range(400):
            A = form_of(spec, trial)
            H = mean_curvature(A)
            assert (1 / 6) * H.norm2 - A.norm2 - 0.7 > 0

    def test_boundary_exact(self):
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=1.0, seed=13)
        A = sample_trial_inputs(spec, range(400), {"form", "boundary"}
                                ).boundary_form
        resid = A.norm2 - (1 / 6) * mean_curvature(A).norm2 + 1.0
        assert np.all(np.abs(resid) <= 1e-12 * np.maximum(1.0, A.norm2))

    def test_point_sample_has_positive_H(self):
        spec = SamplerSpec(Dims(6, 2), c=4 / 18, seed=17)
        dec = principal_decompose(form_of(spec, 0))
        assert dec.H.norm > 0


class TestCampaign:
    def test_empty_lemma_set(self):
        spec = SamplerSpec(Dims(4, 2), seed=1)
        assert run_campaign(spec, [], 100) == []

    def test_mixed_suite_green(self, tmp_path):
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.0, seed=23, delta=1 / 32)
        ids = ["li", "kato.3.1", "kato.3.2", *REACTION_IDS, "boundary", *GRADIENT_IDS]
        results = run_campaign(spec, ids, 200, counterexample_dir=str(tmp_path))
        assert [r.lemma_id for r in results] == ids
        for r in results:
            assert r.violations == 0
            assert r.trials == 200
            assert r.seed == 23
            assert len(r.worst_input_digest) == 16
        assert list(tmp_path.iterdir()) == []

    def test_unknown_lemma_id(self):
        spec = SamplerSpec(Dims(4, 2), seed=1)
        with pytest.raises(ValueError, match="unknown lemma id 'li2'"):
            run_campaign(spec, ["li", "li2"], 3)

    def test_duplicate_lemma_id(self):
        # a repeated id would share one stats entry and count each violation twice
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, seed=1)
        with pytest.raises(ValueError, match="lemma id '4.5' requested twice"):
            run_campaign(spec, ["4.5", "li", "4.5"], 3)

    def test_checks_come_back_in_the_requested_order(self):
        # a shuffled list that mixes every group, evaluated on slices of a
        # chunk: each check is the one its id gives alone
        ids = ["L4.8", "4.12", "kato.3.2", "boundary", "li", "4.20", "4.5",
               "kato.3.1", "L4.9", "4.14", "4.21", "4.6", "L4.6", "4.10", "4.22", "L4.7"]
        assert sorted(ids) == sorted(LEMMAS)
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.3, seed=19, delta=1 / 32)
        chunk = sample_trial_inputs(spec, range(12), _needed_kinds(ids))
        checks = evaluate_trial(ids, chunk, spec)
        # one row per id, in the requested order
        assert checks.lemma_id == ",".join(ids) and checks.lhs.shape == (len(ids), 12)
        for lemma_id, lhs, rhs in zip(ids, checks.lhs, checks.rhs):
            alone = evaluate_trial([lemma_id], chunk, spec)
            assert np.allclose(lhs, alone.lhs[0], rtol=1e-12, atol=0)
            assert np.allclose(rhs, alone.rhs[0], rtol=1e-12, atol=0)

    def test_json_schema_keys(self):
        res = CheckResult("li", 10, 0, 1.0, "ab", 3)
        payload = asdict(res)
        assert {"lemma_id", "trials", "violations", "worst_slack", "seed"} <= set(
            payload
        )


    def test_each_form_is_split_once(self, monkeypatch):
        # the kato, gradient and flat reaction ids share one split of each
        # slice; only the boundary form is split on its own
        points = []
        split = pinchflow.campaign.principal_decompose

        def counted(A):
            points.append(len(A.components))
            return split(A)

        monkeypatch.setattr(pinchflow.campaign, "principal_decompose", counted)
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.0, seed=1, delta=1 / 32)
        results = run_campaign(spec, list(LEMMAS), 320)
        assert all(r.violations == 0 for r in results)
        assert sum(points) == 2 * 320


def always_false(check):
    """``check`` with each lhs replaced by |rhs| + 1: every trial violates."""

    def false(*args):
        out = check(*args)
        if isinstance(out, tuple):  # boundary_reaction_bound's two sides
            return np.abs(out[1]) + 1, out[1]
        checks = [out] if isinstance(out, InequalityCheck) else out
        false_checks = [InequalityCheck(c.lemma_id, np.abs(c.rhs) + 1, c.rhs) for c in checks]
        return false_checks[0] if isinstance(out, InequalityCheck) else false_checks

    return false


@pytest.mark.parametrize("name, ids", [
    ("check_li", ["li"]), ("check_kato", ["kato.3.1"]), ("check_kato_trace", ["kato.3.2"]),
    ("reaction_checks", REACTION_IDS), ("boundary_reaction_bound", ["boundary"]),
    ("gradient_checks", GRADIENT_IDS),
])
def test_groups_call_their_checks_by_module_attribute(name, ids, monkeypatch):
    # a group that bound its check directly would not see the rebinding
    monkeypatch.setattr(pinchflow.lemmas, name, always_false(getattr(pinchflow.lemmas, name)))
    spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.0, seed=3, delta=1 / 32)
    results = run_campaign(spec, ids, 16)
    assert [r.violations for r in results] == [16] * len(ids)


class TestViolationPath:
    def test_counterexample_and_replay(self, tmp_path, monkeypatch):
        # patch in a deliberately false inequality to drive the counterexample
        # machinery end to end
        def bogus_li(matrices):
            # one sum per trial, as check_li gives for a chunk of trials
            stack = np.asarray(matrices)
            total = np.sum(stack**2, axis=(-3, -2, -1))
            return InequalityCheck("li", total, 0.5 * total)

        monkeypatch.setattr(pinchflow.lemmas, "check_li", bogus_li)
        spec = SamplerSpec(Dims(3, 3), seed=5)
        results = run_campaign(
            spec, ["li"], 3, counterexample_dir=str(tmp_path)
        )
        assert results[0].violations == 3
        files = sorted(tmp_path.iterdir())
        assert len(files) == 3
        lemma_id, inputs, loaded = load_counterexample(str(files[0]))
        assert lemma_id == "li" and loaded == spec
        # the witness violates by at least the tolerance, and is its trial as drawn
        chk = bogus_li(inputs.matrices)
        assert chk.slack < -1e-9 * chk.scale
        drawn = sample_trial_inputs(spec, range(0, 0 + 1), {"matrices"})
        assert inputs.matrices.tobytes() == drawn.matrices.tobytes()

    def test_nan_slack_is_a_violation(self, monkeypatch):
        def nan_li(matrices):
            nan = np.full(np.shape(matrices)[:-3], np.nan)
            return InequalityCheck("li", nan, nan)

        monkeypatch.setattr(pinchflow.lemmas, "check_li", nan_li)
        spec = SamplerSpec(Dims(3, 2), seed=5)
        (result,) = run_campaign(spec, ["li"], 5)
        assert result.violations == 5
        # no slack is the worst: null in the report, not Infinity
        assert result.worst_slack is None and result.worst_input_digest == ""

    def test_infinite_worst_slack_is_null(self, monkeypatch):
        def overflowed_li(matrices):
            lhs = np.full(np.shape(matrices)[:-3], np.inf)
            return InequalityCheck("li", lhs, np.zeros_like(lhs))

        monkeypatch.setattr(pinchflow.lemmas, "check_li", overflowed_li)
        spec = SamplerSpec(Dims(3, 2), seed=5)
        (result,) = run_campaign(spec, ["li"], 5)
        assert result.worst_slack is None and result.worst_input_digest
        json.dumps(asdict(result), allow_nan=False)

    def test_infinitely_exceeded_bound_is_a_violation(self):
        # lhs = +inf over a finite rhs: slack -inf and scale inf, whose bound
        # -tol * scale is -inf as well; +inf slack still holds
        chk = InequalityCheck("li", np.array([np.inf, 2.0, 0.0, 1.0]),
                              np.array([0.0, 1.0, np.inf, 1.0]))
        assert _violated(chk, 1e-9).tolist() == [True, True, False, False]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_infinite_li_entry_is_a_violation(self, k, entry, sign):
        # the self commutator forms no [L_a, L_a], where inf - inf is NaN;
        # the slack of an infinite stack must still be NaN or -inf, and flagged
        stack = np.random.default_rng(41).standard_normal((4, k, 5, 5))
        stack[1, k - 1][entry] = sign * np.inf
        with np.errstate(all="ignore"):
            chk = pinchflow.lemmas.check_li(stack)
            flagged = _violated(chk, DEFAULT_TOL)
        assert np.isnan(chk.slack[1]) or chk.slack[1] == -np.inf
        assert flagged.tolist() == [False, True, False, False]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("field, entry", [("form", (3, 3)), ("boundary_form", (3, 3)),
                                              ("boundary_form", (3, 4))])
    def test_a_reaction_chunk_with_infinite_products_is_a_violation(self, sign, field, entry):
        # an infinite entry of a form is refused before its split; entries of
        # 1e200 pass it, and their products reach the commutators as +-inf
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, seed=1)
        chunk = sample_trial_inputs(spec, range(4), {"boundary"})
        comps = getattr(chunk, field).components.copy()
        comps[1, 2][entry] = comps[1, 2][entry[::-1]] = sign * 1e200
        setattr(chunk, field, SecondFundamentalForm.from_components(comps))
        ids = REACTION_IDS + ["boundary"]
        if field == "boundary_form" and entry == (3, 3):
            # |A|^2 and c|H|^2 both overflow, so the distance to the boundary
            # is NaN, and the boundary estimate refuses the chunk
            with pytest.raises(NotPinched, match="not on the pinching boundary"), \
                    np.errstate(all="ignore"):
                evaluate_trial(ids, chunk, spec)
            return
        with np.errstate(all="ignore"):
            chk = evaluate_trial(ids, chunk, spec)
            flagged = _violated(chk, DEFAULT_TOL)
        hit = [(i == "boundary") == (field == "boundary_form") for i in ids]
        slack = chk.slack[hit, 1]
        assert np.all(np.isnan(slack) | (slack == -np.inf))
        assert flagged.tolist() == [[False, h, False, False] for h in hit]

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["form", "boundary_form"])
    def test_an_infinite_form_entry_is_refused_as_not_finite(self, field, value):
        # h and A^- of the split would take inf - inf, whose NaN fails the
        # symmetry check of A^- with a message about the transpose
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, seed=1)
        chunk = sample_trial_inputs(spec, range(4), {"boundary"})
        comps = getattr(chunk, field).components.copy()
        comps[1, 2, 3, 3] = value
        setattr(chunk, field, SecondFundamentalForm.from_components(comps))
        with pytest.raises(InvalidSample, match=rf"form entry \[1, 2, 3, 3\] is not finite: {value}"):
            evaluate_trial(REACTION_IDS + ["boundary"], chunk, spec)

    def test_overflowed_lhs_counts_every_trial(self, monkeypatch):
        def overflowed_li(matrices):
            lhs = np.full(np.shape(matrices)[:-3], np.inf)
            return InequalityCheck("li", lhs, np.zeros_like(lhs))

        monkeypatch.setattr(pinchflow.lemmas, "check_li", overflowed_li)
        spec = SamplerSpec(Dims(3, 2), seed=5)
        (result,) = run_campaign(spec, ["li"], 5)
        assert result.violations == 5

    def test_kept_trials_draw_their_tensors_again(self, tmp_path, monkeypatch):
        # a false kato.3.2 holds on every trial but the one with the largest
        # derivative tensor: its counterexample and worst-trial digest carry
        # the tensor gathered again from the chunk's orbit normals, which must
        # be the one sampled alone
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.3, seed=23)
        ids, trials = ["kato.3.1", "kato.3.2"], 67
        alone = [sample_trial_inputs(spec, range(t, t + 1), _needed_kinds(ids))
                 for t in range(trials)]
        sizes = [np.sum(inputs.grad_tensor**2) for inputs in alone]
        second, first = sorted(sizes)[-2:]
        top = sizes.index(first)

        def false_trace(grad, w):
            size = np.sum(grad.tensor**2, axis=(-4, -3, -2, -1))
            return InequalityCheck("kato.3.2", size, np.full_like(size, (first + second) / 2))

        monkeypatch.setattr(pinchflow.lemmas, "check_kato_trace", false_trace)
        results = run_campaign(spec, ids, trials, counterexample_dir=str(tmp_path))
        assert [r.violations for r in results] == [0, 1]
        assert results[1].worst_input_digest == alone[top].digest()
        (path,) = tmp_path.iterdir()
        assert path.name == f"counterexample_kato_3_2_{top}.json"
        _, inputs, _ = load_counterexample(str(path))
        for name, array in alone[top].arrays():
            assert dict(inputs.arrays())[name].tobytes() == array.tobytes(), name

    def test_kato_counterexamples_replay_as_drawn(self, tmp_path, monkeypatch):
        # a false kato.3.2 (rhs times 0.1): kato's chunks sample no form, and
        # each violating and each worst trial gathers its tensor on its own,
        # which must be the row that trial gets in a chunk that samples tensors
        spec = SamplerSpec(Dims(8, 3), seed=37)
        ids, trials, true = ["kato.3.1", "kato.3.2"], 12, pinchflow.lemmas.check_kato_trace

        def false_trace(grad, w):
            chk = true(grad, w)
            return InequalityCheck(chk.lemma_id, chk.lhs, 0.1 * chk.rhs)

        monkeypatch.setattr(pinchflow.lemmas, "check_kato_trace", false_trace)
        chunk = sample_trial_inputs(spec, range(trials), _needed_kinds(ids))
        judged = evaluate_trial(ids, chunk, spec)
        results = run_campaign(spec, ids, trials, counterexample_dir=str(tmp_path))
        violated = _violated(judged, DEFAULT_TOL)
        assert [r.violations for r in results] == violated.sum(axis=1).tolist()
        assert results[1].violations > 0
        for res, worst in zip(results, np.argmin(judged.slack, axis=1)):
            assert res.worst_input_digest == chunk.trial(int(worst)).digest()
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == results[1].violations
        for path in paths:
            payload = json.loads(path.read_text())
            assert payload["inputs"].keys() == {"dims", "grad_tensor", "w"}
            lemma_id, inputs, loaded = load_counterexample(str(path))
            assert _violated(evaluate_trial([lemma_id], inputs, loaded), DEFAULT_TOL)[0, 0]
            row = chunk.trial(payload["trial"])
            for name, array in row.arrays():
                assert dict(inputs.arrays())[name].tobytes() == array.tobytes(), name

    def test_boundary_counterexample_replays_from_its_file(self, tmp_path, monkeypatch):
        # at d = 0 the boundary estimate is taken at offset 1; the file
        # records d = 0, and the spec it loads as replays the violation
        monkeypatch.setattr(pinchflow.lemmas, "boundary_reaction_bound",
                            always_false(pinchflow.lemmas.boundary_reaction_bound))
        spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.0, seed=3)
        (result,) = run_campaign(spec, ["boundary"], 16, counterexample_dir=str(tmp_path))
        paths = sorted(tmp_path.iterdir())
        assert result.violations == len(paths) == 16
        for path in paths:
            assert float(json.loads(path.read_text())["constants"]["d"]) == 0.0
            lemma_id, inputs, loaded = load_counterexample(str(path))
            assert lemma_id == "boundary" and loaded == spec
            assert _violated(evaluate_trial([lemma_id], inputs, loaded), DEFAULT_TOL)[0, 0]

    def test_replay_roundtrip_exact(self, tmp_path):
        spec = SamplerSpec(Dims(4, 2), c=4 / 12 * 0.9, d=0.2, seed=31, delta=0.1, eta=0.03,
                           eps0=1e-3)
        inputs = sample_trial_inputs(spec, range(0, 0 + 1), {"form", "grad", "w"})
        path = str(tmp_path / "ce.json")
        write_counterexample(path, "kato.3.1", spec, 0, inputs,
                             InequalityCheck("kato.3.1", 1.0, 2.0))
        _, loaded, loaded_spec = load_counterexample(path)
        # every constant and the seed come back
        assert loaded_spec == spec
        assert np.array_equal(loaded.form.components, inputs.form.components)
        assert np.array_equal(loaded.grad_tensor, inputs.grad_tensor)
        assert np.array_equal(loaded.w, inputs.w)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["constants"].keys() == {"c", "d", "delta", "eta", "eps0"}
        sample_entry = payload["inputs"]["form"]["entries"][0]
        assert isinstance(sample_entry, str)
        assert float(sample_entry) == inputs.form.components.ravel()[0]

    def test_encoded_entries_are_17_digit_format(self):
        # one % over a repeated %.17g template writes what format(x, ".17g")
        # writes, for non-finite, signed-zero, subnormal and extreme entries
        edge = np.array([
            np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
            np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308,
            1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17, 2.0**53 + 2,
        ])
        bits = np.random.default_rng(3).integers(0, 2**64, 4096, dtype=np.uint64)
        for a in (edge, edge.reshape(4, 2, 2), bits.view(np.float64), np.zeros((0, 3))):
            encoded = _encode_array(a)
            assert encoded["shape"] == list(a.shape)
            assert encoded["entries"] == [format(float(x), ".17g") for x in a.ravel()]
            decoded = _decode_array(encoded)
            finite = ~np.isnan(a)
            assert np.isnan(decoded[~finite]).all()
            assert decoded[finite].tobytes() == a[finite].tobytes()


# (lemma attribute, suite, n, m, trials, least margin) of the false-bound
# runs of scripts/output_digests.py, each at seed 1 with the rhs times 0.1;
# a least margin is the least (rhs - lhs)/max(|lhs|, |rhs|) of the run's
# witnesses, rounded toward 0: gradient's is trial 3's 4.20, whose rhs a
# tenth only just puts below its lhs (24.25 against 23.36, -0.0367)
FALSE_BOUNDS = [("check_li", "li", 4, 3, 8, -0.1),
                ("gradient_checks", "gradient", 8, 3, 12, -0.036),
                ("check_kato_trace", "kato", 8, 3, 12, -0.1)]


def tenth_of_rhs(evaluate):
    """``evaluate`` with the rhs of each check it returns times 0.1."""

    def false(*args):
        out = evaluate(*args)
        checks = [out] if isinstance(out, InequalityCheck) else out
        false_checks = [InequalityCheck(c.lemma_id, c.lhs, 0.1 * c.rhs) for c in checks]
        return false_checks[0] if isinstance(out, InequalityCheck) else false_checks

    return false


@pytest.mark.parametrize("name, suite, n, m, trials, margin", FALSE_BOUNDS,
                         ids=[suite for _, suite, *_ in FALSE_BOUNDS])
def test_false_bound_witnesses_are_their_trials_as_drawn(name, suite, n, m, trials, margin,
                                                         tmp_path, monkeypatch):
    # each counterexample file holds its trial drawn alone, bit for bit, and
    # the sides of its replay; it is flagged well below its own scale, and
    # it is the worst-trial digest of every id whose worst trial it is
    monkeypatch.setattr(pinchflow.lemmas, name, tenth_of_rhs(getattr(pinchflow.lemmas, name)))
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--n", str(n), "--m", str(m), "--trials",
                 str(trials), "--seed", "1", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    spec = SamplerSpec(Dims(n, m), seed=1, **report["constants"])
    ids = [r["lemma_id"] for r in report["results"]]
    kinds = _needed_kinds(ids)
    # the whole campaign as one chunk of its trials, for each id's worst trial
    chunk = sample_trial_inputs(spec, range(trials), kinds)
    judged = evaluate_trial(ids, chunk, spec)
    worst = np.argmin(np.where(np.isnan(judged.slack), np.inf, judged.slack), axis=1).tolist()
    paths = sorted(tmp_path.glob("counterexample_*.json"))
    assert len(paths) == sum(r["violations"] for r in report["results"]) > 0
    for path in paths:
        payload = json.loads(path.read_text())
        lemma_id, inputs, loaded = load_counterexample(str(path))
        assert loaded == spec, path.name  # the file loads as the spec of its run
        trial = payload["trial"]
        alone = sample_trial_inputs(spec, range(trial, trial + 1), kinds)
        assert dict(inputs.arrays()).keys() == dict(alone.arrays()).keys()
        for key, array in alone.arrays():
            assert dict(inputs.arrays())[key].tobytes() == array.tobytes(), (path.name, key)
        replay = evaluate_trial([lemma_id], inputs, loaded)
        lhs, rhs = replay.lhs[0, 0], replay.rhs[0, 0]
        assert np.float64(payload["lhs"]).tobytes() == lhs.tobytes(), path.name
        assert np.float64(payload["rhs"]).tobytes() == rhs.tobytes(), path.name
        assert _violated(replay, DEFAULT_TOL)[0, 0], path.name
        assert (rhs - lhs) / max(abs(lhs), abs(rhs)) <= margin, path.name
        for result, least in zip(report["results"], worst):
            if least == trial:
                assert result["worst_input_digest"] == inputs.digest(), (path.name, result)


# the 8 counterexample files of verify --suite reaction --n 8 --m 3 --trials
# 1500 --seed 1 --d 1e30 (6 of 4.5, 2 of 4.10), written when forms were an
# umbilic seed plus a rejection-capped perturbation in a random normal frame;
# a 120-digit replay of their stored floats finds each one holds, with
# relative slack +0.65 to +0.90, so the float verdict is rounding at d = 1e30
D1E30 = sorted((Path(__file__).parent / "data" / "d1e30").glob("counterexample_*.json"))


def test_d1e30_counterexamples_are_all_there():
    assert len(D1E30) == 8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the float replay still flags them, "
                   "until an exact referee judges them")
@pytest.mark.parametrize("path", D1E30, ids=lambda path: path.stem)
def test_d1e30_counterexamples_hold_on_replay(path):
    lemma_id, inputs, spec = load_counterexample(str(path))
    assert spec.d == 1e30
    assert not _violated(evaluate_trial([lemma_id], inputs, spec), DEFAULT_TOL)[0, 0]
