"""Chunked campaign evaluation against one trial at a time.

``evaluate_trial`` runs li, the flat reaction estimates and the boundary
estimate once on a stacked chunk of trials, and the kato and gradient
estimates on stacked slices of ``DERIVATIVE_SLICE`` trials.  Every chunked
value must match the per-point evaluator on the trial alone to 1e-12 of the
check's scale, and a chunked campaign must keep the violations and worst
trial of a campaign evaluated one trial at a time.
"""

import itertools
import json

import numpy as np
import pytest

from pinchflow.campaign import (
    CHUNK,
    DEFAULT_TOL,
    DERIVATIVE_SLICE,
    CampaignConfig,
    TrialInputs,
    _needed_kinds,
    evaluate_trial,
    run_campaign,
    sample_trial_inputs,
)
from pinchflow.cli import main
from pinchflow.errors import InvalidSample, NotPinched
from pinchflow.forms import TOL_CODAZZI, Dims, SecondFundamentalForm, gradient_sample
from pinchflow.lemmas import (
    GRADIENT_IDS,
    KATO_IDS,
    REACTION_IDS,
    boundary_check,
    check_kato,
    check_kato_trace,
    check_li,
    default_kato_eta,
    gradient_checks,
    reaction_checks,
)
from pinchflow.samplers import PointSample, SamplerSpec, kato_e_tensor, pure_trace_tensor

REL = 1e-12
CHUNKED_IDS = ("li", *REACTION_IDS, "boundary")
DERIVATIVE_IDS = (*KATO_IDS, *GRADIENT_IDS)
# on the pinching boundary f = 0, so 4.12 and 4.14 do not apply there
BOUNDARY_IDS = ("li", "4.5", "4.6", "4.10", "boundary")

PINCHED = SamplerSpec(Dims(8, 3), "pinched", c=1 / 6, d=0.3, seed=41)
ON_BOUNDARY = SamplerSpec(Dims(8, 3), "boundary", c=1 / 6, d=1.0, seed=43)


def d_boundary(spec):
    return spec.d if spec.d > 0 else 1.0


def one_trial(lemma_id, inputs, config, d_bound):
    """The per-point evaluator of ``lemma_id`` on one trial, no batch axis."""
    if lemma_id == "li":
        return check_li(inputs.matrices)
    if lemma_id == "boundary":
        point = PointSample.from_form(inputs.boundary_form)
        return boundary_check(point, config.c, d_bound)
    point = PointSample.from_form(inputs.form)
    if lemma_id in REACTION_IDS:
        return reaction_checks([lemma_id], point, config.c, config.d, config.delta)[0]
    grad = gradient_sample(point.decomp, point.H, inputs.grad_tensor)
    assert np.ndim(grad.norm2) == 0
    if lemma_id == "kato.3.1":
        eta = config.eta if config.eta is not None else default_kato_eta(inputs.dims.n)
        return check_kato(grad, inputs.w, eta)
    if lemma_id == "kato.3.2":
        return check_kato_trace(grad, inputs.w)
    return gradient_checks(
        [lemma_id], point, grad, config.c, config.d, config.delta, config.eps0
    )[0]


def assert_chunk_matches_trials(ids, batch, config, d_bound):
    checks = evaluate_trial(ids, TrialInputs.stack(batch), config, d_bound)
    assert [chk.lemma_id for chk in checks] == list(ids)
    for chk in checks:
        assert np.shape(chk.lhs) == np.shape(chk.rhs) == (len(batch),)
        for i, inputs in enumerate(batch):
            alone = one_trial(chk.lemma_id, inputs, config, d_bound)
            bound = REL * alone.scale
            assert abs(chk.lhs[i] - alone.lhs) <= bound, (chk.lemma_id, i)
            assert abs(chk.rhs[i] - alone.rhs) <= bound, (chk.lemma_id, i)
            assert abs(chk.slack[i] - alone.slack) <= bound, (chk.lemma_id, i)
    return checks


def one_at_a_time_campaign(spec, ids, trials, config):
    """(violations, worst slack, worst digest) per id, trial by trial."""
    kinds = _needed_kinds(ids)
    out = {lemma_id: [0, np.inf, ""] for lemma_id in ids}
    for trial in range(trials):
        inputs = sample_trial_inputs(spec, trial, kinds)
        for lemma_id in ids:
            chk = one_trial(lemma_id, inputs, config, d_boundary(spec))
            entry = out[lemma_id]
            entry[0] += not chk.slack >= -DEFAULT_TOL * chk.scale
            if chk.slack < entry[1]:
                entry[1], entry[2] = chk.slack, inputs.digest()
    return out


def config_of(spec, ids=()):
    # the case-1 estimate L4.9 needs delta <= 1/(5n - 8)
    delta = 1 / (5 * spec.dims.n - 8) if "L4.9" in ids else 0.5
    return CampaignConfig(c=spec.c, d=spec.d, delta=delta)


SUITES = [(PINCHED, CHUNKED_IDS), (ON_BOUNDARY, BOUNDARY_IDS), (PINCHED, DERIVATIVE_IDS)]
# 9 trials leave a partial slice of the derivative estimates
TRIALS = [1, CHUNK + 3, DERIVATIVE_SLICE + 1]


@pytest.mark.parametrize("spec, ids", SUITES)
@pytest.mark.parametrize("trials", TRIALS)
def test_chunk_matches_one_trial_at_a_time(spec, ids, trials):
    kinds = _needed_kinds(ids)
    batch = [sample_trial_inputs(spec, trial, kinds) for trial in range(trials)]
    assert_chunk_matches_trials(ids, batch, config_of(spec, ids), d_boundary(spec))


@pytest.mark.parametrize("spec, ids", SUITES)
@pytest.mark.parametrize("trials", TRIALS)
def test_campaign_keeps_verdicts_and_worst_trial(spec, ids, trials):
    config = config_of(spec, ids)
    expected = one_at_a_time_campaign(spec, ids, trials, config)
    for res in run_campaign(spec, ids, trials, config=config):
        violations, worst, digest = expected[res.lemma_id]
        assert res.violations == violations == 0
        assert res.worst_input_digest == digest
        assert abs(res.worst_slack - worst) <= REL * max(1.0, abs(worst))


def test_li_equality_pair_in_a_chunk():
    # the Li-Li equality case: two 2x2 blocks proportional to the Pauli
    # matrices [[0,1],[1,0]] and [[1,0],[0,-1]] give lhs = rhs exactly
    dims = Dims(4, 3)
    spec = SamplerSpec(dims, "gaussian", seed=47)
    batch = [sample_trial_inputs(spec, trial, {"matrices"}) for trial in range(CHUNK + 3)]
    for i, lam in ((0, 1.0), (7, 0.3), (CHUNK + 1, 2.5)):
        b1, b2 = np.zeros((4, 4)), np.zeros((4, 4))
        b1[0, 1] = b1[1, 0] = lam
        b2[0, 0], b2[1, 1] = lam, -lam
        batch[i] = TrialInputs(dims, matrices=[b1, b2])
    (chk,) = assert_chunk_matches_trials(["li"], batch, CampaignConfig(), 1.0)
    for i in (0, 7, CHUNK + 1):
        assert chk.lhs[i] > 0
        assert abs(chk.slack[i]) <= REL * chk.scale[i]


def test_tight_reaction_inputs_in_a_chunk():
    # umbilic and codimension-one forms have A^- = 0, so 4.5 and 4.6 hold
    # with equality (both sides 0) and must stay at zero slack in a chunk
    dims = Dims(8, 3)
    rng = np.random.default_rng(53)
    nu = rng.standard_normal(3)
    nu /= np.linalg.norm(nu)
    umbilic = 0.7 * np.eye(8)[None] * nu[:, None, None]
    codim_one = np.zeros((3, 8, 8))
    codim_one[0] = np.diag(1.0 + 0.1 * rng.standard_normal(8))
    tight = [umbilic, codim_one]
    batch = [sample_trial_inputs(PINCHED, trial, {"form"}) for trial in range(CHUNK + 3)]
    slots = (3, CHUNK + 2)
    for i, comps in zip(slots, tight):
        batch[i] = TrialInputs(dims, form=SecondFundamentalForm(dims, comps))
    checks = assert_chunk_matches_trials(REACTION_IDS, batch, config_of(PINCHED), 1.0)
    for chk in checks[:2]:  # 4.5 and 4.6
        for i in slots:
            assert abs(chk.slack[i]) <= REL * chk.scale[i]


@pytest.mark.parametrize("lemma_id", ["4.12", "4.14"])
def test_gaussian_forms_still_not_pinched(lemma_id):
    spec = SamplerSpec(Dims(8, 3), "gaussian", c=1 / 6, seed=59)
    with pytest.raises(NotPinched):
        run_campaign(spec, [lemma_id], CHUNK + 3)


def test_derivative_equality_cases_in_a_chunk():
    # the pure-trace tensor attains 4.20 and 4.21 with equality, and the kato
    # E tensor |dA|^2 = 3/(n+2) |dH|^2, each trial on its own inside a chunk
    # of random tensors
    n, m = PINCHED.dims.n, PINCHED.dims.m
    batch = [
        sample_trial_inputs(PINCHED, trial, _needed_kinds(DERIVATIVE_IDS))
        for trial in range(CHUNK + 3)
    ]
    rng = np.random.default_rng(61)
    trace_slots, e_slots = (0, DERIVATIVE_SLICE + 1, CHUNK + 2), (3, CHUNK)
    for i in trace_slots:
        dec = PointSample.from_form(batch[i].form).decomp
        v = rng.standard_normal((m, n))
        v -= np.outer(dec.nu1, dec.nu1 @ v)  # |H| d nu1 must be normal to nu1
        batch[i].grad_tensor = pure_trace_tensor(dec.dims, dec.nu1, rng.standard_normal(n), v)
    for i in e_slots:
        batch[i].grad_tensor = kato_e_tensor(PINCHED.dims, rng.standard_normal((m, n)))
    config = config_of(PINCHED, DERIVATIVE_IDS)
    checks = assert_chunk_matches_trials(["4.20", "4.21"], batch, config, 1.0)
    for chk in checks:
        for i in trace_slots:
            assert chk.lhs[i] > 0
            assert chk.lhs[i] == pytest.approx(chk.rhs[i], rel=1e-10), (chk.lemma_id, i)
    chunk = TrialInputs.stack(batch)
    point = PointSample.from_form(chunk.form)
    grad = gradient_sample(point.decomp, point.H, chunk.grad_tensor)
    minimal = 3.0 / (n + 2) * grad.nabla_H_norm2
    for i in range(CHUNK + 3):
        if i in trace_slots + e_slots:
            assert grad.norm2[i] == pytest.approx(minimal[i], rel=1e-10), i
        else:
            assert grad.norm2[i] > 1.1 * minimal[i], i


def test_codazzi_bound_is_per_trial():
    # asymmetry 2e-9 at max|T| = 0.1 breaks its own bound TOL_CODAZZI * 1;
    # a bound taken from the chunk's max|T| = 10 would be 1e-8 and pass it
    ids = DERIVATIVE_IDS
    batch = [sample_trial_inputs(PINCHED, trial, _needed_kinds(ids)) for trial in range(2)]
    for inputs, top in zip(batch, (0.1, 10.0)):
        inputs.grad_tensor = top * inputs.grad_tensor / np.max(np.abs(inputs.grad_tensor))
    batch[0].grad_tensor[0, 0, 1, 2] += 2e-9
    chunk = TrialInputs.stack(batch)
    point = PointSample.from_form(chunk.form)
    grad = gradient_sample(point.decomp, point.H, chunk.grad_tensor)
    assert grad.codazzi_defect[0] == pytest.approx(2e-9, rel=1e-6)
    assert grad.codazzi_defect[1] <= TOL_CODAZZI
    assert np.max(grad.codazzi_defect) <= TOL_CODAZZI * np.max(np.abs(chunk.grad_tensor))
    config = config_of(PINCHED, ids)
    with pytest.raises(InvalidSample):
        check_kato(grad, chunk.w, default_kato_eta(8))
    with pytest.raises(InvalidSample):
        check_kato_trace(grad, chunk.w)
    with pytest.raises(InvalidSample):
        gradient_checks(GRADIENT_IDS, point, grad, config.c, config.d, config.delta)
    for lemma_id in ids:
        with pytest.raises(InvalidSample):
            evaluate_trial([lemma_id], chunk, config, 1.0)
    evaluate_trial(ids, TrialInputs.stack(batch[1:]), config, 1.0)


def test_asymmetry_matches_a_loop_over_permutations():
    batch = [sample_trial_inputs(PINCHED, trial, {"form"}) for trial in range(9)]
    point = PointSample.from_form(TrialInputs.stack(batch).form)
    rng = np.random.default_rng(71)
    tensors = rng.standard_normal((9, 3, 8, 8, 8)) * rng.uniform(0.01, 10.0, (9, 1, 1, 1, 1))
    grad = gradient_sample(point.decomp, point.H, tensors)
    for i, tensor in enumerate(tensors):
        loop = max(
            float(np.max(np.abs(tensor - tensor.transpose(0, *perm))))
            for perm in itertools.permutations((1, 2, 3))
        )
        alone = PointSample.from_form(batch[i].form)
        assert grad.codazzi_defect[i] == loop
        assert gradient_sample(alone.decomp, alone.H, tensor).asymmetry() == loop


# verify --suite S --n 8 --m 3 --trials 300 --seed 1, recorded when kato and
# gradient were evaluated one trial at a time:
# (lemma id, violations, worst_input_digest, worst_slack)
PINNED = {
    "kato": [
        ("kato.3.1", 0, "b16926351d0f38f2", 272.96236901406616),
        ("kato.3.2", 0, "b16926351d0f38f2", 160.56609942003894),
    ],
    "gradient": [
        ("4.20", 0, "682f156f1a614a9d", 165.07348247764918),
        ("4.21", 0, "e64c2a09a6c738da", 74.01350743637701),
        ("4.22", 0, "682f156f1a614a9d", 165.07348247764918),
        ("L4.6", 0, "682f156f1a614a9d", 341.8795777316061),
        ("L4.7", 0, "166e61492bf23be6", 0.0011099929752303485),
        ("L4.8", 0, "2daf11b99411d461", 3.4175335935098583),
        ("L4.9", 0, "bdc0eaffbcfcec63", 372.41598982242846),
    ],
}


@pytest.mark.parametrize("suite", sorted(PINNED))
def test_verify_keeps_one_trial_at_a_time_results(suite, tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", suite, "--n", "8", "--m", "3", "--trials", "300",
            "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    results = json.loads(out.read_text())["results"]
    got = [(r["lemma_id"], r["violations"], r["worst_input_digest"]) for r in results]
    assert got == [pin[:3] for pin in PINNED[suite]]
    for res, pin in zip(results, PINNED[suite]):
        assert abs(res["worst_slack"] - pin[3]) <= 1e-14 * abs(pin[3]), res["lemma_id"]


@pytest.mark.parametrize("lemma_id", ["4.12", "L4.7"])
def test_one_unpinched_trial_stops_the_chunk(lemma_id):
    ids = [lemma_id]
    batch = [sample_trial_inputs(PINCHED, trial, _needed_kinds(ids)) for trial in range(12)]
    gaussian = SamplerSpec(PINCHED.dims, "gaussian", seed=67)
    batch[DERIVATIVE_SLICE + 2].form = sample_trial_inputs(gaussian, 0, {"form"}).form
    with pytest.raises(NotPinched):
        evaluate_trial(ids, TrialInputs.stack(batch), config_of(PINCHED, DERIVATIVE_IDS), 1.0)
    del batch[DERIVATIVE_SLICE + 2]
    evaluate_trial(ids, TrialInputs.stack(batch), config_of(PINCHED, DERIVATIVE_IDS), 1.0)
