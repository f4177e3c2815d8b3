"""Chunked campaign evaluation against one trial at a time.

``evaluate_trial`` runs li, the flat reaction estimates and the boundary
estimate once on a stacked chunk of trials.  Every chunked value must match
the per-point evaluator on the trial alone to 1e-12 of the check's scale, and
a chunked campaign must keep the violations and worst trial of a campaign
evaluated one trial at a time.
"""

import numpy as np
import pytest

from pinchflow.campaign import (
    CHUNK,
    DEFAULT_TOL,
    CampaignConfig,
    TrialInputs,
    _needed_kinds,
    evaluate_trial,
    run_campaign,
    sample_trial_inputs,
)
from pinchflow.errors import NotPinched
from pinchflow.forms import Dims, SecondFundamentalForm
from pinchflow.lemmas import REACTION_IDS, boundary_check, check_li, reaction_checks
from pinchflow.samplers import PointSample, SamplerSpec

REL = 1e-12
CHUNKED_IDS = ("li", *REACTION_IDS, "boundary")
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
    return reaction_checks([lemma_id], point, config.c, config.d, config.delta)[0]


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


def config_of(spec):
    return CampaignConfig(c=spec.c, d=spec.d)


@pytest.mark.parametrize("spec, ids", [(PINCHED, CHUNKED_IDS), (ON_BOUNDARY, BOUNDARY_IDS)])
@pytest.mark.parametrize("trials", [1, CHUNK + 3])
def test_chunk_matches_one_trial_at_a_time(spec, ids, trials):
    kinds = _needed_kinds(ids)
    batch = [sample_trial_inputs(spec, trial, kinds) for trial in range(trials)]
    assert_chunk_matches_trials(ids, batch, config_of(spec), d_boundary(spec))


@pytest.mark.parametrize("spec, ids", [(PINCHED, CHUNKED_IDS), (ON_BOUNDARY, BOUNDARY_IDS)])
@pytest.mark.parametrize("trials", [1, CHUNK + 3])
def test_campaign_keeps_verdicts_and_worst_trial(spec, ids, trials):
    config = config_of(spec)
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
