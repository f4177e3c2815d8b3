"""Chunked campaign evaluation against one trial at a time.

``evaluate_trial`` runs li, the flat reaction estimates and the boundary
estimate once on a stacked chunk of trials, and the kato and gradient
estimates on stacked slices of ``derivative_slice`` trials.  A campaign's
chunk (``chunk_size``) and slice are the largest powers of two whose widest
per-trial stack stays within ``STACK_BUDGET`` float64 values (the
commutator stacks keep within it on their own); at n=8, m=3 they are
``CHUNK`` = 32 and 8 trials when an id reads a derivative tensor, the flat
reaction estimates run 64 trials a chunk and li alone 128.  Every
chunked value must match the per-point evaluator on the trial alone to
1e-12 of the check's scale, and a chunked campaign, which draws each chunk
from the groups of its trials and gathers the derivative tensors of each
slice, and of each trial it keeps, from the chunk's orbit normals, must keep
the inputs, violations and worst trial of a campaign sampled and evaluated
one trial at a time.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

import pinchflow.campaign as campaign
from pinchflow.campaign import (
    BLOCK,
    CHUNK,
    DEFAULT_TOL,
    STACK_BUDGET,
    TrialInputs,
    _needed_kinds,
    chunk_size,
    derivative_slice,
    evaluate_trial,
    run_campaign,
    sample_trial_inputs,
)
from pinchflow.cli import main
from pinchflow.errors import InvalidSample, NotPinched
from pinchflow.forms import (
    TOL_CODAZZI,
    Dims,
    SecondFundamentalForm,
    gradient_sample,
    principal_decompose,
    symmetrize,
)
from pinchflow.lemmas import (
    InequalityCheck,
    check_kato,
    check_kato_trace,
    check_li,
    default_kato_eta,
    gradient_checks,
    reaction_checks,
)
from pinchflow.reaction import boundary_reaction_bound
from pinchflow.samplers import (
    SamplerSpec,
    Trials,
    kato_e_tensor,
    orbit_normals,
    symmetric_gaussian,
    symmetric_three_tensor,
)
from tests.test_lemmas import GRADIENT_IDS, REACTION_IDS, group_ids

KATO_IDS = group_ids("kato.3.1")
REL = 1e-12
CHUNKED_IDS = ("li", *REACTION_IDS, "boundary")
DERIVATIVE_IDS = (*KATO_IDS, *GRADIENT_IDS)
# on the pinching boundary f = 0, so 4.12 and 4.14 do not apply there
BOUNDARY_IDS = ("li", "4.5", "4.6", "4.10", "boundary")

PINCHED = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.3, seed=41)
# its chunks take their forms on the boundary (test_chunk_matches_one_trial_at_a_time)
ON_BOUNDARY = SamplerSpec(Dims(8, 3), c=1 / 6, d=1.0, seed=43)
# the trials of a derivative slice at n=8, m=3
DERIVATIVE_SLICE = derivative_slice(PINCHED.dims, DERIVATIVE_IDS)


def d_boundary(d):
    """The boundary offset, by its own rule: d, or 1 when d <= 0."""
    return d if d > 0 else 1.0


def sample_chunk(spec, trials, kinds):
    """The inputs of a sequence of trials, sampled as one chunk."""
    return sample_trial_inputs(spec, trials, kinds)


def point(inputs):
    """The inputs of a chunk of one trial, without the leading axis."""
    return TrialInputs.of_arrays(inputs.dims, ((name, a) for name, (a,) in inputs.arrays()))


def one_trial(lemma_id, inputs, spec):
    """The per-point evaluator of ``lemma_id`` on a chunk of one trial, run
    without the batch axis."""
    inputs = point(inputs)
    if lemma_id == "li":
        return check_li(inputs.matrices)
    if lemma_id == "boundary":
        dec = principal_decompose(inputs.boundary_form)
        return InequalityCheck("boundary", *boundary_reaction_bound(dec, spec.c, d_boundary(spec.d)))
    # a kato trial alone draws no form, and its sample takes no split
    dec = None if inputs.form is None else principal_decompose(inputs.form)
    if lemma_id in REACTION_IDS:
        return reaction_checks([lemma_id], dec, spec.c, spec.d, spec.delta)[0]
    grad = gradient_sample(dec, inputs.grad_tensor)
    assert np.ndim(grad.norm2) == 0
    if lemma_id == "kato.3.1":
        eta = spec.eta if spec.eta is not None else default_kato_eta(inputs.dims.n)
        return check_kato(grad, inputs.w, eta)
    if lemma_id == "kato.3.2":
        return check_kato_trace(grad, inputs.w)
    return gradient_checks(
        [lemma_id], grad, spec.c, spec.d, spec.delta, spec.eps0
    )[0]


def chunk_of(batch):
    """The chunk of the given chunks, stacked along one leading trial axis."""
    return TrialInputs.of_arrays(batch[0].dims, stacked(batch).items())


def per_id(check, ids):
    """The rows of an (ids, trials) check, one check per id."""
    return [InequalityCheck(lemma_id, lhs, rhs)
            for lemma_id, lhs, rhs in zip(ids, check.lhs, check.rhs)]


def assert_chunk_matches_trials(ids, batch, spec):
    judged = evaluate_trial(ids, chunk_of(batch), spec)
    assert judged.lhs.shape == judged.rhs.shape == (len(ids), len(batch))
    checks = per_id(judged, ids)
    assert [chk.lemma_id for chk in checks] == list(ids)
    for chk in checks:
        assert np.shape(chk.lhs) == np.shape(chk.rhs) == (len(batch),)
        for i, inputs in enumerate(batch):
            alone = one_trial(chk.lemma_id, inputs, spec)
            bound = REL * alone.scale
            assert abs(chk.lhs[i] - alone.lhs) <= bound, (chk.lemma_id, i)
            assert abs(chk.rhs[i] - alone.rhs) <= bound, (chk.lemma_id, i)
            assert abs(chk.slack[i] - alone.slack) <= bound, (chk.lemma_id, i)
    return checks


def stacked(batches):
    """Every input array of the given trials or chunks, stacked along one
    leading trial axis."""
    fields = [dict(batch.arrays()) for batch in batches]
    return {name: np.concatenate([f[name] for f in fields]) for name in fields[0]}


def one_at_a_time_campaign(spec, ids, trials):
    """(violations, worst slack, worst digest) per id, trial by trial, and
    the stacked inputs of all trials."""
    kinds = _needed_kinds(ids)
    out = {lemma_id: [0, np.inf, ""] for lemma_id in ids}
    sampled = []
    for trial in range(trials):
        inputs = sample_chunk(spec, range(trial, trial + 1), kinds)
        sampled.append(inputs)
        for lemma_id in ids:
            chk = one_trial(lemma_id, inputs, spec)
            entry = out[lemma_id]
            entry[0] += not chk.slack >= -DEFAULT_TOL * chk.scale
            if chk.slack < entry[1]:
                entry[1], entry[2] = chk.slack, inputs.digest()
    return out, stacked(sampled)


def spec_of(spec, ids=()):
    # the case-1 estimate L4.9 needs delta <= 1/(5n - 8)
    return replace(spec, delta=1 / (5 * spec.dims.n - 8) if "L4.9" in ids else 0.5)


SUITES = [(PINCHED, CHUNKED_IDS), (ON_BOUNDARY, BOUNDARY_IDS), (PINCHED, DERIVATIVE_IDS)]
# 9 trials leave a partial slice of the derivative estimates
TRIALS = [1, CHUNK + 3, DERIVATIVE_SLICE + 1]


@pytest.mark.parametrize("spec, ids", SUITES)
@pytest.mark.parametrize("trials", TRIALS)
def test_chunk_matches_one_trial_at_a_time(spec, ids, trials):
    kinds = _needed_kinds(ids)
    batch = [sample_chunk(spec, range(trial, trial + 1), kinds) for trial in range(trials)]
    if spec is ON_BOUNDARY:
        for inputs in batch:
            inputs.form = inputs.boundary_form
    assert_chunk_matches_trials(ids, batch, spec_of(spec, ids))


def campaign_chunks(spec, ids, trials, monkeypatch, rel=REL):
    """The chunks a campaign samples and the trials of each derivative
    tensor gather, after checking that it keeps the inputs, verdicts and
    worst trial of one trial at a time, and the worst slack to ``rel`` of
    its scale."""
    spec = spec_of(spec, ids)
    expected, inputs = one_at_a_time_campaign(spec, ids, trials)
    chunks, gathers, gathered = [], [], set()
    sample, gather = campaign.sample_trial_inputs, campaign.symmetric_three_tensor
    # the trial of each tensor drawn alone, to name the trials of a gather
    trial_of = {bits(t): trial for trial, t in enumerate(inputs.get("grad_tensor", []))}

    def recorded(spec, trials, kinds):
        chunks.append(sample(spec, trials, kinds))
        return chunks[-1]

    def recorded_gather(z, dims):
        out = gather(z, dims)
        gathers.append(len(out))
        # a slice's, or a kept trial's, tensors are the ones drawn alone, bit for bit
        gathered.update(trial_of[bits(tensor)] for tensor in out)
        return out

    monkeypatch.setattr(campaign, "sample_trial_inputs", recorded)
    monkeypatch.setattr(campaign, "symmetric_three_tensor", recorded_gather)
    for res in run_campaign(spec, ids, trials):
        violations, worst, digest = expected[res.lemma_id]
        assert res.violations == violations == 0
        assert res.worst_input_digest == digest
        assert abs(res.worst_slack - worst) <= rel * max(1.0, abs(worst))
    got = stacked(chunks)
    assert "grad_tensor" not in got  # gathered by the slices that read them
    assert sorted(gathered) == (list(range(trials)) if "grad_tensor" in inputs else [])
    # the chunks hold every input but the tensors
    assert got.keys() == inputs.keys() - {"grad_tensor"}
    for name, array in got.items():
        assert np.array_equal(array, inputs[name]), name
    return chunks, gathers


# A campaign draws pinched forms only, never boundary ones, so the
# ON_BOUNDARY row is left out: a boundary form is a radial rescaling of a
# pinched one, and li, 4.5, 4.6 and 4.10 are homogeneous of degree 4 (the
# LEMMAS degree column, checked by test_invariance).  The rows keep their
# SUITES ids.
CAMPAIGN_SUITES = [pytest.param(*row, id=f"spec{i}-ids{i}")
                   for i, row in enumerate(SUITES) if row[0] is not ON_BOUNDARY]


@pytest.mark.parametrize("spec, ids", CAMPAIGN_SUITES)
# BLOCK + 9 trials take a second chunk of 9 trials, whose last group is partial
@pytest.mark.parametrize("trials", [*TRIALS, BLOCK + 9])
def test_campaign_keeps_verdicts_and_worst_trial(spec, ids, trials, monkeypatch):
    chunks, _ = campaign_chunks(spec, ids, trials, monkeypatch)
    assert len(chunks) == -(-trials // chunk_size(spec.dims, ids))


# at n=5, m=2 the derivative slice of kato is its whole chunk of 64 trials
SLICED = [(PINCHED, KATO_IDS), (PINCHED, GRADIENT_IDS), (PINCHED, CHUNKED_IDS + DERIVATIVE_IDS),
          (SamplerSpec(Dims(5, 2), c=4 / 15, d=0.3, seed=83), KATO_IDS)]


@pytest.mark.parametrize("spec, ids", SLICED)
def test_campaign_draws_no_more_than_a_slice_of_tensors_at_once(spec, ids, monkeypatch):
    piece, chunk = derivative_slice(spec.dims, ids), chunk_size(spec.dims, ids)
    trials = 2 * chunk + 3
    _, sizes = campaign_chunks(spec, ids, trials, monkeypatch)
    assert max(sizes) == piece == (64 if spec.dims.n == 5 else 8)
    # each slice once, in order (the last chunk is one slice of 3 trials);
    # a worst trial kept gathers its tensor on its own
    assert [k for k in sizes if k > 1] == [piece] * (2 * chunk // piece) + [3]
    assert 1 in sizes


ALL_IDS = (*CHUNKED_IDS, *DERIVATIVE_IDS)
RULE_IDS = [("li",), REACTION_IDS, KATO_IDS, GRADIENT_IDS, ALL_IDS]


@pytest.mark.parametrize("ids", RULE_IDS)
def test_chunk_and_slice_at_n8_m3(ids):
    # li alone holds its 2 (8, 8) matrices, 128 values a trial, the reaction
    # estimates the split draw's row of 193 normals and 3 uniforms, and every list
    # that reads a derivative tensor its 1536 values
    expected = 128 if ids == ("li",) else 64 if ids == REACTION_IDS else CHUNK
    assert chunk_size(Dims(8, 3), ids) == expected and CHUNK == 32
    assert derivative_slice(Dims(8, 3), ids) == 8


def is_power_of_two(k):
    return k > 0 and k & (k - 1) == 0


@pytest.mark.parametrize("ids", RULE_IDS)
def test_chunk_and_slice_keep_the_budget(ids):
    for n, m in itertools.product(range(2, 17), range(1, 17)):
        dims = Dims(n, m)
        derivative = m * n**3
        # li holds max(1, m - 1) matrices, an id that reads a derivative
        # tensor stacks it, and every other id the split draw's row of
        # m n^2 + 1 normals and 3 uniforms, which is wider than its (m, n, n) form
        widths = {"li": max(1, m - 1) * n**2, **dict.fromkeys(DERIVATIVE_IDS, derivative)}
        width = max(widths.get(lemma_id, m * n**2 + 4) for lemma_id in ids)
        chunk, piece = chunk_size(dims, ids), derivative_slice(dims, ids)
        assert is_power_of_two(chunk) and BLOCK % chunk == 0 and chunk >= CHUNK, dims
        assert chunk * width <= STACK_BUDGET or chunk == CHUNK, dims
        assert 2 * chunk * width > STACK_BUDGET or chunk == BLOCK, dims
        assert is_power_of_two(piece) and 8 <= piece <= chunk, dims
        assert piece * derivative <= STACK_BUDGET or piece == 8, dims
        assert 2 * piece * derivative > STACK_BUDGET or piece == chunk, dims


GROWN = [
    (SamplerSpec(Dims(2, 2), seed=73), ("li",), 1024),
    (SamplerSpec(Dims(5, 2), c=4 / 15, d=0.3, seed=79),
     (*REACTION_IDS, "boundary"), 256),
    (SamplerSpec(Dims(4, 3), seed=89), ("li",), 512),
    (SamplerSpec(Dims(8, 3), seed=97), ("li",), 128),
]


@pytest.mark.parametrize("spec, ids, chunk", GROWN)
def test_grown_chunks_keep_verdicts_and_worst_trial(spec, ids, chunk, monkeypatch):
    assert chunk_size(spec.dims, ids) == chunk
    trials = BLOCK + 9
    # a grown chunk keeps the worst slack of one trial at a time bit for bit
    chunks, _ = campaign_chunks(spec, ids, trials, monkeypatch, rel=0.0)
    assert len(chunks) == BLOCK // chunk + 1
    assert [len(next(b.arrays())[1]) for b in chunks] == [chunk] * (BLOCK // chunk) + [9]


def test_li_equality_pair_in_a_chunk():
    # the Li-Li equality case: two 2x2 blocks proportional to the Pauli
    # matrices [[0,1],[1,0]] and [[1,0],[0,-1]] give lhs = rhs exactly
    dims = Dims(4, 3)
    spec = SamplerSpec(dims, seed=47)
    batch = [sample_chunk(spec, range(trial, trial + 1), {"matrices"}) for trial in range(CHUNK + 3)]
    for i, lam in ((0, 1.0), (7, 0.3), (CHUNK + 1, 2.5)):
        b1, b2 = np.zeros((4, 4)), np.zeros((4, 4))
        b1[0, 1] = b1[1, 0] = lam
        b2[0, 0], b2[1, 1] = lam, -lam
        batch[i] = TrialInputs(dims, matrices=np.array([[b1, b2]]))
    (chk,) = assert_chunk_matches_trials(["li"], batch, spec)
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
    batch = [sample_chunk(PINCHED, range(trial, trial + 1), {"form"}) for trial in range(CHUNK + 3)]
    slots = (3, CHUNK + 2)
    for i, comps in zip(slots, tight):
        batch[i] = TrialInputs(dims, form=SecondFundamentalForm(dims, comps[None]))
    checks = assert_chunk_matches_trials(REACTION_IDS, batch, spec_of(PINCHED))
    for chk in checks[:2]:  # 4.5 and 4.6
        for i in slots:
            assert abs(chk.slack[i]) <= REL * chk.scale[i]


@pytest.mark.parametrize("lemma_id", ["4.12", "4.14"])
def test_gaussian_forms_still_not_pinched(lemma_id):
    dims = Dims(8, 3)
    form = symmetric_gaussian(Trials(59, range(CHUNK + 3)), dims)
    with pytest.raises(NotPinched):
        evaluate_trial([lemma_id], TrialInputs(dims, form=form), SamplerSpec(dims, c=1 / 6))


def test_derivative_equality_cases_in_a_chunk():
    # the pure-trace tensor attains 4.20 and 4.21 with equality, and the kato
    # E tensor |dA|^2 = 3/(n+2) |dH|^2, each trial on its own inside a chunk
    # of random tensors
    n, m = PINCHED.dims.n, PINCHED.dims.m
    batch = [
        sample_chunk(PINCHED, range(trial, trial + 1), _needed_kinds(DERIVATIVE_IDS))
        for trial in range(CHUNK + 3)
    ]
    rng = np.random.default_rng(61)
    trace_slots, e_slots = (0, DERIVATIVE_SLICE + 1, CHUNK + 2), (3, CHUNK)
    for i in trace_slots:
        dec = principal_decompose(point(batch[i]).form)
        v = rng.standard_normal((m, n))
        v -= np.outer(dec.nu1, dec.nu1 @ v)  # |H| d nu1 must be normal to nu1
        dH = np.outer(dec.nu1, rng.standard_normal(n)) + v  # the pure-trace tensor's dH
        batch[i].grad_tensor = kato_e_tensor(dec.dims, dH)[None]
    for i in e_slots:
        batch[i].grad_tensor = kato_e_tensor(PINCHED.dims, rng.standard_normal((m, n)))[None]
    checks = assert_chunk_matches_trials(["4.20", "4.21"], batch, spec_of(PINCHED, DERIVATIVE_IDS))
    for chk in checks:
        for i in trace_slots:
            assert chk.lhs[i] > 0
            assert chk.lhs[i] == pytest.approx(chk.rhs[i], rel=1e-10), (chk.lemma_id, i)
    chunk = chunk_of(batch)
    grad = gradient_sample(principal_decompose(chunk.form), chunk.grad_tensor)
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
    batch = [sample_chunk(PINCHED, range(trial, trial + 1), _needed_kinds(ids)) for trial in range(2)]
    for inputs, top in zip(batch, (0.1, 10.0)):
        inputs.grad_tensor = top * inputs.grad_tensor / np.max(np.abs(inputs.grad_tensor))
    batch[0].grad_tensor[0, 0, 0, 1, 2] += 2e-9
    chunk = chunk_of(batch)
    grad = gradient_sample(principal_decompose(chunk.form), chunk.grad_tensor)
    assert grad.codazzi_defect[0] == pytest.approx(2e-9, rel=1e-6)
    assert grad.codazzi_defect[1] <= TOL_CODAZZI
    assert np.max(grad.codazzi_defect) <= TOL_CODAZZI * np.max(np.abs(chunk.grad_tensor))
    spec = spec_of(PINCHED, ids)
    with pytest.raises(InvalidSample):
        check_kato(grad, chunk.w, default_kato_eta(8))
    with pytest.raises(InvalidSample):
        check_kato_trace(grad, chunk.w)
    with pytest.raises(InvalidSample):
        gradient_checks(GRADIENT_IDS, grad, spec.c, spec.d, spec.delta)
    for lemma_id in ids:
        with pytest.raises(InvalidSample):
            evaluate_trial([lemma_id], chunk, spec)
    evaluate_trial(ids, chunk_of(batch[1:]), spec)
    # one NaN entry gives a NaN defect, which no bound admits
    batch[1].grad_tensor[0, 0, 0, 1, 2] = np.nan
    chunk = chunk_of(batch[1:])
    grad = gradient_sample(principal_decompose(chunk.form), chunk.grad_tensor)
    assert np.isnan(grad.codazzi_defect[0])
    with pytest.raises(InvalidSample):
        check_kato(grad, chunk.w, default_kato_eta(8))
    with pytest.raises(InvalidSample):
        check_kato_trace(grad, chunk.w)
    with pytest.raises(InvalidSample):
        gradient_checks(["4.20"], grad, spec.c, spec.d, spec.delta)
    for lemma_id in ids:
        with pytest.raises(InvalidSample):
            evaluate_trial([lemma_id], chunk, spec)


def loop_asymmetry(tensor):
    """max |T - T o sigma| over the five other orders of the tangent indices,
    per point."""
    lead = tensor.ndim - 3
    worst = 0.0
    for perm in list(itertools.permutations((0, 1, 2)))[1:]:
        dev = np.abs(tensor - tensor.transpose(*range(lead), *(lead + p for p in perm)))
        worst = np.maximum(worst, np.max(dev, axis=(-4, -3, -2, -1)))
    return worst


def six_permutation_average(raw):
    """The mean of the six transposes of the tangent indices of ``raw``,
    summed in permutation order: symmetric up to the rounding of the sum."""
    lead = raw.ndim - 3
    acc = np.zeros_like(raw)
    for perm in itertools.permutations(range(lead, lead + 3)):
        acc += raw.transpose(*range(lead), *perm)
    return acc / 6.0


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def test_asymmetry_matches_a_loop_over_permutations():
    # the one-gather scan must give the loop's value bit for bit, NaN and
    # infinities included: a NaN entry, or an infinity met by an equal one
    # (its own place in an orbit with a repeated index), gives NaN
    rng = np.random.default_rng(71)
    non_finite = [
        [((0, 0, 0), np.inf)],
        [((0, 0, 1), -np.inf)],
        [((0, 1, 2), np.inf)],
        [((0, 1, 2), np.inf), ((2, 1, 0), np.inf)],
        [((0, 1, 2), np.inf), ((1, 0, 2), -np.inf)],
        [((1, 1, 0), np.nan)],
        [((0, 1, 1), np.inf), ((1, 0, 1), np.inf), ((1, 1, 0), np.inf)],
        [((0, 2, 1), -np.nan)],  # the loop's abs clears the sign of a NaN
    ]
    for n, points in ((2, 9), (8, 9), (16, 3)):
        dims = Dims(n, 3)
        forms = symmetrize(rng.standard_normal((points, 3, n, n)))
        dec = principal_decompose(forms)
        gaussian = rng.standard_normal((points, 3, n, n, n)) * rng.uniform(
            0.01, 10.0, (points, 1, 1, 1, 1))
        # a symmetrized tensor's defect is at the ulp level; a drawn one has none
        drawn = symmetric_three_tensor(orbit_normals(Trials(5, range(points)), dims), dims)
        assert np.all(gradient_sample(dec, drawn).codazzi_defect == 0)
        symmetric = six_permutation_average(rng.standard_normal((points, 3, n, n, n)))
        patched = gaussian.copy(), symmetric.copy()
        for tensors in patched:
            for i, entries in enumerate(non_finite[:points]):
                for index, value in entries:
                    tensors[(i, -1, *(min(k, n - 1) for k in index))] = value
        for tensors in (gaussian, symmetric, *patched):
            with np.errstate(invalid="ignore"):
                grad = gradient_sample(dec, tensors)
                loop = loop_asymmetry(tensors)
                assert bits(grad.codazzi_defect) == bits(loop)
                for i, tensor in enumerate(tensors):
                    alone = principal_decompose(SecondFundamentalForm(dims, forms.components[i]))
                    assert bits(gradient_sample(alone, tensor).asymmetry()) == bits(loop[i])
        assert 0 < np.max(loop_asymmetry(symmetric)) < 1e-14
        if n == 8:  # every pattern, none of them clipped
            defect = grad.codazzi_defect
            assert np.isnan(defect[[0, 1, 3, 5, 6, 7]]).all() and np.isinf(defect[[2, 4]]).all()


def test_kato_leaves_the_gradient_slices_unbuilt(monkeypatch):
    # the kato ids read |dA|^2, |dH|^2 and the Codazzi scan; a slice the
    # gradient estimates alone read is built only on their first read
    samples, splits, sampled, gathered = [], [], [], []
    build, split, sample, gather = (campaign.gradient_sample, campaign.principal_decompose,
                                    campaign.sample_trial_inputs, campaign.symmetric_three_tensor)

    def kept(decomp, tensor):
        samples.append(build(decomp, tensor))
        return samples[-1]

    def counted(form):
        splits.append(form)
        return split(form)

    def recorded(spec, trials, kinds):
        sampled.append((kinds, len(trials)))
        return sample(spec, trials, kinds)

    def recorded_gather(z, dims):
        gathered.append(len(z))
        return gather(z, dims)

    monkeypatch.setattr(campaign, "gradient_sample", kept)
    monkeypatch.setattr(campaign, "principal_decompose", counted)
    monkeypatch.setattr(campaign, "sample_trial_inputs", recorded)
    monkeypatch.setattr(campaign, "symmetric_three_tensor", recorded_gather)
    gradient_only = {"nabla_normH", "nabla_nu1", "nabla_aminus_nu1", "nabla_h",
                     "hat_plus_h", "hat_nabla_aminus"}
    chunk = sample_chunk(PINCHED, range(CHUNK), _needed_kinds(DERIVATIVE_IDS))
    evaluate_trial(KATO_IDS, chunk, spec_of(PINCHED, KATO_IDS))
    assert len(samples) == CHUNK // DERIVATIVE_SLICE
    for grad in samples:
        assert not gradient_only & set(vars(grad))
        assert {"norm2", "nabla_H_norm2", "codazzi_defect"} <= set(vars(grad))
    samples.clear()
    evaluate_trial(DERIVATIVE_IDS, chunk, spec_of(PINCHED, DERIVATIVE_IDS))
    assert all(gradient_only <= set(vars(grad)) for grad in samples)
    assert not samples[0].nabla_h.flags.writeable
    # nor does a kato campaign draw or split a form: its chunks sample none,
    # its slices build samples with no split, and a kept trial gathers only
    # its tensor; the suite all splits each slice's form and boundary form once
    trials, slices = 2 * CHUNK + 3, 2 * CHUNK // DERIVATIVE_SLICE + 1
    for ids in (KATO_IDS, ALL_IDS):
        del samples[:], splits[:], sampled[:], gathered[:]
        results = run_campaign(spec_of(PINCHED, ids), ids, trials)
        assert sum(r.violations for r in results) == 0
        assert len(samples) == slices
        forms = [k for kinds, k in sampled if "form" in kinds]
        if ids == KATO_IDS:
            assert splits == forms == [] and all(grad.decomp is None for grad in samples)
            assert [kinds for kinds, k in sampled] == [{"w"}] * 3  # one draw a chunk
            # each a new worst trial: at most one per id and chunk
            kept = [k for k in gathered if k == 1]
            assert kept and len(kept) <= 3 * len(ids)
        else:
            assert len(splits) == 2 * slices and None not in (g.decomp for g in samples)
            assert forms == [CHUNK, CHUNK, 3]  # by the chunks alone


# verify --suite S --n 8 --m 3 --trials 300 --seed 1: li recorded when the
# boundary estimate still took the form rebuilt as A^- + h (x) nu1,
# reaction when forms became split draws, and kato and gradient when
# derivative tensors became orbit draws, all re-recorded when trials drew in
# groups of CHUNK (their chunks equal the one-trial draw bit for bit,
# tests/test_substreams.py):
# (lemma id, violations, worst_input_digest, worst_slack)
PINNED = {
    "li": [
        ("li", 0, "f09d0b8454473768", 1255.5708949668729),
    ],
    "reaction": [
        ("4.5", 0, "56b8299c338bf5d4", 4.551604388236808e-14),
        ("4.6", 0, "f928b4596d045ed2", 1.419506274747034e-25),
        ("4.10", 0, "56b8299c338bf5d4", 4.651201154535585e-14),
        ("4.12", 0, "56b8299c338bf5d4", 8.250732980574916e-16),
        ("4.14", 0, "56b8299c338bf5d4", 4.692454819464155e-14),
        ("boundary", 0, "56b8299c338bf5d4", 1.8118839761882555e-13),
    ],
    "kato": [
        ("kato.3.1", 0, "95c82ec82580b637", 273.0971060278976),
        ("kato.3.2", 0, "95c82ec82580b637", 160.6453564869986),
    ],
    "gradient": [
        ("4.20", 0, "b51acd648c1f052b", 174.13032551639793),
        ("4.21", 0, "58b00c88523c473d", 79.42410493067052),
        ("4.22", 0, "b51acd648c1f052b", 174.13032551639793),
        ("L4.6", 0, "b51acd648c1f052b", 354.1643955379938),
        ("L4.7", 0, "4b526b8aa88e7434", 3.819154163910207e-08),
        ("L4.8", 0, "2b216bd268559b3a", 0.9661092016769911),
        ("L4.9", 0, "54f1b9eac1b95087", 380.106640482905),
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
    batch = [sample_chunk(PINCHED, range(trial, trial + 1), _needed_kinds(ids)) for trial in range(12)]
    unpinched = symmetric_gaussian(Trials(67, range(1)), PINCHED.dims)
    batch[DERIVATIVE_SLICE + 2].form = unpinched
    with pytest.raises(NotPinched):
        evaluate_trial(ids, chunk_of(batch), spec_of(PINCHED, DERIVATIVE_IDS))
    del batch[DERIVATIVE_SLICE + 2]
    evaluate_trial(ids, chunk_of(batch), spec_of(PINCHED, DERIVATIVE_IDS))
