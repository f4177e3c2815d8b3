"""Group substreams: a chunk's draws against one trial at a time.

A campaign's trials draw in groups of ``CHUNK`` consecutive trials: group g
of an input kind is ``default_rng((seed, g, tag))``, which draws the rows of
all its trials in one call of each kind, normals first and then the
uniforms of the split draw.  A trial's inputs are its rows, so they must not
depend on the chunk that draws them, the lemma ids or the campaign's length;
a trial drawn alone, or kept by a campaign, must equal its chunk row bit for
bit, and the pinched forms must equal the split draw as written for one
trial at a time.
"""

import itertools

import numpy as np
import pytest

import pinchflow.campaign as campaign
import pinchflow.lemmas
import pinchflow.samplers as samplers
from pinchflow.campaign import (
    BLOCK,
    CHUNK,
    TrialInputs,
    _needed_kinds,
    run_campaign,
    sample_trial_inputs,
)
from pinchflow.cli import main
from pinchflow.errors import InvalidConstants
from pinchflow.forms import Dims, gradient_sample, mean_curvature
from pinchflow.lemmas import LEMMAS, InequalityCheck, boundary_offset
from pinchflow.samplers import (
    F_MIN,
    F_ROUNDING,
    TAG_FORM,
    TAG_GRADIENT,
    TAG_MATRICES,
    TAG_W,
    SamplerSpec,
    Trials,
    orbit_normals,
    sample_w,
    symmetric_matrices,
    symmetric_three_tensor,
    trial_rng,
)

# a seed >= 2**32 adds entropy words; 2**64 gives five
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64]
TAGS = [TAG_FORM, TAG_MATRICES, TAG_GRADIENT, TAG_W]
TRIALS = {
    "offset": range(5, 12),
    "chunk-boundary": range(CHUNK - 3, CHUNK + 4),
    "wide": [2**32 - 1, 2**32, 2**40 + 7],  # group numbers of two words from 2**37 on
}


def group_rows(seed, trial, tag, width, uniforms=0):
    """``trial``'s row of its group's draw, taken from
    ``default_rng((seed, trial // CHUNK, tag))`` directly: the group's
    (CHUNK, width) normals, then its (CHUNK, uniforms) uniforms."""
    group = np.random.default_rng((seed, trial // CHUNK, tag))
    normals = group.standard_normal((CHUNK, width))
    return normals[trial % CHUNK], group.random((CHUNK, uniforms))[trial % CHUNK]


def row_rng(seed, trial, tag, width):
    """The generator of ``trial``'s group, past the rows of ``width``
    normals of the trials before it: a sampler that draws normals only
    draws the trial's row from it."""
    group = np.random.default_rng((seed, trial // CHUNK, tag))
    group.standard_normal((trial % CHUNK, width))
    return group


def form_row(seed, trial, dims):
    """The m n^2 + 1 normals and 3 uniforms of ``trial``'s split draw."""
    return group_rows(seed, trial, TAG_FORM, dims.m * dims.n**2 + 1, 3)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_inputs(a, b):
    """Two chunks hold the same fields, bit for bit."""
    a, b = dict(a.arrays()), dict(b.arrays())
    return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("trials", TRIALS.values(), ids=TRIALS.keys())
def test_streams_match_default_rng(seed, tag, trials):
    # a trial's draw is its row of its group's default_rng draw, alone and
    # inside a run of consecutive trials
    runs = [trials] if isinstance(trials, range) else []
    runs += [range(t, t + 1) for t in trials]
    for run in runs:
        normals, u = samplers._draw(Trials(seed, run), tag, (5, 2), 3)
        assert normals.shape == (len(run), 5, 2) and u.shape == (len(run), 3)
        for trial, got, got_u in zip(run, normals, u):
            row, row_u = group_rows(seed, trial, tag, 10, 3)
            assert same_bits(got.ravel(), row) and same_bits(got_u, row_u), trial


@pytest.mark.parametrize("seed", [0, 2**64])
@pytest.mark.parametrize("tag", TAGS)
def test_slices_match_trial_rng(seed, tag):
    # any run of trials draws the rows of the same trials in a longer run,
    # and trial_rng of a trial is its group's generator
    trials = range(3, 3 + 2 * CHUNK)
    whole = samplers._draw(Trials(seed, trials), tag, (17,))[0]
    for index in (slice(0, CHUNK), slice(CHUNK - 5, 2 * CHUNK + 1), slice(2 * CHUNK, None)):
        part = samplers._draw(Trials(seed, trials[index]), tag, (17,))[0]
        assert same_bits(part, whole[index])
        for trial, row in zip(trials[index], part):
            rng = trial_rng(seed, trial, tag)
            assert same_bits(rng.standard_normal((CHUNK, 17))[trial % CHUNK], row)


def test_yielded_generators_are_independent():
    # two trials of a group get generators of the same state, and drawing
    # from one leaves the other as it was
    first, second = trial_rng(4, 10), trial_rng(4, 11)
    assert first is not second
    first.standard_normal(5)
    assert np.array_equal(second.standard_normal(9), trial_rng(4, 12).standard_normal(9))
    assert trial_rng(4, CHUNK - 1).bit_generator.state == trial_rng(4, 0).bit_generator.state
    assert trial_rng(4, CHUNK).bit_generator.state != trial_rng(4, 0).bit_generator.state


def test_campaign_draws_each_group_once(monkeypatch):
    # 1500 trials are 47 groups, drawn in 24 chunks of 64: one generator a group
    made = []

    def counted(seed, trial, tag=TAG_FORM):
        made.append((tag, trial))
        return trial_rng(seed, trial, tag)

    monkeypatch.setattr(samplers, "trial_rng", counted)
    spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.3, seed=1)
    run_campaign(spec, ["4.5", "boundary"], 1500)
    assert made == [(TAG_FORM, first) for first in range(0, 1500, CHUNK)]


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bad_seed_names_itself(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        SamplerSpec(Dims(4, 2), seed=seed)


@pytest.mark.parametrize("kinds", [{"form"}, {"form", "boundary"}], ids=["pinched", "boundary"])
def test_negative_d_names_itself(kinds):
    # li reads no form, so the spec constructs; the forms refuse it where
    # they are drawn, and so do boundary forms, whose offset would read 1
    spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=-0.5)
    refusal = pytest.raises(InvalidConstants, match=r"d must be in \[0, 1e\+100\].*got -0.5")
    with refusal:
        sample_trial_inputs(spec, range(3), kinds)
    with refusal:
        samplers.sample_form(spec, range(3))
    with refusal:
        samplers.sample_pinched(trial_rng(0, 0), spec.dims, spec.c, spec.d)


def test_scales_past_their_bounds_name_themselves():
    # past this d the quartic sides overflow into NaN slacks, which count as
    # violations; the largest admitted d still draws
    with pytest.raises(InvalidConstants, match=r"d must be in \[0, 1e\+100\].*got 1e\+200"):
        samplers.sample_pinched(trial_rng(0, 0), Dims(8, 3), 1 / 6, 1e200)
    A = samplers.sample_pinched(trial_rng(0, 0), Dims(8, 3), 1 / 6, samplers.MAX_D)
    assert mean_curvature(A).norm2 / 6 - A.norm2 - samplers.MAX_D > 0


ALL_KINDS = {"form", "boundary", "matrices", "grad", "w"}
SPECS = {
    "pinched": SamplerSpec(Dims(8, 3), c=1 / 6, d=0.3, seed=61),
    # a seed of two words, and boundary forms at d = 1
    "boundary": SamplerSpec(Dims(8, 3), c=1 / 6, d=1.0, seed=2**32),
    # a seed of three words, at n = 5
    "gaussian": SamplerSpec(Dims(5, 3), c=4 / 15, seed=2**64),
    # d so large that the budget B is raised to what f's rounding needs
    "floor": SamplerSpec(Dims(8, 3), c=1 / 6, d=1e30, seed=1),
}


def scalar_split_draw(normals, uniforms, dims, c, d, boundary=False):
    """The split draw of one trial from its m n^2 + 1 normals and 3
    uniforms, written out for one form: the form and its drawn split, a dict
    of s^2, the budget B and the |h_ring|^2, |A^-|^2 and f it assigns;
    ``boundary`` gives the form of the same numbers on the boundary at d
    instead."""
    n, m = dims.n, dims.m
    z = normals[0]
    dirs = normals[1:].reshape(m, n, n)
    branch, u_f, u_t = uniforms
    dirs = dirs + dirs.transpose(0, 2, 1)
    for a in range(m):
        dirs[a] -= np.trace(dirs[a]) / n * np.eye(n)
    sq = np.einsum("aij,aij->a", dirs, dirs)
    h_norm, a_norm = np.sqrt(sq[0]), np.sqrt(sq[1:].sum())
    if branch < 0.5:  # edge shares, log-uniform down to 1e-12; the power ufunc
        # rounds as the batch does, where a float's ** may not
        f_raw, t = np.power(10.0, 12 * (u_f - 1)), np.power(10.0, 12 * (u_t - 1))
    else:  # flat Dirichlet(1, 1, 1) shares: f's is Beta(1, 2)
        f_raw, t = 1 - np.sqrt(1 - u_f), u_t
    t = t if m > 1 else 0.0
    g = c - 1.0 / n
    s2 = np.exp(0.5 * z) ** 2
    budget = max(s2, F_ROUNDING * (2 * c / g + 1) * d / F_MIN)
    rest = budget if boundary else (1 - F_MIN) * (1 - f_raw) * budget
    A = dirs
    A[0] *= np.sqrt((1 - t) * rest) / h_norm
    if m > 1:
        A[1:] *= np.sqrt(t * rest) / a_norm
    A[0] += np.sqrt((d + budget) / g) / n * np.eye(n)
    split = {"s2": s2, "budget": budget, "h_ring2": (1 - t) * rest, "a_minus2": t * rest,
             "f": budget - rest}
    return A, split


def one_trial(spec, trial):
    """The inputs of one trial, each kind its row of its group's draw from
    ``default_rng`` directly, and the split its form was drawn with."""
    dims, seed = spec.dims, spec.seed
    n, m, k = dims.n, dims.m, max(1, dims.m - 1)
    orbits = len(list(itertools.combinations_with_replacement(range(n), 3)))
    row = form_row(seed, trial, dims)
    form, split = scalar_split_draw(*row, dims, spec.c, spec.d)
    boundary, _ = scalar_split_draw(*row, dims, spec.c, boundary_offset(spec.d), boundary=True)
    out = {
        "form": form,
        "boundary_form": boundary,
        "matrices": symmetric_matrices(row_rng(seed, trial, TAG_MATRICES, k * n * n), n, k),
        "grad_tensor": symmetric_three_tensor(
            orbit_normals(row_rng(seed, trial, TAG_GRADIENT, m * orbits), dims), dims),
        "w": sample_w(row_rng(seed, trial, TAG_W, m * n), dims),
    }
    return out, split


@pytest.mark.parametrize("name", SPECS)
def test_chunk_sampling_matches_trial_rng(name):
    spec = SPECS[name]
    trials = range(7, 7 + CHUNK + 3)
    chunk = sample_trial_inputs(spec, trials, ALL_KINDS)
    assert chunk.form.components.shape == (len(trials), spec.dims.m, spec.dims.n, spec.dims.n)
    floored = []
    for i, trial in enumerate(trials):
        alone = chunk.trial(i)
        inputs, split = one_trial(spec, trial)
        for key, expected in inputs.items():
            got = getattr(alone, key)
            (got,) = got.components if key.endswith("form") else got  # a chunk of one
            assert same_bits(got, expected), (key, trial)
        floored.append(split["budget"] > split["s2"])
    # the budget's rounding floor binds at d = 1e30 alone
    assert all(floored) if name == "floor" else not any(floored)


@pytest.mark.parametrize("trial", [0, 31, 32, 33, 1023, 1024, 1025, 2**32 + 7])
def test_a_trial_drawn_alone_is_its_chunk_row(trial):
    spec = SPECS["pinched"]
    for chunk_trials in (CHUNK, 2 * CHUNK, BLOCK):
        start = trial - trial % chunk_trials
        chunk = sample_trial_inputs(spec, range(start, start + chunk_trials), ALL_KINDS)
        alone = sample_trial_inputs(spec, range(trial, trial + 1), ALL_KINDS)
        assert same_inputs(chunk.trial(trial - start), alone), chunk_trials


def recorded_inputs(monkeypatch):
    """The chunks and orbit normals a campaign draws, by first trial, as it
    draws them."""
    drawn = {}
    sample, normals = campaign.sample_trial_inputs, campaign.orbit_normals

    def chunk(spec, trials, kinds):
        drawn[("inputs", trials.start)] = sample(spec, trials, kinds)
        return drawn[("inputs", trials.start)]

    def orbits(rows, dims):
        drawn[("orbits", rows.numbers.start)] = normals(rows, dims)
        return drawn[("orbits", rows.numbers.start)]

    monkeypatch.setattr(campaign, "sample_trial_inputs", chunk)
    monkeypatch.setattr(campaign, "orbit_normals", orbits)
    return drawn


def stacked_inputs(drawn):
    """Every field of the recorded draws, stacked in trial order."""
    out = {}
    for (kind, _), value in sorted(drawn.items(), key=lambda item: item[0][1]):
        for name, a in (value.arrays() if kind == "inputs" else [("orbits", value)]):
            out.setdefault(name, []).append(a)
    return {name: np.concatenate(parts) for name, parts in out.items()}


ALL_IDS = tuple(LEMMAS)


def all_spec():
    # the case-1 estimate L4.9 needs delta <= 1/(5n - 8)
    return SamplerSpec(Dims(8, 3), c=1 / 6, d=0.3, seed=5, delta=1 / 32)


def test_chunk_size_does_not_move_a_campaign(monkeypatch, tmp_path):
    # every chunk is whole groups, so a campaign drawn in chunks of 32 and of
    # 1024 trials draws and judges the same inputs, and keeps the same
    # counterexamples of a false kato.3.2 (its rhs times 0.1)
    true = pinchflow.lemmas.check_kato_trace

    def false_trace(grad, w):
        chk = true(grad, w)
        return InequalityCheck(chk.lemma_id, chk.lhs, 0.1 * chk.rhs)

    monkeypatch.setattr(pinchflow.lemmas, "check_kato_trace", false_trace)
    results, files = [], []
    for size in (CHUNK, BLOCK):
        monkeypatch.setattr(campaign, "chunk_size", lambda dims, ids, size=size: size)
        out = tmp_path / str(size)
        results.append(run_campaign(all_spec(), ["li", "4.5", "kato.3.1", "kato.3.2", "4.20"],
                                    70, counterexample_dir=str(out)))
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert results[0][3].violations > 0 and len(files[0]) == results[0][3].violations
    assert repr(results[0]) == repr(results[1])
    assert files[0] == files[1]
    monkeypatch.undo()
    assert repr(run_campaign(all_spec(), ALL_IDS, 70)) == repr(
        run_campaign(all_spec(), ALL_IDS[::-1], 70)[::-1])


def test_a_longer_campaign_draws_the_same_first_trials(monkeypatch):
    # T = 33 ends in a group of one trial, and T + 1 in one of two
    got = []
    for trials in (33, 34):
        drawn = recorded_inputs(monkeypatch)
        run_campaign(all_spec(), ALL_IDS, trials)
        got.append(stacked_inputs(drawn))
    short, longer = got
    assert short.keys() == longer.keys() >= {"form", "boundary_form", "matrices", "w", "orbits"}
    for name in short:
        assert len(short[name]) == 33 and same_bits(short[name], longer[name][:33]), name


def test_a_trial_form_is_the_same_in_every_suite(monkeypatch, tmp_path):
    # the suite reaction draws 64 trials a chunk, the suite all 32, and both
    # draw each form from the trial's row
    forms = []
    for suite in ("reaction", "all"):
        drawn = recorded_inputs(monkeypatch)
        argv = ["verify", "--suite", suite, "--n", "8", "--m", "3", "--trials", "100",
                "--seed", "9", "--out", str(tmp_path / f"{suite}.json")]
        assert main(argv) == 0
        forms.append(stacked_inputs(drawn)["form"])
    assert len(forms[0]) == 100 and same_bits(forms[0], forms[1])


def test_every_kept_worst_trial_is_its_drawn_alone_inputs(monkeypatch):
    # a kept trial is its chunk row, its tensor gathered from the chunk's
    # orbit normals, copied out: the inputs it gets drawn alone
    spec, trials = all_spec(), 2 * CHUNK + 5
    kept, current, sample, take = [], [], campaign.sample_trial_inputs, TrialInputs.trial

    def chunk(spec, numbers, kinds):
        current[:] = [numbers.start]
        return sample(spec, numbers, kinds)

    def trial(self, i, draw=None):
        out = take(self, i, draw)
        if not isinstance(i, slice):
            kept.append((current[0] + i, out))
        return out

    monkeypatch.setattr(campaign, "sample_trial_inputs", chunk)
    monkeypatch.setattr(TrialInputs, "trial", trial)
    results = run_campaign(spec, ALL_IDS, trials)
    monkeypatch.undo()
    assert kept
    digests = set()
    for number, inputs in kept:
        alone = sample_trial_inputs(spec, range(number, number + 1), _needed_kinds(ALL_IDS))
        assert same_inputs(inputs, alone), number
        digests.add(alone.digest())
    assert {r.worst_input_digest for r in results} <= digests


def test_symmetric_three_tensor_is_the_gather_of_its_orbit_normals():
    # one normal per slot and sorted triple over the root of its orbit's
    # size, at every permutation of the triple, bit for bit
    dims = Dims(8, 3)
    n, triples = dims.n, list(itertools.combinations_with_replacement(range(dims.n), 3))
    for make in (lambda: trial_rng(9, 4, TAG_GRADIENT), lambda: Trials(9, range(4, 12))):
        got = symmetric_three_tensor(orbit_normals(make(), dims), dims)
        z = samplers._draw(make(), TAG_GRADIENT, (dims.m, len(triples)))[0]
        # C-contiguous, so a derivative sample stores it without a copy
        assert got.shape == (*z.shape[:-1], n, n, n) and got.flags.c_contiguous
        expected = np.empty_like(got)
        for t, triple in enumerate(triples):
            value = z[..., t] / np.sqrt(len(set(itertools.permutations(triple))))
            for i, j, k in itertools.permutations(triple):
                expected[..., i, j, k] = value
        assert got.tobytes() == expected.tobytes()


def six_permutation_matrix(n):
    """The average of the six transposes of an (n, n, n) tensor, as a linear
    map on its n^3 flat entries."""
    flat = np.arange(n**3).reshape(n, n, n)
    M = np.zeros((n**3, n**3))
    for perm in itertools.permutations(range(3)):
        M[flat.ravel(), flat.transpose(perm).ravel()] += 1 / 6
    return M


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_draw_has_the_law_of_the_six_permutation_average(n):
    # both are centred Gaussian, so equal covariances M M^T = G G^T give one
    # law; the columns of G are the tensors of the unit orbit draws
    triples = list(itertools.combinations_with_replacement(range(n), 3))
    root = np.sqrt([len(set(itertools.permutations(t))) for t in triples])
    G = symmetric_three_tensor(np.eye(len(triples))[:, None] / root, Dims(n, 1))
    G = G.reshape(len(triples), n**3).T
    M = six_permutation_matrix(n)
    assert np.max(np.abs(M @ M.T - G @ G.T)) <= 1e-15
    dims = Dims(n, 3)
    tensors = symmetric_three_tensor(orbit_normals(Trials(3, range(64)), dims), dims)
    assert np.all(gradient_sample(None, tensors).asymmetry() == 0)
