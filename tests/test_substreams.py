"""Chunked sampling against one trial at a time.

A campaign draws a chunk of trials at once, each trial still from its own
``default_rng((seed, trial, tag))`` substream: ``substream_states`` runs
NumPy's seed hash over the trial numbers of a block of chunks, and
``generators`` of a slice of the block's states seeds one PCG64 per trial
of a chunk through NumPy's own seeding.
Every state, draw and sampled array of a chunk must equal the per-trial
``trial_rng`` path bit for bit, pinched forms included: they must equal the
split draw as written for one trial at a time.
"""

import itertools

import numpy as np
import pytest

import pinchflow.samplers as samplers
from pinchflow.campaign import _KIND_TAGS, BLOCK, CHUNK, run_campaign, sample_trial_inputs
from pinchflow.errors import InvalidConstants
from pinchflow.forms import Dims, gradient_sample, mean_curvature
from pinchflow.lemmas import boundary_offset
from pinchflow.samplers import (
    F_MIN,
    F_ROUNDING,
    TAG_FORM,
    TAG_GRADIENT,
    TAG_MATRICES,
    TAG_W,
    SamplerSpec,
    generators,
    sample_w,
    substream_states,
    symmetric_matrices,
    symmetric_three_tensor,
    trial_rng,
)

# a seed >= 2**32 adds entropy words; 2**64 gives five, which takes the
# hash's second mixing loop
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64]
TAGS = [TAG_FORM, TAG_MATRICES, TAG_GRADIENT, TAG_W]
TRIALS = {
    "offset": range(5, 12),
    "chunk-boundary": range(CHUNK - 3, CHUNK + 4),
    "wide": [2**32 - 1, 2**32, 2**40 + 7],  # two words from 2**32 on
}


def substreams(spec, trials):
    """The substream states of every input kind of a sequence of trial
    numbers, as a campaign passes them to ``sample_trial_inputs``;
    ``["form"]`` is what ``sample_form`` takes."""
    return {kind: substream_states(spec.seed, trials, tag) for kind, tag in _KIND_TAGS.items()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("trials", TRIALS.values(), ids=TRIALS.keys())
def test_streams_match_default_rng(seed, tag, trials):
    states = substream_states(seed, trials, tag)
    assert states.shape == (len(trials), 4)
    drawn = 0
    for trial, state, rng in zip(trials, states, generators(states)):
        expected = np.random.SeedSequence((seed, trial, tag)).generate_state(4, np.uint64)
        assert np.array_equal(state, expected)
        ref = trial_rng(seed, trial, tag)
        assert np.array_equal(rng.standard_normal(40), ref.standard_normal(40))
        assert rng.random() == ref.random()
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
        drawn += 1
    assert drawn == len(trials)


@pytest.mark.parametrize("seed", [0, 2**64])
@pytest.mark.parametrize("tag", TAGS)
def test_slices_match_trial_rng(seed, tag):
    trials = [*range(3, 3 + 2 * CHUNK), 2**32 - 1, 2**32, 2**40 + 7]
    states = substream_states(seed, trials, tag)
    for index in (slice(0, CHUNK), slice(CHUNK - 5, 2 * CHUNK + 1), slice(2 * CHUNK, None)):
        part = states[index]
        assert np.array_equal(part, substream_states(seed, trials[index], tag))
        drawn = 0
        for trial, rng in zip(trials[index], generators(part)):
            ref = trial_rng(seed, trial, tag)
            assert np.array_equal(rng.standard_normal(17), ref.standard_normal(17))
            assert rng.random() == ref.random()
            drawn += 1
        assert drawn == len(part) == len(trials[index])


@pytest.mark.parametrize("seed", [0, 2**64])
@pytest.mark.parametrize("layout", ["C", "F", "step"])
def test_every_generator_has_the_trial_rng_state(seed, layout):
    # PCG64 reads its four seed words straight from the buffer, so a states
    # array of any layout must reach it as contiguous rows
    trials = [*range(3, 3 + CHUNK), 2**32 - 1, 2**32, 2**40 + 7]
    states = substream_states(seed, trials, TAG_MATRICES)
    if layout == "F":
        states = np.asfortranarray(states)
    if layout == "step":
        trials, states = trials[::3], states[::3]
    got = [rng.bit_generator.state for rng in generators(states)]
    assert got == [trial_rng(seed, t, TAG_MATRICES).bit_generator.state for t in trials]


def test_yielded_generators_are_independent():
    streams = generators(substream_states(4, range(10, 12), TAG_FORM))
    first = next(streams)
    first.standard_normal(5)
    second = next(streams)
    first.standard_normal(5)  # after the next trial's generator is taken
    assert np.array_equal(second.standard_normal(9),
                          trial_rng(4, 11, TAG_FORM).standard_normal(9))


@pytest.mark.parametrize("words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                          (3, np.uint64), (4, np.int64)])
def test_known_state_refuses_other_requests(words, dtype):
    seq = samplers._KnownState(substream_states(1, [0], TAG_FORM)[0])
    assert np.array_equal(seq.generate_state(4, np.uint64), seq.generate_state(4, "uint64"))
    with pytest.raises(ValueError, match="only generate_state"):
        seq.generate_state(words, dtype)


def test_campaign_hashes_once_per_block(monkeypatch):
    # 1500 trials are 47 chunks but only 2 blocks of form substreams
    hashed = []

    def counted(seed, trials, tag):
        hashed.append((tag, len(trials)))
        return substream_states(seed, trials, tag)

    monkeypatch.setattr(samplers, "substream_states", counted)
    spec = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.3, seed=1)
    run_campaign(spec, ["4.5", "boundary"], 1500)
    assert hashed == [(TAG_FORM, BLOCK), (TAG_FORM, 1500 - BLOCK)]


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
        sample_trial_inputs(spec, substreams(spec, range(3)), kinds)
    with refusal:
        samplers.sample_form(spec, substreams(spec, range(3))["form"])
    with refusal:
        samplers.sample_pinched(trial_rng(0, 0), spec.dims, spec.c, spec.d)


def test_scales_past_their_bounds_name_themselves():
    # past these scales the quartic sides overflow into NaN slacks, which
    # count as violations; the largest admitted d still draws
    with pytest.raises(ValueError, match=r"sigma must be in \(0, 1e\+50\], got 1e\+80"):
        SamplerSpec(Dims(4, 3), sigma=1e80)
    SamplerSpec(Dims(4, 3), sigma=samplers.MAX_SIGMA)
    with pytest.raises(InvalidConstants, match=r"d must be in \[0, 1e\+100\].*got 1e\+200"):
        samplers.sample_pinched(trial_rng(0, 0), Dims(8, 3), 1 / 6, 1e200)
    A = samplers.sample_pinched(trial_rng(0, 0), Dims(8, 3), 1 / 6, samplers.MAX_D)
    assert mean_curvature(A).norm2 / 6 - A.norm2 - samplers.MAX_D > 0


ALL_KINDS = {"form", "boundary", "matrices", "grad", "w"}
SPECS = {
    "pinched": SamplerSpec(Dims(8, 3), c=1 / 6, d=0.3, seed=61),
    # a seed of two words, and boundary forms at d = 1
    "boundary": SamplerSpec(Dims(8, 3), c=1 / 6, d=1.0, seed=2**32),
    # a seed of three words, and Gaussian inputs at a sigma other than 1
    "gaussian": SamplerSpec(Dims(5, 3), sigma=0.7, c=4 / 15, seed=2**64),
    # d so large that the budget B is raised to what f's rounding needs
    "floor": SamplerSpec(Dims(8, 3), c=1 / 6, d=1e30, seed=1),
}


def scalar_split_draw(rng, dims, c, d, sigma, boundary=False):
    """The split draw of one trial, written out for one form: the form and
    its drawn split, a dict of s^2, the budget B and the |h_ring|^2,
    |A^-|^2 and f it assigns; ``boundary`` gives the form of the same
    numbers on the boundary at d instead."""
    n, m = dims.n, dims.m
    z = rng.standard_normal()
    dirs = rng.standard_normal((m, n, n))
    branch, u_f, u_t = rng.random(3)
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
    s2 = (sigma * np.exp(0.5 * z)) ** 2
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
    """The inputs of one trial, each kind drawn from ``trial_rng`` directly,
    and the split its form was drawn with."""

    def rng(tag):
        return trial_rng(spec.seed, trial, tag)

    dims, sigma = spec.dims, spec.sigma
    form, split = scalar_split_draw(rng(TAG_FORM), dims, spec.c, spec.d, sigma)
    boundary, _ = scalar_split_draw(rng(TAG_FORM), dims, spec.c, boundary_offset(spec.d), sigma,
                                    boundary=True)
    out = {
        "form": form,
        "boundary_form": boundary,
        "matrices": symmetric_matrices(rng(TAG_MATRICES), dims.n, max(1, dims.m - 1), sigma),
        "grad_tensor": symmetric_three_tensor(rng(TAG_GRADIENT), dims, sigma),
        "w": sample_w(rng(TAG_W), dims, sigma),
    }
    return out, split


@pytest.mark.parametrize("name", SPECS)
def test_chunk_sampling_matches_trial_rng(name):
    spec = SPECS[name]
    trials = range(7, 7 + CHUNK + 3)
    chunk = sample_trial_inputs(spec, substreams(spec, trials), ALL_KINDS)
    assert chunk.form.components.shape == (len(trials), spec.dims.m, spec.dims.n, spec.dims.n)
    floored = []
    for i, trial in enumerate(trials):
        alone = chunk.trial(i)
        inputs, split = one_trial(spec, trial)
        for key, expected in inputs.items():
            got = getattr(alone, key)
            (got,) = got.components if key.endswith("form") else got  # a chunk of one
            assert got.dtype == expected.dtype and np.array_equal(got, expected), (key, trial)
        floored.append(split["budget"] > split["s2"])
    # the budget's rounding floor binds at d = 1e30 alone
    assert all(floored) if name == "floor" else not any(floored)


@pytest.mark.parametrize("sigma", [1.0, 0.5])
def test_symmetric_three_tensor_is_the_gather_of_its_orbit_normals(sigma):
    # one normal per slot and sorted triple, scaled by sigma over the root of
    # its orbit's size, at every permutation of the triple, bit for bit
    dims = Dims(8, 3)
    n, triples = dims.n, list(itertools.combinations_with_replacement(range(dims.n), 3))
    for make in (lambda: trial_rng(9, 4, TAG_GRADIENT),
                 lambda: substream_states(9, range(4, 12), TAG_GRADIENT)):
        got = symmetric_three_tensor(make(), dims, sigma)
        z = samplers._normals(make(), (dims.m, len(triples)))
        # C-contiguous, so a derivative sample stores it without a copy
        assert got.shape == (*z.shape[:-1], n, n, n) and got.flags.c_contiguous
        expected = np.empty_like(got)
        for t, triple in enumerate(triples):
            value = z[..., t] * sigma / np.sqrt(len(set(itertools.permutations(triple))))
            for i, j, k in itertools.permutations(triple):
                expected[..., i, j, k] = value
        assert got.tobytes() == expected.tobytes()
        if sigma != 1.0:
            assert not np.array_equal(got, symmetric_three_tensor(make(), dims))


def six_permutation_matrix(n):
    """The average of the six transposes of an (n, n, n) tensor, as a linear
    map on its n^3 flat entries."""
    flat = np.arange(n**3).reshape(n, n, n)
    M = np.zeros((n**3, n**3))
    for perm in itertools.permutations(range(3)):
        M[flat.ravel(), flat.transpose(perm).ravel()] += 1 / 6
    return M


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_draw_has_the_law_of_the_six_permutation_average(n, monkeypatch):
    # both are centred Gaussian, so equal covariances M M^T = G G^T give one
    # law; the columns of G are the tensors of the unit orbit draws
    orbits = len(list(itertools.combinations_with_replacement(range(n), 3)))
    monkeypatch.setattr(samplers, "_normals", lambda rng, shape, sigma: np.eye(orbits)[:, None])
    G = symmetric_three_tensor(None, Dims(n, 1)).reshape(orbits, n**3).T
    M = six_permutation_matrix(n)
    assert np.max(np.abs(M @ M.T - G @ G.T)) <= 1e-15
    monkeypatch.undo()
    tensors = symmetric_three_tensor(substream_states(3, range(64), TAG_GRADIENT), Dims(n, 3))
    assert np.all(gradient_sample(None, tensors).asymmetry() == 0)
