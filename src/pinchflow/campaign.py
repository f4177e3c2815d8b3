"""Seeded verification campaigns with counterexample capture.

A campaign draws ``trials`` independent samples from per-trial substreams of
(seed, trial, input-kind) and evaluates a set of inequalities on each.  It
samples and evaluates chunks of trials stacked along a leading axis, and
sizes them by the bytes they stack (:func:`chunk_size`): the largest power
of two whose widest per-trial stack stays within ``STACK_BUDGET`` float64
values, never fewer than ``CHUNK`` trials nor more than ``BLOCK``; the
commutator pairs of |R^perp|^2 and li (``forms.commutator_norm2``) keep
within the budget on their own, so they do not size a chunk.  When an
inequality reads a derivative tensor, all of them run on slices of a chunk
sized by the same budget (:func:`derivative_slice`, at least 8 trials), and
each slice draws its own (m, n, n, n) tensors from its trials' substreams
right before it is evaluated, so no more than a slice of them exists at
once; a trial the campaign keeps, a new worst or a violation, draws its
tensor again from its own substream, so every kept input is the one it gets
drawn alone.  The substream states of each input kind are hashed once per
block of ``BLOCK`` trials, and every chunk of the block draws from slices of
them, so the hash is paid per block and its memory does not grow with the
campaign.  A trial violates an inequality unless
slack >= -tol * max(1, |lhs|, |rhs|), so a NaN slack is a violation, and so
is a slack of -inf; the verdicts of every inequality on a chunk are judged in
one pass over one (ids, trials) check.  On violation the offending trial, as
drawn, is written to a JSON file with the seed and the lemma constants of
its spec, which are all its replay needs (all entries as decimal strings
with 17 significant digits), and with the lhs and rhs of its evaluation as a
chunk of one, which the replay reproduces bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import lemmas, samplers
from .forms import (CHUNK, STACK_BUDGET, Dims, SecondFundamentalForm, gradient_sample,
                    principal_decompose)
from .samplers import (
    TAG_FORM,
    TAG_GRADIENT,
    TAG_MATRICES,
    TAG_W,
    SamplerSpec,
    sample_boundary,
    sample_form,
    sample_w,
    symmetric_matrices,
    symmetric_three_tensor,
)

DEFAULT_TOL = 1e-9
# trials whose substream states are hashed at once: 32 KB of states per kind
BLOCK = CHUNK * CHUNK
# the substream tag of each sampled input kind; "boundary" is drawn with the form
_KIND_TAGS = {"form": TAG_FORM, "matrices": TAG_MATRICES, "grad": TAG_GRADIENT, "w": TAG_W}
# the spec's fields that a counterexample file and a verify report record as "constants"
CONSTANTS = ("c", "d", "delta", "eta", "eps0")


@dataclass(frozen=True)
class CheckResult:
    """Aggregate verdict of one inequality over a campaign."""

    lemma_id: str
    trials: int
    violations: int
    worst_slack: float | None  # None when the least slack is not finite
    worst_input_digest: str
    seed: int


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _encode_array(a: np.ndarray) -> dict:
    """Shape and ``_fmt`` entries of ``a``, formatted by one ``%``."""
    a = np.asarray(a, dtype=np.float64)
    text = "%.17g," * a.size % tuple(a.ravel().tolist())
    return {"shape": list(a.shape), "entries": text.split(",")[:-1]}


def _decode_array(d: dict) -> np.ndarray:
    return np.array([float(s) for s in d["entries"]], dtype=np.float64).reshape(
        d["shape"]
    )


_FORMS = ("form", "boundary_form")
_ARRAYS = ("matrices", "grad_tensor", "w")


@dataclass
class TrialInputs:
    """Raw sampled inputs of a chunk of trials stacked along a leading
    axis; a trial on its own is a chunk of one.  The points its checks share
    (the splits of its forms and its derivative sample) are built on first
    read."""

    dims: Dims
    form: SecondFundamentalForm | None = None
    boundary_form: SecondFundamentalForm | None = None
    matrices: np.ndarray | None = None  # (count, n, n) symmetric matrices
    grad_tensor: np.ndarray | None = None
    w: np.ndarray | None = None

    @functools.cached_property
    def decomp(self):
        return principal_decompose(self.form)

    @functools.cached_property
    def boundary_decomp(self):
        return principal_decompose(self.boundary_form)

    @functools.cached_property
    def grad(self):  # inputs that hold no form build no split
        split = None if self.form is None else self.decomp
        return gradient_sample(split, self.grad_tensor)

    def arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every input that is present, by field name; a form as its
        components."""
        for name in _FORMS + _ARRAYS:
            value = getattr(self, name)
            if value is not None:
                yield name, value.components if name in _FORMS else value

    @classmethod
    def of_arrays(cls, dims: Dims, arrays: Iterable[tuple[str, np.ndarray]]) -> "TrialInputs":
        """The inputs of (field name, array) pairs, as :meth:`arrays` gives them."""
        inputs = cls(dims=dims)
        for name, value in arrays:
            setattr(inputs, name, SecondFundamentalForm(dims, value) if name in _FORMS else value)
        return inputs

    def trial(self, i: int | slice, draw: Callable[[slice], "TrialInputs"] | None = None
              ) -> "TrialInputs":
        """The trials of a slice ``i`` as a smaller chunk of views into this
        one, or trial ``i`` as a chunk of one copied out of it; ``draw``
        gives the inputs of a slice of trials that this chunk holds none of."""
        one = not isinstance(i, slice)
        i = slice(i, i + 1) if one else i
        own = ((name, a[i].copy() if one else a[i]) for name, a in self.arrays())
        return self.of_arrays(self.dims, itertools.chain(own, draw(i).arrays() if draw else ()))

    def encode(self) -> dict:
        """The JSON of the one trial of the chunk, without its leading axis."""
        out: dict = {"dims": {"n": self.dims.n, "m": self.dims.m}}
        for name, (a,) in self.arrays():
            out[name] = [_encode_array(b) for b in a] if name == "matrices" else _encode_array(a)
        return out

    @classmethod
    def decode(cls, payload: dict) -> "TrialInputs":
        """The chunk of one trial that :meth:`encode` wrote."""
        dims = Dims(payload["dims"]["n"], payload["dims"]["m"])
        return cls.of_arrays(dims, (
            (name, np.array([[_decode_array(b) for b in payload[name]]]) if name == "matrices"
             else _decode_array(payload[name])[None])
            for name in _FORMS + _ARRAYS if name in payload
        ))

    def digest(self) -> str:
        payload = json.dumps(self.encode(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _needed_kinds(lemma_ids: Sequence[str]) -> set[str]:
    """The input kinds the ids read; each id must be in the table, once."""
    for lemma_id in lemma_ids:
        if lemma_id not in lemmas.LEMMAS:
            raise ValueError(f"unknown lemma id {lemma_id!r}")
        if lemma_ids.count(lemma_id) > 1:
            raise ValueError(f"lemma id {lemma_id!r} requested twice")
    return set().union(*(lemmas.LEMMAS[lemma_id].kinds for lemma_id in lemma_ids))


def _within_budget(width: int) -> int:
    """The largest power of two p with p * width <= STACK_BUDGET, or 1."""
    return 1 << max(0, (STACK_BUDGET // width).bit_length() - 1)


def li_matrices(dims: Dims) -> int:
    """The k = max(1, m - 1) symmetric matrices a trial of the li suite draws."""
    return max(1, dims.m - 1)


def chunk_size(dims: Dims, lemma_ids: Iterable[str]) -> int:
    """Trials a campaign of ``lemma_ids`` samples and evaluates together.

    Each id is charged the widest stack a chunk holds per trial: the
    (m, n, n, n) tensor, m n^3 values, when it reads a derivative tensor,
    else the split draw's row of m n^2 + 1 normals and 3 uniforms, wider
    than the (m, n, n) form it draws, when it reads a form, else li's
    (k, n, n) matrices, k n^2.  The commutator stacks are not charged:
    ``forms.commutator_norm2`` keeps its own within the budget.  A chunk
    keeps the largest charge within ``STACK_BUDGET`` but holds at least
    ``CHUNK`` and at most ``BLOCK`` trials, so it divides a block.  A
    derivative slice's Codazzi gather is wider and not charged
    (:func:`derivative_slice`).
    """
    m, n, k = dims.m, dims.n, li_matrices(dims)
    width = max(m * n**3 if "grad" in kinds else m * n * n + 4 if "form" in kinds
                else k * n * n
                for kinds in (lemmas.LEMMAS[lemma_id].kinds for lemma_id in lemma_ids))
    return min(BLOCK, max(CHUNK, _within_budget(width)))


def derivative_slice(dims: Dims, lemma_ids: Iterable[str]) -> int:
    """Trials per evaluation unit of a chunk when an id reads a derivative
    tensor: at least 8, no more than the chunk, and within ``STACK_BUDGET``
    for the (m, n, n, n) tensors when it can be.  The Codazzi orbit gather
    of ``GradientSample.asymmetry``, 6 C(n+2, 3) m values a trial, is wider
    and not counted: a slice of 8 at n=8, m=3 gathers 17,280 (135 KiB)."""
    return min(chunk_size(dims, lemma_ids), max(8, _within_budget(dims.m * dims.n**3)))


def _chunk_streams(
    seed: int, trials: int, kinds: set[str], chunk: int
) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """The first trial and the substream states by kind of every chunk of
    ``chunk`` trials of a campaign (a divisor of ``BLOCK``); the states are
    hashed once per block of ``BLOCK`` trials, and a chunk's are a slice."""
    for block in range(0, trials, BLOCK):
        numbers = range(block, min(block + BLOCK, trials))
        streams = {kind: samplers.substream_states(seed, numbers, tag)
                   for kind, tag in _KIND_TAGS.items() if kind in kinds}
        for offset in range(0, min(BLOCK, trials - block), chunk):
            yield block + offset, {
                kind: s[offset:offset + chunk] for kind, s in streams.items()
            }
        del streams  # one block of states at a time


def _deferred(spec: SamplerSpec, streams: Mapping[str, np.ndarray], kinds: set[str]
              ) -> Callable[[slice], TrialInputs] | None:
    """The draw of the ``kinds`` of inputs of a slice of a chunk's trials,
    each from its own substream state in ``streams``; None when there are none."""
    return None if not kinds else lambda index: sample_trial_inputs(
        spec, {kind: s[index] for kind, s in streams.items() if kind in kinds}, kinds)


def sample_trial_inputs(
    spec: SamplerSpec, streams: Mapping[str, np.ndarray], kinds: set[str]
) -> TrialInputs:
    """The ``kinds`` of inputs of a chunk of trials, stacked along a leading
    axis, each kind of each trial from its own row of substream states in
    ``streams``; a boundary form sits at ``lemmas.boundary_offset(spec.d)``."""
    inputs = TrialInputs(dims=spec.dims)
    if "boundary" in kinds:
        inputs.form, inputs.boundary_form = sample_boundary(spec, streams["form"])
    elif "form" in kinds:
        inputs.form = sample_form(spec, streams["form"])
    if "matrices" in kinds:
        inputs.matrices = symmetric_matrices(
            streams["matrices"], spec.dims.n, li_matrices(spec.dims), spec.sigma
        )
    if "grad" in kinds:
        inputs.grad_tensor = symmetric_three_tensor(streams["grad"], spec.dims, spec.sigma)
    if "w" in kinds:
        inputs.w = sample_w(streams["w"], spec.dims, spec.sigma)
    return inputs


@functools.cache
def _plan(lemma_ids: tuple[str, ...], dims: Dims) -> tuple[tuple, int | None]:
    """The lemma groups that ``lemma_ids`` run, each with its requested ids
    and their rows in ``lemma_ids``, and the trials of each evaluation unit
    (None: the whole chunk), found once per id list."""
    kinds = _needed_kinds(lemma_ids)
    groups = tuple(
        (evaluate, ids, tuple(map(lemma_ids.index, ids))) for evaluate in lemmas.GROUPS
        if (ids := tuple(i for i in lemma_ids if lemmas.LEMMAS[i].evaluate is evaluate))
    )
    return groups, derivative_slice(dims, lemma_ids) if "grad" in kinds else None


def evaluate_trial(
    lemma_ids: Sequence[str],
    chunk: TrialInputs,
    spec: SamplerSpec,
    draw: Callable[[slice], TrialInputs] | None = None,
) -> lemmas.InequalityCheck:
    """Evaluate every requested inequality on a chunk of trials.

    ``chunk`` holds the inputs stacked along a leading axis; the check has
    one row of lhs and rhs per id of ``lemma_ids`` and one column per trial,
    and every constant an id reads comes from ``spec``.
    Each group of the lemma table runs once per evaluation unit (the whole
    chunk, or slices of :func:`derivative_slice` trials when an id reads a
    derivative tensor), which splits each of its forms once and builds one
    derivative sample (with no split when the chunk holds no form).  A
    chunk that holds no derivative tensors takes ``draw``, which gives
    those of a slice of its trials right before the slice is evaluated.
    """
    groups, slice_trials = _plan(tuple(lemma_ids), chunk.dims)
    trials = len(next(chunk.arrays())[1])
    lhs, rhs = np.empty((len(lemma_ids), trials)), np.empty((len(lemma_ids), trials))
    for start in range(0, trials, slice_trials or trials):
        # a slice's inputs are views of the chunk's, and its tensors its own
        part = slice(start, start + (slice_trials or trials))
        inputs = chunk if slice_trials is None else chunk.trial(part, draw)
        for evaluate, ids, rows in groups:
            for row, check in zip(rows, evaluate(ids, inputs, spec)):
                lhs[row, part], rhs[row, part] = check.lhs, check.rhs
        del inputs  # its points and tensors are freed before the next slice is drawn
    return lemmas.InequalityCheck(",".join(lemma_ids), lhs, rhs)


def _violated(check: lemmas.InequalityCheck, tol: float) -> np.ndarray:
    # an lhs of +inf over a finite rhs has scale inf: its -inf slack would
    # otherwise meet the bound -inf
    return ~(check.slack >= -tol * check.scale) | (check.slack == -np.inf)


def write_counterexample(
    path: str,
    lemma_id: str,
    spec: SamplerSpec,
    trial: int,
    inputs: TrialInputs,
    check: lemmas.InequalityCheck,
) -> None:
    payload = {
        "lemma_id": lemma_id,
        "seed": spec.seed,
        "trial": trial,
        "constants": {k: None if (v := getattr(spec, k)) is None else _fmt(v) for k in CONSTANTS},
        "lhs": _fmt(check.lhs),
        "rhs": _fmt(check.rhs),
        "slack": _fmt(check.slack),
        "inputs": inputs.encode(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def load_counterexample(path: str) -> tuple[str, TrialInputs, SamplerSpec]:
    """The lemma id, trial and spec of a counterexample file; the file keeps
    no sigma, which only a draw reads, so the spec has the default one."""
    with open(path) as fh:
        payload = json.load(fh)
    inputs = TrialInputs.decode(payload["inputs"])
    spec = SamplerSpec(inputs.dims, seed=payload["seed"], **{
        k: None if v is None else float(v) for k, v in payload["constants"].items()
    })
    return payload["lemma_id"], inputs, spec


def run_campaign(
    spec: SamplerSpec,
    lemma_ids: Sequence[str],
    trials: int,
    tol: float = DEFAULT_TOL,
    counterexample_dir: str | None = None,
) -> list[CheckResult]:
    """Run ``trials`` seeded trials of every inequality in ``lemma_ids``.

    Results come back in the order the ids were given, and an id given
    twice is a ``ValueError``; an empty id list yields an empty result list.
    Identical (spec, ids) reproduce bit-identical inputs and results.  tol
    is relative to the scale max(1, |lhs|, |rhs|) and must be in [0, 1): at
    2 it would pass every finite slack, as |rhs - lhs| <= 2 max(|lhs|, |rhs|).
    """
    if trials < 1:
        raise ValueError(f"a campaign needs at least one trial, got {trials}")
    if not 0 <= tol < 1:
        raise ValueError(f"tol must be in [0, 1), got {tol}")
    lemma_ids = list(lemma_ids)
    if not lemma_ids:
        return []
    lemmas.require_c(lemma_ids, spec.dims.n, spec.c, spec.eps0)  # before a form is drawn at c
    kinds = _needed_kinds(lemma_ids)
    chunk_trials = chunk_size(spec.dims, lemma_ids)

    stats = {lem: {"violations": 0, "worst": np.inf, "trial": None} for lem in lemma_ids}
    worst_inputs: dict[int, TrialInputs] = {}  # one copy per worst trial
    for start, streams in _chunk_streams(spec.seed, trials, kinds, chunk_trials):
        # a chunk samples what its ids read but their derivative tensors,
        # which each slice of it, and each trial it keeps, draws on its own
        chunk = sample_trial_inputs(spec, streams, kinds - {"grad"})
        tensors = _deferred(spec, streams, kinds & {"grad"})
        judged = evaluate_trial(lemma_ids, chunk, spec, tensors)
        # the first least slack of each id in the chunk; NaN is never the worst
        slack = np.where(np.isnan(judged.slack), np.inf, judged.slack)
        worst = np.argmin(slack, axis=1)
        for lemma_id, i, least in zip(lemma_ids, worst.tolist(), slack.min(axis=1).tolist()):
            st = stats[lemma_id]
            if least < st["worst"]:
                st["worst"], st["trial"] = least, start + i
                if st["trial"] not in worst_inputs:
                    worst_inputs[st["trial"]] = chunk.trial(i, tensors)
        for k, i in zip(*np.nonzero(_violated(judged, tol))):
            lemma_id, trial = lemma_ids[k], start + int(i)
            stats[lemma_id]["violations"] += 1
            if counterexample_dir is not None:
                # the trial as drawn, and its sides as a chunk of one, as its replay gives them
                witness = chunk.trial(int(i), tensors)
                sides = evaluate_trial([lemma_id], witness, spec)
                os.makedirs(counterexample_dir, exist_ok=True)
                name = f"counterexample_{lemma_id.replace('.', '_')}_{trial}.json"
                write_counterexample(
                    os.path.join(counterexample_dir, name), lemma_id, spec, trial,
                    witness, lemmas.InequalityCheck(lemma_id, sides.lhs[0, 0], sides.rhs[0, 0]),
                )
        del chunk, streams, tensors  # free them before the next ones are drawn
        worst_trials = {st["trial"] for st in stats.values()}
        worst_inputs = {t: inputs for t, inputs in worst_inputs.items() if t in worst_trials}
    digests = {t: inputs.digest() for t, inputs in worst_inputs.items()}
    return [
        CheckResult(
            lemma_id=lem,
            trials=trials,
            violations=stats[lem]["violations"],
            worst_slack=float(stats[lem]["worst"]) if np.isfinite(stats[lem]["worst"]) else None,
            worst_input_digest=digests.get(stats[lem]["trial"], ""),
            seed=spec.seed,
        )
        for lem in lemma_ids
    ]
