"""Seeded verification campaigns with counterexample capture and shrinking.

A campaign draws ``trials`` independent samples from per-trial substreams of
(seed, trial, input-kind) and evaluates a set of inequalities on each.  It
samples and evaluates chunks of ``CHUNK`` trials stacked along a leading
axis; the kato and gradient estimates run on slices of ``DERIVATIVE_SLICE``
trials of a chunk, which bounds the memory of their (m, n, n, n)
temporaries.  A trial violates an inequality unless
slack >= -tol * max(1, |lhs|, |rhs|), so a NaN slack is a violation.  On
violation the offending inputs are halved while the violation persists and
the shrunk witness is written to a replayable JSON file (all entries as
decimal strings with 17 significant digits).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lemmas
from .errors import PinchflowError
from .forms import CHUNK, Dims, SecondFundamentalForm, gradient_sample
from .samplers import (
    TAG_GRADIENT,
    TAG_MATRICES,
    TAG_W,
    PointSample,
    SamplerSpec,
    rescale_to_boundary,
    sample_form,
    sample_w,
    symmetric_matrices,
    symmetric_three_tensor,
    trial_rngs,
)

DEFAULT_TOL = 1e-9
MAX_SHRINK_STEPS = 64
# trials per kato/gradient evaluation: a whole chunk's derivative temporaries
# raise the peak memory of a campaign by about 6% and run no faster
DERIVATIVE_SLICE = CHUNK // 4


@dataclass(frozen=True)
class CheckResult:
    """Aggregate verdict of one inequality over a campaign."""

    lemma_id: str
    trials: int
    violations: int
    worst_slack: float
    worst_input_digest: str
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "trials": self.trials,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "worst_input_digest": self.worst_input_digest,
            "seed": self.seed,
        }


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _encode_array(a: np.ndarray) -> dict:
    return {
        "shape": list(a.shape),
        "entries": [_fmt(v) for v in np.asarray(a, dtype=np.float64).ravel()],
    }


def _decode_array(d: dict) -> np.ndarray:
    return np.array([float(s) for s in d["entries"]], dtype=np.float64).reshape(
        d["shape"]
    )


_FORMS = ("form", "boundary_form")
_ARRAYS = ("matrices", "grad_tensor", "w")


@dataclass
class TrialInputs:
    """Raw sampled inputs of one trial (pre-derivation), for replay, or of a
    chunk of trials stacked along a leading axis."""

    dims: Dims
    form: SecondFundamentalForm | None = None
    boundary_form: SecondFundamentalForm | None = None
    matrices: np.ndarray | None = None  # (count, n, n) symmetric matrices
    grad_tensor: np.ndarray | None = None
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.matrices is not None:
            self.matrices = np.asarray(self.matrices, dtype=np.float64)

    @classmethod
    def stack(cls, trials: Sequence["TrialInputs"]) -> "TrialInputs":
        """The chunk of the given trials, stacked along a leading axis."""
        chunk = cls(dims=trials[0].dims)
        for name in _FORMS + _ARRAYS:
            if getattr(trials[0], name) is None:
                continue
            values = [getattr(inputs, name) for inputs in trials]
            if name in _FORMS:
                comps = np.array([form.components for form in values])
                setattr(chunk, name, SecondFundamentalForm(chunk.dims, comps))
            else:
                setattr(chunk, name, np.array(values, dtype=np.float64))
        return chunk

    def trial(self, i: int | slice) -> "TrialInputs":
        """Trial ``i`` of a chunk on its own, or the trials of a slice ``i``
        as a smaller chunk, copied out of the chunk."""
        inputs = TrialInputs(dims=self.dims)
        for name in _FORMS + _ARRAYS:
            value = getattr(self, name)
            if value is None:
                continue
            if name in _FORMS:
                value = SecondFundamentalForm(self.dims, value.components[i].copy())
            else:
                value = value[i].copy()
            setattr(inputs, name, value)
        return inputs

    def encode(self) -> dict:
        out: dict = {"dims": {"n": self.dims.n, "m": self.dims.m}}
        if self.form is not None:
            out["form"] = _encode_array(self.form.components)
        if self.boundary_form is not None:
            out["boundary_form"] = _encode_array(self.boundary_form.components)
        if self.matrices is not None:
            out["matrices"] = [_encode_array(b) for b in self.matrices]
        if self.grad_tensor is not None:
            out["grad_tensor"] = _encode_array(self.grad_tensor)
        if self.w is not None:
            out["w"] = _encode_array(self.w)
        return out

    @classmethod
    def decode(cls, payload: dict) -> "TrialInputs":
        dims = Dims(payload["dims"]["n"], payload["dims"]["m"])
        inputs = cls(dims=dims)
        if "form" in payload:
            inputs.form = SecondFundamentalForm(dims, _decode_array(payload["form"]))
        if "boundary_form" in payload:
            inputs.boundary_form = SecondFundamentalForm(
                dims, _decode_array(payload["boundary_form"])
            )
        if "matrices" in payload:
            inputs.matrices = np.array([_decode_array(b) for b in payload["matrices"]])
        if "grad_tensor" in payload:
            inputs.grad_tensor = _decode_array(payload["grad_tensor"])
        if "w" in payload:
            inputs.w = _decode_array(payload["w"])
        return inputs

    def halved(self) -> "TrialInputs":
        return TrialInputs(
            dims=self.dims,
            form=self.form.scaled(0.5) if self.form is not None else None,
            boundary_form=(
                self.boundary_form.scaled(0.5) if self.boundary_form is not None else None
            ),
            matrices=0.5 * self.matrices if self.matrices is not None else None,
            grad_tensor=0.5 * self.grad_tensor if self.grad_tensor is not None else None,
            w=0.5 * self.w if self.w is not None else None,
        )

    def digest(self) -> str:
        payload = json.dumps(self.encode(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignConfig:
    """Lemma parameters shared by all trials of a campaign."""

    c: float = 0.0
    d: float = 0.0
    delta: float = 0.5
    eta: float | None = None       # kato; defaults to (n-1)/(n(n+2))
    eps0: float | None = None      # case-2 gradient regime margin


def _needed_kinds(lemma_ids: Sequence[str]) -> set[str]:
    kinds: set[str] = set()
    for lemma_id in lemma_ids:
        if lemma_id in lemmas.LI_IDS:
            kinds.add("matrices")
        elif lemma_id in lemmas.KATO_IDS:
            kinds.update(("form", "grad", "w"))
        elif lemma_id in lemmas.REACTION_IDS:
            kinds.add("form")
        elif lemma_id in lemmas.BOUNDARY_IDS:
            kinds.update(("form", "boundary"))
        elif lemma_id in lemmas.GRADIENT_IDS:
            kinds.update(("form", "grad"))
        else:
            raise ValueError(f"unknown lemma id {lemma_id!r}")
    return kinds


def sample_trial_inputs(
    spec: SamplerSpec, trials: int | Sequence[int], kinds: set[str]
) -> TrialInputs:
    """The inputs of one trial, or of a sequence of trials stacked along a
    leading axis; each kind of each trial comes from its own substream."""
    inputs = TrialInputs(dims=spec.dims)
    if "form" in kinds:
        inputs.form = sample_form(spec, trials)
    if "boundary" in kinds:
        if spec.distribution == "boundary":
            inputs.boundary_form = inputs.form
        else:
            d_boundary = spec.d if spec.d > 0 else 1.0
            inputs.boundary_form = rescale_to_boundary(inputs.form, spec.c, d_boundary)
    if "matrices" in kinds:
        inputs.matrices = symmetric_matrices(
            trial_rngs(spec.seed, trials, TAG_MATRICES),
            spec.dims.n, max(1, spec.dims.m - 1), spec.sigma,
        )
    if "grad" in kinds:
        rng = trial_rngs(spec.seed, trials, TAG_GRADIENT)
        inputs.grad_tensor = symmetric_three_tensor(rng, spec.dims, spec.sigma)
    if "w" in kinds:
        inputs.w = sample_w(trial_rngs(spec.seed, trials, TAG_W), spec.dims, spec.sigma)
    return inputs


def _derivative_checks(
    kato_ids: Sequence[str],
    gradient_ids: Sequence[str],
    chunk: TrialInputs,
    config: CampaignConfig,
) -> list[lemmas.InequalityCheck]:
    """The kato and gradient checks of a chunk of trials."""
    point = PointSample.from_form(chunk.form)
    grad = gradient_sample(point.decomp, point.H, chunk.grad_tensor)
    checks = []
    if "kato.3.1" in kato_ids:
        eta = config.eta if config.eta is not None else lemmas.default_kato_eta(
            chunk.dims.n
        )
        checks.append(lemmas.check_kato(grad, chunk.w, eta))
    if "kato.3.2" in kato_ids:
        checks.append(lemmas.check_kato_trace(grad, chunk.w))
    if gradient_ids:
        checks.extend(
            lemmas.gradient_checks(
                gradient_ids, point, grad,
                config.c, config.d, config.delta, config.eps0,
            )
        )
    return checks


def evaluate_trial(
    lemma_ids: Sequence[str],
    chunk: TrialInputs,
    config: CampaignConfig,
    d_boundary: float,
) -> list[lemmas.InequalityCheck]:
    """Evaluate every requested inequality on a chunk of trials.

    ``chunk`` holds the inputs stacked along a leading axis, and each check
    holds one lhs and rhs per trial.  li, the flat reaction estimates and the
    boundary estimate run once on the stacked inputs; the kato and gradient
    estimates run on stacked slices of ``DERIVATIVE_SLICE`` trials.
    """
    li_ids = [i for i in lemma_ids if i in lemmas.LI_IDS]
    kato_ids = [i for i in lemma_ids if i in lemmas.KATO_IDS]
    reaction_ids = [i for i in lemma_ids if i in lemmas.REACTION_IDS]
    boundary_ids = [i for i in lemma_ids if i in lemmas.BOUNDARY_IDS]
    gradient_ids = [i for i in lemma_ids if i in lemmas.GRADIENT_IDS]

    checks: list[lemmas.InequalityCheck] = []
    for _ in li_ids:
        checks.append(lemmas.check_li(chunk.matrices))
    if kato_ids or gradient_ids:
        slices = [
            _derivative_checks(
                kato_ids, gradient_ids,
                chunk.trial(slice(start, start + DERIVATIVE_SLICE)), config,
            )
            for start in range(0, len(chunk.form.components), DERIVATIVE_SLICE)
        ]
        for parts in zip(*slices):
            checks.append(lemmas.InequalityCheck(
                parts[0].lemma_id,
                np.concatenate([chk.lhs for chk in parts]),
                np.concatenate([chk.rhs for chk in parts]),
            ))
    if reaction_ids:
        checks.extend(
            lemmas.reaction_checks(
                reaction_ids, PointSample.from_form(chunk.form),
                config.c, config.d, config.delta,
            )
        )
    for _ in boundary_ids:
        checks.append(
            lemmas.boundary_check(
                PointSample.from_form(chunk.boundary_form), config.c, d_boundary
            )
        )
    return checks


def _violated(check: lemmas.InequalityCheck, tol: float) -> np.ndarray:
    return ~(check.slack >= -tol * check.scale)


def _shrink(
    lemma_id: str,
    inputs: TrialInputs,
    config: CampaignConfig,
    d_boundary: float,
    tol: float,
) -> tuple[TrialInputs, lemmas.InequalityCheck]:
    """Halve the inputs while the violation persists; return the last witness."""
    current = inputs
    check = evaluate_trial([lemma_id], TrialInputs.stack([current]), config, d_boundary)[0]
    for _ in range(MAX_SHRINK_STEPS):
        candidate = current.halved()
        try:
            cand_check = evaluate_trial(
                [lemma_id], TrialInputs.stack([candidate]), config, d_boundary
            )[0]
        except PinchflowError:
            break
        if _violated(cand_check, tol)[0]:
            current, check = candidate, cand_check
        else:
            break
    return current, lemmas.InequalityCheck(lemma_id, check.lhs[0], check.rhs[0])


def write_counterexample(
    path: str,
    lemma_id: str,
    spec: SamplerSpec,
    config: CampaignConfig,
    trial: int,
    inputs: TrialInputs,
    check: lemmas.InequalityCheck,
) -> None:
    payload = {
        "lemma_id": lemma_id,
        "seed": spec.seed,
        "trial": trial,
        "constants": {
            "c": _fmt(config.c), "d": _fmt(config.d), "delta": _fmt(config.delta),
            "eta": None if config.eta is None else _fmt(config.eta),
            "eps0": None if config.eps0 is None else _fmt(config.eps0),
        },
        "lhs": _fmt(check.lhs),
        "rhs": _fmt(check.rhs),
        "slack": _fmt(check.slack),
        "inputs": inputs.encode(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def load_counterexample(path: str) -> tuple[str, TrialInputs, CampaignConfig]:
    with open(path) as fh:
        payload = json.load(fh)
    consts = payload["constants"]
    config = CampaignConfig(
        c=float(consts["c"]),
        d=float(consts["d"]),
        delta=float(consts["delta"]),
        eta=None if consts["eta"] is None else float(consts["eta"]),
        eps0=None if consts["eps0"] is None else float(consts["eps0"]),
    )
    return payload["lemma_id"], TrialInputs.decode(payload["inputs"]), config


def run_campaign(
    spec: SamplerSpec,
    lemma_ids: Sequence[str],
    trials: int,
    tol: float = DEFAULT_TOL,
    config: CampaignConfig | None = None,
    counterexample_dir: str | None = None,
) -> list[CheckResult]:
    """Run ``trials`` seeded trials of every inequality in ``lemma_ids``.

    Results come back in the order the ids were given; an empty id list
    yields an empty result list.  Identical (seed, spec, ids) reproduce
    bit-identical inputs and results.
    """
    if trials < 1:
        raise ValueError(f"a campaign needs at least one trial, got {trials}")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    lemma_ids = list(lemma_ids)
    if not lemma_ids:
        return []
    if config is None:
        config = CampaignConfig(c=spec.c, d=spec.d)
    kinds = _needed_kinds(lemma_ids)
    d_boundary = spec.d if spec.d > 0 else 1.0

    stats = {
        lem: {"violations": 0, "worst": np.inf, "worst_inputs": None}
        for lem in lemma_ids
    }
    for start in range(0, trials, CHUNK):
        chunk = sample_trial_inputs(spec, range(start, min(start + CHUNK, trials)), kinds)
        for check in evaluate_trial(lemma_ids, chunk, config, d_boundary):
            st = stats[check.lemma_id]
            # the first least slack of the chunk; NaN is never the worst
            slack = np.where(np.isnan(check.slack), np.inf, check.slack)
            worst = int(np.argmin(slack))
            if slack[worst] < st["worst"]:
                st["worst"] = slack[worst]
                st["worst_inputs"] = chunk.trial(worst)
            for i in np.flatnonzero(_violated(check, tol)):
                trial = start + int(i)
                st["violations"] += 1
                shrunk_inputs, shrunk_check = _shrink(
                    check.lemma_id, chunk.trial(i), config, d_boundary, tol
                )
                if counterexample_dir is not None:
                    os.makedirs(counterexample_dir, exist_ok=True)
                    name = f"counterexample_{check.lemma_id.replace('.', '_')}_{trial}.json"
                    write_counterexample(
                        os.path.join(counterexample_dir, name),
                        check.lemma_id, spec, config, trial,
                        shrunk_inputs, shrunk_check,
                    )
        del chunk  # free it before the next one is sampled
    return [
        CheckResult(
            lemma_id=lem,
            trials=trials,
            violations=stats[lem]["violations"],
            worst_slack=float(stats[lem]["worst"]),
            worst_input_digest=(
                stats[lem]["worst_inputs"].digest()
                if stats[lem]["worst_inputs"] is not None
                else ""
            ),
            seed=spec.seed,
        )
        for lem in lemma_ids
    ]
