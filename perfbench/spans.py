"""Outside-in span tracer for the pinchflow library.

The library binds most functions by name (``from .forms import
principal_decompose``), so a function is traced by rebinding every module
attribute that refers to the same function object, in every loaded
``pinchflow`` module.  Methods are patched on their class.  Nothing under
``src/`` changes; :meth:`Tracer.installed` restores every binding on exit.

Spans nest.  A span's self time is its duration minus the time its child
spans cover.  Counts (calls, rejection attempts, RK4 step sizes, shrink
evaluations) are recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from dataclasses import dataclass, field

# (span name, module, attribute path); the span name is the module's short
# name plus the attribute path, as the per-layer metrics are named.
SPANS = [
    ("cli.cmd_verify", "pinchflow.cli", "cmd_verify"),
    ("cli.cmd_simulate", "pinchflow.cli", "cmd_simulate"),
    ("cli.cmd_rescale", "pinchflow.cli", "cmd_rescale"),
    ("campaign.run_campaign", "pinchflow.campaign", "run_campaign"),
    ("campaign.sample_trial_inputs", "pinchflow.campaign", "sample_trial_inputs"),
    ("campaign.evaluate_trial", "pinchflow.campaign", "evaluate_trial"),
    ("samplers.trial_rng", "pinchflow.samplers", "trial_rng"),
    ("samplers.sample_form", "pinchflow.samplers", "sample_form"),
    ("samplers.sample_pinched", "pinchflow.samplers", "sample_pinched"),
    ("samplers.symmetric_matrices", "pinchflow.samplers", "symmetric_matrices"),
    ("samplers.symmetric_three_tensor", "pinchflow.samplers", "symmetric_three_tensor"),
    ("forms.symmetrize", "pinchflow.forms", "symmetrize"),
    ("forms.mean_curvature", "pinchflow.forms", "mean_curvature"),
    ("forms.principal_decompose", "pinchflow.forms", "principal_decompose"),
    ("forms.normal_curvature", "pinchflow.forms", "normal_curvature"),
    ("forms.gradient_sample", "pinchflow.forms", "gradient_sample"),
    ("forms.GradientSample.asymmetry", "pinchflow.forms", "GradientSample.asymmetry"),
    ("reaction.gram_norm2", "pinchflow.reaction", "gram_norm2"),
    ("reaction.r2", "pinchflow.reaction", "r2"),
    ("reaction.boundary_reaction_bound", "pinchflow.reaction", "boundary_reaction_bound"),
    ("lemmas.check_li", "pinchflow.lemmas", "check_li"),
    ("lemmas.check_kato", "pinchflow.lemmas", "check_kato"),
    ("lemmas.check_kato_trace", "pinchflow.lemmas", "check_kato_trace"),
    ("lemmas.reaction_checks", "pinchflow.lemmas", "reaction_checks"),
    ("lemmas.gradient_quantities", "pinchflow.lemmas", "gradient_quantities"),
    ("lemmas.gradient_checks", "pinchflow.lemmas", "gradient_checks"),
    ("flow.simulate", "pinchflow.flow", "simulate"),
    ("flow.step_rk4", "pinchflow.flow", "step_rk4"),
    ("flow.diagnostics", "pinchflow.flow", "diagnostics"),
    ("flow.write_csv", "pinchflow.flow", "write_csv"),
    ("flow.read_csv", "pinchflow.flow", "read_csv"),
    ("constants.pinching_f", "pinchflow.constants", "pinching_f"),
    ("constants.pinching_Q", "pinchflow.constants", "pinching_Q"),
    ("rescale.rescale", "pinchflow.rescale", "rescale"),
    ("rescale.write_rescaled_csv", "pinchflow.rescale", "write_rescaled_csv"),
]

# spans whose work is proportional to the records they take or return
PER_RECORD = {
    "flow.write_csv": lambda args, result: len(args[0]),
    "flow.read_csv": lambda args, result: len(result),
    "rescale.rescale": lambda args, result: len(result.records),
    "rescale.write_rescaled_csv": lambda args, result: len(args[0].records),
}


@dataclass
class Counts:
    """Exact counts; they depend only on the inputs, never on the clock."""

    calls: dict[str, int] = field(default_factory=dict)
    trials: int = 0
    pinched_returned: int = 0
    pinched_attempts: int = 0
    steps: int = 0
    step_halvings: int = 0
    records: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects self time, calls and layer counts for the spans in ``SPANS``."""

    def __init__(self) -> None:
        names = [name for name, _, _ in SPANS]
        self.self_ns = dict.fromkeys(names, 0)
        self.counts = Counts(calls=dict.fromkeys(names, 0))
        self.trial_ns: list[int] = []  # sampling plus evaluation, per trial
        self._pending_trial_ns: int | None = None
        self._stack: list[list] = []  # open spans: [name, child_ns, args, kwargs]
        self._observers = {
            **{name: self._records for name in PER_RECORD},
            "campaign.sample_trial_inputs": self._trial_sampled,
            "campaign.evaluate_trial": self._trial_evaluated,
            "samplers.sample_pinched": self._pinched_returned,
            "forms.symmetrize": self._symmetrized,
            "flow.step_rk4": self._rk4_step,
        }

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        self_ns, calls = self.self_ns, self.counts.calls
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0, args, kwargs]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(name, args, kwargs, result, elapsed)
            return result

        return traced

    def _records(self, name, args, kwargs, result, elapsed) -> None:
        records = self.counts.records
        records[name] = records.get(name, 0) + PER_RECORD[name](args, result)

    def _trial_sampled(self, name, args, kwargs, result, elapsed) -> None:
        self.counts.trials += 1
        self._pending_trial_ns = elapsed

    def _trial_evaluated(self, name, args, kwargs, result, elapsed) -> None:
        # the first evaluation after sampling is the trial itself; any later
        # one before the next sample is a shrink evaluation
        if self._pending_trial_ns is not None:
            self.trial_ns.append(self._pending_trial_ns + elapsed)
            self._pending_trial_ns = None

    def _pinched_returned(self, name, args, kwargs, result, elapsed) -> None:
        self.counts.pinched_returned += 1

    def _symmetrized(self, name, args, kwargs, result, elapsed) -> None:
        # sample_pinched symmetrizes once per rejection attempt
        if self._stack and self._stack[-1][0] == "samplers.sample_pinched":
            self.counts.pinched_attempts += 1

    def _rk4_step(self, name, args, kwargs, result, elapsed) -> None:
        self.counts.steps += 1
        dt = args[1] if len(args) > 1 else kwargs["dt"]
        for frame_name, _, sim_args, sim_kwargs in reversed(self._stack):
            if frame_name == "flow.simulate":
                nominal = sim_kwargs.get("dt", sim_args[2] if len(sim_args) > 2 else None)
                if nominal is not None and dt < nominal:
                    self.counts.step_halvings += 1
                break

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every loaded pinchflow module."""
        patches = []  # (owner, attribute, original)
        modules = [m for k, m in sys.modules.items()
                   if k == "pinchflow" or k.startswith("pinchflow.")]
        try:
            for name, module, path in SPANS:
                owner = sys.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                if outer:  # a method: patch the class
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def _nearest_rank(sorted_values: list[int], q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1])


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, first_round: Counts, traced_wall_s: float, trace_overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Times are over every traced round; counts are over ``first_round``, the
    counts of the first traced round, whose inputs depend only on the seed.
    """
    total = tracer.counts
    wall_ns = traced_wall_s * 1e9
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in SPANS:
        self_ns = tracer.self_ns[name]
        calls = total.calls[name]
        if name.startswith("cli."):
            out[f"{name}.self_ms"] = (_per(self_ns, calls) / 1e6, "ms")
        elif name == "campaign.run_campaign":
            out["campaign.self_us_per_trial"] = (_per(self_ns, total.trials) / 1e3, "us")
        elif name in PER_RECORD:
            recs = total.records.get(name, 0)
            out[f"{name}.us_per_record"] = (_per(self_ns, recs) / 1e3, "us")
        else:
            out[f"{name}.us_per_call"] = (_per(self_ns, calls) / 1e3, "us")
        out[f"{name}.share"] = (_per(self_ns, wall_ns), "ratio")
        if name == "flow.step_rk4":
            out["flow.steps"] = (float(first_round.steps), "count")
        else:
            out[f"{name}.calls"] = (float(first_round.calls[name]), "count")
    trials0 = first_round.trials
    out["samplers.trial_rng.calls_per_trial"] = (
        _per(first_round.calls["samplers.trial_rng"], trials0), "1/trial")
    out["forms.GradientSample.asymmetry.calls_per_trial"] = (
        _per(first_round.calls["forms.GradientSample.asymmetry"], trials0), "1/trial")
    out["samplers.pinched_accept_ratio"] = (
        _per(first_round.pinched_returned, first_round.pinched_attempts), "ratio")
    trial_ns = sorted(tracer.trial_ns)
    out["campaign.trial_us.p50"] = (_nearest_rank(trial_ns, 0.50) / 1e3, "us")
    out["campaign.trial_us.p99"] = (_nearest_rank(trial_ns, 0.99) / 1e3, "us")
    out["campaign.shrink_evals"] = (float(
        first_round.calls["campaign.evaluate_trial"]
        - first_round.calls["campaign.sample_trial_inputs"]), "count")
    out["flow.step_halvings"] = (float(first_round.step_halvings), "count")
    out["flow.records_written"] = (float(
        first_round.records.get("flow.write_csv", 0)
        + first_round.records.get("rescale.write_rescaled_csv", 0)), "count")
    out["trace_overhead"] = (trace_overhead, "ratio")
    covered = sum(tracer.self_ns.values())
    out["unattributed_share"] = (_per(wall_ns - covered, wall_ns), "ratio")
    return out
