"""Command-line front end: constants, verify, simulate, rescale.

Exit codes: 0 all checks passed, 1 at least one inequality violation (a
replayable counterexample file is written), 2 usage or configuration error.
The RNG seed is always echoed in machine-readable output; without --seed it
is fresh entropy.  simulate and rescale write the same CSV text to --out or,
without it, to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import lemmas
from .campaign import CONSTANTS, run_campaign
from .constants import (
    PinchingConstants,
    c_n,
    d_lower_bound,
    kappa_n,
    space_form_d_lower,
)
from .errors import PinchflowError
from .flow import (CylinderFlow, HyperbolicSphereFlow, ProductSpheresFlow, SphereFlow,
                   read_csv, simulate, write_csv, write_rows)
from .forms import Dims
from .rescale import rescale as rescale_series, write_rescaled_csv
from .samplers import SamplerSpec

# the ids of each suite of the lemma table, in report order, and all of them
SUITES = {
    suite: [i for i, lemma in lemmas.LEMMAS.items() if lemma.suite == suite]
    for suite in dict.fromkeys(lemma.suite for lemma in lemmas.LEMMAS.values())
}
SUITES["all"] = list(lemmas.LEMMAS)

_FMT = ".17g"


def _require_finite(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")


def cmd_constants(args: argparse.Namespace) -> int:
    _require_finite(args, "c", "K1", "K2", "L", "Kbar")
    n, m = args.n, args.m
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    regime = "general" if args.regime == "general" else "codim_estimate"
    c = c_n(n, regime) if args.c is None else args.c
    lines = [f"n = {n}, m = {m}"]
    if args.c is None:
        lines.append(f"c ({regime}) = {c} = {format(float(c), _FMT)}")
    else:
        lines.append(f"c (override) = {format(float(c), _FMT)}")
    if args.Kbar is not None:
        d_low = space_form_d_lower(n, float(c))  # refuses c <= 1/n for either sign
        d_low = d_low if args.Kbar < 0 else 0.0
        lines.append(f"Kbar = {format(args.Kbar, _FMT)}")
        lines.append(f"d_lower (space form) = {format(d_low, _FMT)}")
    else:
        d_low = d_lower_bound(n, m, float(c), args.K1, args.K2, args.L)
        tag = "flat" if args.K1 + args.K2 + args.L == 0 else "bounded background"
        lines.append(f"d_lower ({tag}) = {format(d_low, _FMT)}")
    try:
        kap = kappa_n(n, float(c))
        lines.append(f"kappa = {format(kap, _FMT)}")
    except PinchflowError as exc:
        lines.append(f"kappa undefined: {exc}")
    print("\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    # the options as typed, checked before c and delta are derived from eps0
    typed = {k: v for k in ("delta", "eta", "eps0") if (v := getattr(args, k)) is not None}
    spec = SamplerSpec(Dims(n, m), **typed)
    seed = args.seed if args.seed is not None else int(np.random.SeedSequence().entropy) % 2**63
    ids = SUITES[args.suite]
    c, delta, eps0 = lemmas.default_constants(ids, n, args.c, args.delta, args.eps0)
    spec = replace(spec, c=c, d=args.d, seed=seed, delta=delta, eps0=eps0)
    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else os.getcwd()
    results = run_campaign(spec, ids, args.trials, tol=args.tol, counterexample_dir=out_dir)
    report = {
        "seed": seed,
        "suite": args.suite,
        "dims": {"n": n, "m": m},
        "constants": {k: getattr(spec, k) for k in CONSTANTS},
        "trials": args.trials,
        "results": [asdict(r) for r in results],
    }
    text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if any(r.violations for r in results) else 0


def _parse_params(spec: str) -> dict[str, float]:
    out: dict[str, float] = {}
    if not spec:
        return out
    for item in spec.split(","):
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"malformed param {item!r}, expected k=v")
        key = key.strip()
        if key in out:
            raise ValueError(f"parameter {key} given twice")
        out[key] = float(value)
    return out


# the constructor of each family and its --params keys, in constructor
# order; a key without a default is required
_FAMILIES = {
    "sphere": (SphereFlow, ("n", "m", "r")),
    "cylinder": (CylinderFlow, ("n", "m", "r")),
    "product": (ProductSpheresFlow, ("p", "q", "m", "a", "b")),
    "hyperbolic": (HyperbolicSphereFlow, ("n", "m", "r", "kbar")),
}
_KEY_DEFAULTS = {"n": 8, "m": 2, "p": 7, "q": 1, "kbar": -1.0}
_DIMENSION_KEYS = ("n", "m", "p", "q")


def _build_family(kind: str, params: dict[str, float]):
    constructor, keys = _FAMILIES[kind]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(f"family {kind!r} takes the parameters {', '.join(keys)}, "
                         f"not {', '.join(unknown)}")
    values = []
    for key in keys:
        value = params.get(key, _KEY_DEFAULTS.get(key))
        if value is None:
            raise ValueError(f"family {kind!r} needs the parameter {key}")
        if key in _DIMENSION_KEYS:
            if not float(value).is_integer():
                raise ValueError(f"parameter {key}={value} must be an integer")
            value = int(value)
        values.append(value)
    return constructor(*values)


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    family = _build_family(args.family, params)
    n = family.n
    c = args.c if args.c is not None else float(c_n(n, "general"))
    kbar = family.kbar if args.family == "hyperbolic" else None
    d = args.d if args.d is not None else 0.0 if kbar is None else space_form_d_lower(n, c)
    constants = PinchingConstants(Dims(n, family.m), c, d, Kbar=kbar)
    t_end = args.t_end if args.t_end is not None else family.blowup_time()
    series = simulate(family, constants, dt=args.dt, t_end=t_end, every=args.every)
    if args.out:
        write_csv(series, args.out)
    else:
        write_rows(series, sys.stdout)
    return 0


def cmd_rescale(args: argparse.Namespace) -> int:
    rescaled = rescale_series(read_csv(args.infile), args.base_row, kbar=args.kbar)
    if args.out:
        write_rescaled_csv(rescaled, args.out)
    else:
        write_rows(rescaled.records, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchflow",
        description="pinching constants, inequality campaigns and model flows "
        "for quadratically pinched mean curvature flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print c, the d lower bound and kappa")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--regime", choices=("general", "codim"), default="general")
    p.add_argument("--c", type=float, default=None, help="override the coefficient")
    p.add_argument("--K1", type=float, default=0.0)
    p.add_argument("--K2", type=float, default=0.0)
    p.add_argument("--L", type=float, default=0.0)
    p.add_argument("--Kbar", type=float, default=None)

    p = sub.add_parser("verify", help="run a seeded inequality campaign")
    p.add_argument("--suite", choices=tuple(SUITES), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="evolve a closed-form flow family")
    p.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p.add_argument("--params", required=True, help="comma-separated k=v pairs")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--every", type=int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("rescale", help="parabolic rescaling of a CSV series")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--base-row", dest="base_row", type=int, required=True)
    p.add_argument("--kbar", type=float, default=0.0)
    p.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    # the command is looked up on every call, not bound into the cached
    # parser, so a rebound module attribute cmd_* is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (PinchflowError, ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
