#!/usr/bin/env python3
"""Print the sha256 of every output of a fixed set of CLI runs.

The runs write into a temporary directory:

- ``verify`` of the li, kato, reaction, gradient and all suites at n=8,
  m=3, of li at n=2 and n=4 (m=3) and at n=2, m=2, of reaction and kato
  at n=5, m=2, of gradient at n=6, m=2 (the case-2 default constants), and
  of all at n=9, m=3 (the default c = 1/(n-2) of n >= 9), each at seeds 1
  and 7; li and reaction campaigns, and kato at n=5, m=2, run in chunks of
  more than 32 trials;
- ``verify`` of reaction at n=8, m=3 and d=1e8, seeds 1 and 7, where d is
  about 1e8 times the pinching budget of a drawn form, so each computed
  f = c|H|^2 - |A|^2 - d cancels terms 1e8 times its size;
- ``verify`` of reaction and li at n=16, m=16 (40 trials, seeds 1 and 7),
  where one point's commutator stack is wider than ``forms.STACK_BUDGET``,
  so ``commutator_norm2`` takes its blocks one point at a time;
- ``verify`` of li at n=4, m=3 (8 trials), and of gradient and kato at
  n=8, m=3 (12 trials each), seed 1, each with a false bound (the rhs of
  ``check_li``, of every ``gradient_checks`` result, or of
  ``check_kato_trace``, times 0.1), so that the kept worst trial and the
  counterexample files, each its trial as drawn, are digested too; kato's
  trials draw no form, and its kept trials draw their tensors on their own;
- ``simulate`` of the four flow families at dt = 1e-4, and of the product
  and hyperbolic families to blow-up at dt = 1e-5, as the ``flow``
  benchmark workload runs them;
- ``rescale`` of both product series, the dt = 1e-5 one at its middle row;
- the model checks of the five ``barrier_sweep.py`` families, written to
  ``model_checks.txt``: the ``repr`` of ``blowup_bound_check`` and of
  ``evolution_residual`` at fixed fractions of the blow-up time.

Every run must exit 0 but the false-bound runs, which must exit 1, so a
false bound that no campaign calls fails the script.  Each file the runs
leave, reports and counterexample files alike, gets one ``sha256  name``
line, so checking that a change keeps every output is a diff of two runs,
one in each checkout:

    python scripts/output_digests.py > digests.txt

No digest is pinned: BLAS builds round differently.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

# digest the code of the checkout this script is in, whatever is installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pinchflow import cli, flow, lemmas  # noqa: E402

import barrier_sweep  # noqa: E402  (this script's directory is on the path)

# (suite, n, m) of the verify runs
VERIFY = [("li", 8, 3), ("kato", 8, 3), ("reaction", 8, 3), ("gradient", 8, 3), ("all", 8, 3),
          ("li", 2, 3), ("li", 4, 3), ("li", 2, 2), ("reaction", 5, 2), ("kato", 5, 2),
          ("gradient", 6, 2), ("all", 9, 3)]
SEEDS = (1, 7)
# (suite, n, m, d) of the verify runs at a large d
LARGE_D = [("reaction", 8, 3, "1e8")]
TRIALS = 1500  # more than one block of 1024 substream states
# (suite, n, m) of the verify runs whose points are wider than the stack
# budget, and their trials: more than one chunk of 32
WIDE = [("reaction", 16, 16), ("li", 16, 16)]
WIDE_TRIALS = 40
# (lemma attribute, suite, n, m, trials) of the verify runs with a false bound
FALSE = [("check_li", "li", 4, 3, 8), ("gradient_checks", "gradient", 8, 3, 12),
         ("check_kato_trace", "kato", 8, 3, 12)]
# (output name, family, arguments) of the simulate runs
SIMULATE = [
    ("sphere", "sphere", ["--params", "n=8,m=2,r=1", "--dt", "1e-4"]),
    ("cylinder", "cylinder", ["--params", "n=8,m=2,r=1", "--dt", "1e-4"]),
    ("product", "product", ["--params", "p=7,q=1,a=1,b=4", "--dt", "1e-4", "--t-end", "0.07"]),
    ("hyperbolic", "hyperbolic", ["--params", "n=8,m=2,r=1,kbar=-1", "--dt", "1e-4"]),
    ("product_dt1e-5", "product", ["--params", "p=7,q=1,a=1,b=4", "--dt", "1e-5"]),
    ("hyperbolic_dt1e-5", "hyperbolic", ["--params", "r=0.5,kbar=-1", "--dt", "1e-5"]),
]
# (simulate output name, base row) of the rescale runs; the dt = 1e-5
# product series has 7254 rows
RESCALE = [("product", 120), ("product_dt1e-5", 3627)]
# fractions of each barrier_sweep family's blow-up time at which its
# evolution residual is written
RESIDUAL_TIMES = (0.0, 0.25, 0.5, 0.75)


def runs(out: str) -> list[list[str]]:
    """The argument lists of every run, writing into ``out``."""
    argvs = [
        ["verify", "--suite", suite, "--n", str(n), "--m", str(m), "--trials", str(TRIALS),
         "--seed", str(seed),
         "--out", os.path.join(out, f"verify_{suite}_n{n}_m{m}_s{seed}.json")]
        for suite, n, m in VERIFY for seed in SEEDS
    ]
    argvs += [
        ["verify", "--suite", suite, "--n", str(n), "--m", str(m), "--d", d,
         "--trials", str(TRIALS), "--seed", str(seed),
         "--out", os.path.join(out, f"verify_{suite}_n{n}_m{m}_d{d}_s{seed}.json")]
        for suite, n, m, d in LARGE_D for seed in SEEDS
    ]
    argvs += [
        ["verify", "--suite", suite, "--n", str(n), "--m", str(m), "--trials", str(WIDE_TRIALS),
         "--seed", str(seed),
         "--out", os.path.join(out, f"verify_{suite}_n{n}_m{m}_s{seed}.json")]
        for suite, n, m in WIDE for seed in SEEDS
    ]
    argvs += [
        ["simulate", "--family", family, *args, "--out", os.path.join(out, f"simulate_{name}.csv")]
        for name, family, args in SIMULATE
    ]
    argvs += [
        ["rescale", "--in", os.path.join(out, f"simulate_{name}.csv"), "--base-row", str(row),
         "--out", os.path.join(out, f"rescale_{name}.csv")]
        for name, row in RESCALE
    ]
    return argvs


def run(argv: list[str], expected: int = 0) -> None:
    """Run ``argv``; a true run exits 0, a false-bound run 1 (a violation)."""
    code = cli.main(argv)
    if code != expected:
        sys.exit(f"pinchflow {' '.join(argv)} exited {code}, not {expected}")


def tenth_of_rhs(evaluate):
    """``evaluate`` with the rhs of each check it returns times 0.1."""

    def false(*args):
        checks = evaluate(*args)
        if isinstance(checks, lemmas.InequalityCheck):
            return lemmas.InequalityCheck(checks.lemma_id, checks.lhs, 0.1 * checks.rhs)
        return [lemmas.InequalityCheck(c.lemma_id, c.lhs, 0.1 * c.rhs) for c in checks]

    return false


def model_checks(path: str) -> None:
    """Write one ``repr`` a line: for each ``barrier_sweep.py`` family, its
    ``blowup_bound_check`` and its ``evolution_residual`` at
    ``RESIDUAL_TIMES``."""
    with open(path, "w") as fh:
        for name, family in barrier_sweep.FAMILIES:
            fh.write(f"{name}: {flow.blowup_bound_check(family)!r}\n")
            for frac in RESIDUAL_TIMES:
                state = flow.exact_state(family, frac * family.blowup_time())
                fh.write(f"{name}: {flow.evolution_residual(state)!r}\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        for argv in runs(out):
            run(argv)
        model_checks(os.path.join(out, "model_checks.txt"))
        for name, suite, n, m, trials in FALSE:
            true = getattr(lemmas, name)
            setattr(lemmas, name, tenth_of_rhs(true))
            try:
                run(["verify", "--suite", suite, "--n", str(n), "--m", str(m),
                     "--trials", str(trials), "--seed", "1",
                     "--out", os.path.join(out, f"verify_{suite}_n{n}_m{m}_s1_false.json")],
                    expected=1)
            finally:
                setattr(lemmas, name, true)
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
