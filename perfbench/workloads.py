"""The benchmark's workloads and their known-answer checks.

A workload is a round of ``pinchflow`` CLI calls, made in-process through
``pinchflow.cli.main`` with the arguments a user would type.  Every output
file is checked against a known answer right after its call.  The answers
come from closed forms and from ``scripts/oracle_values.py``, never from the
library under test, and the CSV files are parsed here, not with the
library's reader.  A failed check counts toward ``failed``; it never stops
the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

# lemma ids of each suite, as documented in the repository README
SUITE_IDS = {
    "li": ["li"],
    "kato": ["kato.3.1", "kato.3.2"],
    "reaction": ["4.5", "4.6", "4.10", "4.12", "4.14", "boundary"],
    "gradient": ["4.20", "4.21", "4.22", "L4.6", "L4.7", "L4.8", "L4.9"],
}

# S^7(1) x S^1(4) at t = 0 with c = 1/6, d = 0 (scripts/oracle_values.py)
PRODUCT_ROW0 = {"f": 1.1145833333333333, "ratio_pinch": 0.14394904458598726,
                "Aminus2": 0.07133757961783438}
# geodesic sphere n = 8, r0 = 0.5, Kbar = -1, c = 1/6, d = 4 (oracle_values.py)
HYPERBOLIC_Q0 = -8.487185004883118

COLUMNS = "t,param1,param2,A2,H2,h2,Aminus2,f,Q,ratio_pinch,ratio_codim,ratio_cyl"
COL = {name: i for i, name in enumerate(COLUMNS.split(",") + ["tbar", "fbar", "Kresc"])}
RADIUS_FLOOR = 0.05  # rows below this radius are too close to blow-up to compare


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


def _same(x: float, ref: float, tol: float) -> bool:
    if math.isnan(x) or math.isnan(ref):
        return math.isnan(x) and math.isnan(ref)
    return _rel(x, ref) <= tol


def parse_csv(data: bytes, header: str) -> list[list[float]]:
    lines = data.decode().splitlines()
    if not lines or lines[0] != header:
        raise ValueError("unexpected CSV header")
    return [[float(tok) for tok in line.split(",")] for line in lines[1:] if line]


class Round:
    """One round of CLI calls: timing, operation counts and an output digest."""

    def __init__(self, main: Callable[[list[str]], int], seed: int, workdir: str):
        self.main = main
        self.seed = seed
        self.workdir = workdir
        self.ops = 0
        self.failed = 0
        self.busy_s = {"verify": 0.0, "simulate": 0.0, "rescale": 0.0}
        self.kind_ops = {"verify": 0, "simulate": 0, "rescale": 0}
        self.notes: list[str] = []
        self.wall_s = 0.0
        self.cal_s = 0.0  # calibration time next to the round, set by the runner
        self._digest = hashlib.sha256()
        self.rows: dict[str, list[list[float]]] = {}
        self.base_row: int | None = None

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def call(self, argv: list[str], out: str, check) -> None:
        """Run one CLI call, then ``check(rc, output_bytes) -> (ops, failed)``."""
        kind = argv[0]
        if os.path.exists(out):
            os.remove(out)
        start = time.perf_counter()
        try:
            rc: int | BaseException = self.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stopped run
            traceback.print_exc(file=sys.stderr)
            rc = exc
        self.busy_s[kind] += time.perf_counter() - start
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        self._digest.update(data)
        try:
            ops, failed = check(rc, data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            ops, failed = 1, 1
            self.notes.append(f"{' '.join(argv[:3])}: unreadable output ({exc})")
        if failed:
            self.notes.append(f"{' '.join(argv)}: {failed} of {ops} failed (rc={rc!r})")
        self.ops += ops
        self.failed += failed
        self.kind_ops[kind] += ops


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _check_verify(suite: str, trials: int, seed: int):
    def check(rc, data: bytes) -> tuple[int, int]:
        if rc != 0:
            return trials, trials
        report = json.loads(data)
        results = report["results"]
        ok = (
            report["trials"] == trials
            and report["seed"] == seed
            and report["suite"] == suite
            and [r["lemma_id"] for r in results] == SUITE_IDS[suite]
            and all(r["trials"] == trials for r in results)
        )
        if not ok:
            return trials, trials
        return trials, min(trials, sum(r["violations"] for r in results))

    return check


def verify_round(calls: list[tuple[str, int, int, int]]):
    """A round of ``verify --suite S --n N --m M --trials T`` calls."""

    def run(rnd: Round) -> None:
        out = rnd.path("report.json")
        for suite, n, m, trials in calls:
            argv = ["verify", "--suite", suite, "--n", str(n), "--m", str(m),
                    "--trials", str(trials), "--seed", str(rnd.seed), "--out", out]
            rnd.call(argv, out, _check_verify(suite, trials, rnd.seed))

    return run


# ----------------------------------------------------------------------
# flow: simulate two model families, rescale one
# ----------------------------------------------------------------------

def _check_product(rnd: Round, to_blowup: bool):
    def check(rc, data: bytes) -> tuple[int, int]:
        rows = parse_csv(data, COLUMNS)
        rnd.rows["product"] = rows
        if rc != 0 or not rows:
            return max(1, len(rows)), max(1, len(rows))
        bad = set()
        row0 = rows[0]
        for name, ref in PRODUCT_ROW0.items():
            if not _same(row0[COL[name]], ref, 1e-10):
                bad.add(0)
        for i, row in enumerate(rows):
            t, a, b = row[0], row[1], row[2]
            if a < RADIUS_FLOOR:
                continue
            sa, sb = 1.0 - 14.0 * t, 16.0 - 2.0 * t  # a^2 = 1 - 2pt, b^2 = 16 - 2qt
            if sa <= 0 or _rel(a, math.sqrt(sa)) > 1e-6 or _rel(b, math.sqrt(sb)) > 1e-6:
                bad.add(i)
        if to_blowup and rows[-1][1] >= RADIUS_FLOOR:
            bad.add(len(rows) - 1)
        return len(rows), len(bad)

    return check


def _check_hyperbolic(rc, data: bytes) -> tuple[int, int]:
    rows = parse_csv(data, COLUMNS)
    if rc != 0 or not rows:
        return max(1, len(rows)), max(1, len(rows))
    bad = set()
    if not _same(rows[0][COL["Q"]], HYPERBOLIC_Q0, 1e-10):
        bad.add(0)
    for i, row in enumerate(rows):
        t, r = row[0], row[1]
        if r < RADIUS_FLOOR:
            continue
        ch = math.cosh(0.5) * math.exp(-8.0 * t)  # cosh r(t) = cosh(r0) e^{n Kbar t}
        if ch <= 1.0 or _rel(r, math.acosh(ch)) > 1e-6:
            bad.add(i)
    return len(rows), len(bad)


def _check_rescale(rnd: Round, base: int):
    def check(rc, data: bytes) -> tuple[int, int]:
        rows = parse_csv(data, COLUMNS + ",tbar,fbar,Kresc")
        orig = rnd.rows["product"]
        if rc != 0 or len(rows) != len(orig):
            return max(1, len(rows)), max(1, len(rows))
        bad = 0
        for i, (row, src) in enumerate(zip(rows, orig)):
            ok = all(_same(row[COL[k]], src[COL[k]], 1e-12)
                     for k in ("ratio_pinch", "ratio_codim"))
            if i == base:
                ok = ok and abs(row[COL["fbar"]] - 1.0) <= 1e-12
            bad += not ok
        return len(rows), bad

    return check


def flow_round(t_end: str | None):
    """Product and hyperbolic flows at dt = 1e-5, then rescale the product.

    Without ``t_end`` both flows run to blow-up.
    """
    until = [] if t_end is None else ["--t-end", t_end]

    def run(rnd: Round) -> None:
        product, hyper, resc = (rnd.path(f) for f in ("product.csv", "hyper.csv",
                                                      "rescaled.csv"))
        rnd.call(["simulate", "--family", "product", "--params", "p=7,q=1,a=1,b=4",
                  "--dt", "1e-5", *until, "--out", product], product,
                 _check_product(rnd, to_blowup=t_end is None))
        rnd.call(["simulate", "--family", "hyperbolic", "--params", "r=0.5,kbar=-1",
                  "--dt", "1e-5", *until, "--out", hyper], hyper, _check_hyperbolic)
        rows = len(rnd.rows.get("product", []))
        if rows < 2:
            rnd.ops += 1
            rnd.failed += 1
            rnd.notes.append("rescale skipped: no product series")
            return
        # a base row in the middle half of the series, chosen by the seed
        base = rnd.base_row = rows // 4 + random.Random(rnd.seed).randrange(rows // 2)
        rnd.call(["rescale", "--in", product, "--base-row", str(base),
                  "--out", resc], resc, _check_rescale(rnd, base))

    return run


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[Round], None]      # one measured round
    warmup: Callable[[Round], None]   # the same calls at a small size
    absent: tuple[str, ...]           # span prefixes the workload must never call


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "verify-reaction",
            "five flat reaction estimates plus boundary on pinched forms at n=8, m=3: "
            "normal curvature and reaction contractions, no derivative tensor",
            verify_round([("reaction", 8, 3, 1500)]),
            verify_round([("reaction", 8, 3, 10)]),
            ("forms.gradient_sample",),
        ),
        Workload(
            "verify-gradient",
            "kato and gradient suites at n=8, m=3: (m,n,n,n) derivative tensors, "
            "Codazzi checks and gradient_quantities, no normal curvature",
            verify_round([("kato", 8, 3, 500), ("gradient", 8, 3, 500)]),
            verify_round([("kato", 8, 3, 10), ("gradient", 8, 3, 10)]),
            ("forms.normal_curvature",),
        ),
        Workload(
            "verify-li",
            "li suite over n in 2..6, m in 2..5, 20 short campaigns: tiny matrices, "
            "so per-trial fixed cost (substream RNG, einsum dispatch) dominates",
            verify_round([("li", n, m, 300) for n in range(2, 7) for m in range(2, 6)]),
            verify_round([("li", n, m, 5) for n in range(2, 7) for m in range(2, 6)]),
            ("forms.normal_curvature", "forms.gradient_sample"),
        ),
        Workload(
            "flow",
            "simulate product to blow-up and hyperbolic at dt=1e-5, then rescale: "
            "serial principal_decompose, RK4 and CSV I/O, no campaign or sampler",
            flow_round(None),
            flow_round("0.001"),
            ("forms.normal_curvature", "forms.gradient_sample", "samplers."),
        ),
    ]
}
