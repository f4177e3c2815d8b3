#!/usr/bin/env python3
"""The pinchflow benchmark.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload verify-reaction --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics (see README.md).  ``--workload all`` runs every workload,
each in its own process, and prints a table.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output passed
its known-answer check, 1 when one did not and 2 when the benchmark could
not run (for example without ``src/pinchflow`` next to it).
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5          # set-up is measured this many times per run
REF_CAL_S = 0.010         # calibration time of the reference CPU (see calibration_s)
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 600     # --workload all: one workload's process


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index``; rounds differ, and each repeats for a seed."""
    return seed * 100_003 + index


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pinchflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def _workdir(tag: str) -> str:
    path = os.path.join(HERE, ".work", f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def probe_setup(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: import, build, warm up, say ready."""
    from pinchflow import cli

    cli.build_parser()
    workdir = _workdir("probe")
    try:
        rnd = Round(cli.main, round_seed(seed, 0), workdir)
        WORKLOADS[workload].warmup(rnd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready" if rnd.failed == 0 else "warm-up failed", flush=True)
    return 0 if rnd.failed == 0 else 1


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Seconds from process start to ready, once per probe process, in turn.

    Each sample is paired with the mean calibration time just before and
    after its probe.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    before = calibration_s()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit code {rc}")
        after = calibration_s()
        samples.append((elapsed, (before + after) / 2))
        before = after
    return samples


# ----------------------------------------------------------------------
# measured rounds
# ----------------------------------------------------------------------

def calibration_s() -> float:
    """Seconds taken by a fixed kernel of small numpy calls and Python objects.

    The host is shared and its speed drifts by tens of percent within
    minutes.  The kernel runs on the same interpreter and numpy paths as the
    workloads, so a slower host slows both; the gated times are scaled by
    ``REF_CAL_S / calibration_s()`` measured next to them.  The kernel never
    calls pinchflow, so no change to the library can move it.
    """
    import numpy as np

    start = time.perf_counter()
    for i in range(200):
        rng = np.random.default_rng((7, i, 0))
        a = rng.standard_normal((3, 8, 8))
        a = 0.5 * (a + a.transpose(0, 2, 1))
        gram = np.einsum("aij,bij->ab", a, a)
        x = float(np.sum(gram**2)) + float(np.linalg.norm(np.einsum("aii->a", a)))
        format(x, ".17g")
    return time.perf_counter() - start


def run_round(main, workload, seed: int, index: int, workdir: str) -> Round:
    gc.collect()  # every round starts from the same heap, as a fresh CLI process would
    rnd = Round(main, round_seed(seed, index), workdir)
    start = time.perf_counter()
    workload.run(rnd)
    rnd.wall_s = time.perf_counter() - start
    rnd.rows.clear()  # parsed outputs are needed only inside the round
    return rnd


def run_rounds(main, workload, seed: int, workdir: str,
               seconds: float = 0.0, count: int = 0, start: int = 0) -> list[Round]:
    """Rounds ``start``, ``start + 1``, ... until ``seconds`` have passed, or
    ``count`` rounds when it is given.

    A round's ``cal_s`` is the mean calibration time just before and after it.
    """
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    before = calibration_s()
    while not rounds or (len(rounds) < count if count else time.perf_counter() < deadline):
        rnd = run_round(main, workload, seed, start + len(rounds), workdir)
        after = calibration_s()
        rnd.cal_s = (before + after) / 2
        before = after
        rounds.append(rnd)
    return rounds


def _ref(seconds: float, cal_s: float) -> float:
    """Seconds on the reference CPU."""
    return seconds * REF_CAL_S / cal_s


def end_to_end(rounds: list[Round], setup: list[tuple[float, float]]) -> dict:
    return {
        "ops_per_s": (statistics.median(
            r.ops / _ref(sum(r.busy_s.values()), r.cal_s) for r in rounds), "1/s"),
        "wall_s": (statistics.median(_ref(r.wall_s, r.cal_s) for r in rounds), "s"),
        "setup_s": (statistics.median(_ref(s, c) for s, c in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def info(rounds: list[Round], setup: list[tuple[float, float]]) -> dict:
    """Printed beside the gated metrics: the split by call kind and raw times."""
    names = {"verify": "trials_per_s", "simulate": "records_per_s",
             "rescale": "rescale_records_per_s"}
    out = {}
    for kind, name in names.items():
        if rounds[0].kind_ops[kind]:
            out[name] = (statistics.median(
                r.kind_ops[kind] / _ref(r.busy_s[kind], r.cal_s) for r in rounds), "1/s")
    out["raw_ops_per_s"] = (statistics.median(
        r.ops / sum(r.busy_s.values()) for r in rounds), "1/s")
    out["raw_wall_s"] = (statistics.median(r.wall_s for r in rounds), "s")
    out["raw_setup_s"] = (statistics.median(s for s, _ in setup), "s")
    out["calibration_ms"] = (statistics.median(r.cal_s for r in rounds) * 1e3, "ms")
    return out


def traced(main, workload, seed: int, seconds: float, workdir: str):
    """Untraced rounds for half the time, then the same rounds traced."""
    from spans import Tracer, per_layer_metrics

    plain = run_rounds(main, workload, seed, workdir, seconds=seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        rounds = run_rounds(main, workload, seed, workdir, count=1)
        first = copy.deepcopy(tracer.counts)  # counts of round 0 alone
        if len(plain) > 1:
            rounds += run_rounds(main, workload, seed, workdir,
                                 count=len(plain) - 1, start=1)
    mismatched = [i for i, (a, b) in enumerate(zip(plain, rounds)) if a.digest != b.digest]
    overhead = (sum(_ref(r.wall_s, r.cal_s) for r in rounds)
                / sum(_ref(r.wall_s, r.cal_s) for r in plain) - 1.0)
    metrics = per_layer_metrics(tracer, first, sum(r.wall_s for r in rounds), overhead)
    present = [name for name, calls in tracer.counts.calls.items()
               if calls and name.startswith(workload.absent)]
    return plain + rounds, metrics, mismatched, present


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    from pinchflow import cli

    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()[0]
    env = environment()
    setup = measure_setup(args.workload, args.seed)
    workdir = _workdir("run")
    try:
        warm = Round(cli.main, round_seed(args.seed, 0), workdir)
        workload.warmup(warm)  # untimed; lazy initialisation happens here
        if args.trace:
            rounds, metrics, mismatched, present = traced(
                cli.main, workload, args.seed, args.seconds, workdir)
        else:
            rounds = run_rounds(cli.main, workload, args.seed, workdir, seconds=args.seconds)
            metrics, mismatched, present = end_to_end(rounds, setup), [], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m"] = {"start": load_start, "end": os.getloadavg()[0]}

    attempted = sum(r.ops for r in rounds) + warm.ops
    failed = sum(r.failed for r in rounds) + warm.failed
    correct = failed == 0 and not mismatched
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {args.seed}, trace {args.trace}, {len(rounds)} rounds, "
          f"set-up samples {[round(s, 4) for s, _ in setup]} s")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {_fmt(value)} {unit}")
    if not args.trace:
        for name, (value, unit) in info(rounds, setup).items():
            print(f"{workload.name} {name} {_fmt(value)} {unit}")
    print(f"{workload.name} fail_ratio {_fmt(failed / max(1, attempted))} ratio "
          f"({failed} of {attempted})")
    if args.trace:
        fidelity = f"DIFFERENT in rounds {mismatched}" if mismatched else "same outputs"
        isolation = f"broken, called: {', '.join(present)}" if present else "held"
        print(f"# trace fidelity: {fidelity}")
        print(f"# isolation: {isolation}")
    for rnd in [warm] + rounds:
        for note in rnd.notes:
            print(f"# FAILED: {note}")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    table = []
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit code {proc.returncode})")
            status = max(status, proc.returncode or 1)
            continue
        status = max(status, proc.returncode)
        for metric, entry in result["metrics"].items():
            table.append(f"{name:16s} {metric:48s} {_fmt(entry['value']):>12s} {entry['unit']}")
        table.append(f"{name:16s} {'fail_ratio':48s} "
                     f"{_fmt(result['failed'] / result['attempted']):>12s} ratio")
    print("\n".join(table))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "pinchflow", "__init__.py")):
        print(f"error: no pinchflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
