"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, Round  # noqa: E402

COUNT_UNITS = ("count", "1/trial")


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def traced(workload: str, seed: int) -> tuple[dict, list[str]]:
    rc, lines = bench("--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", "1")
    assert rc == 0, "\n".join(lines)
    return json.loads(lines[-1]), lines


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_outputs_match(workload, spec):
    first, lines = traced(workload, seed=3)
    second, _ = traced(workload, seed=3)
    assert first["correct"] and first["failed"] == 0
    assert "# trace fidelity: same outputs" in lines
    assert "# isolation: held" in lines
    assert sorted(first["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] in COUNT_UNITS or k == "samplers.pinched_accept_ratio"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    absent = [k for k in first["metrics"]
              if k.endswith(".calls") and k.startswith(WORKLOADS[workload].absent)]
    assert absent and all(first["metrics"][k]["value"] == 0 for k in absent), absent


def test_untraced_on_held_out_seed(spec):
    rc, lines = bench("--workload", "verify-li", "--seed", "11", "--seconds", "1",
                      "--trace", "0")
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rc, lines = bench("--workload", "flow", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert rc != 0 and lines == []


def _flow_outputs(tmp_path) -> Round:
    from pinchflow import cli

    rnd = Round(cli.main, 5, str(tmp_path))
    WORKLOADS["flow"].warmup(rnd)
    assert rnd.failed == 0 and rnd.ops > 0
    return rnd


@pytest.mark.parametrize("name, column, row", [
    ("product.csv", 1, 1),      # radius off the closed form
    ("product.csv", 7, 0),      # f at t = 0 off the oracle value
    ("hyper.csv", 8, 0),        # Q(0) off the oracle value
    ("rescaled.csv", 9, 3),     # a ratio column changed by rescaling
])
def test_checks_reject_a_perturbed_output(tmp_path, name, column, row):
    rnd = _flow_outputs(tmp_path)
    path = rnd.path(name)
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-5))
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    from workloads import _check_hyperbolic, _check_product, _check_rescale, parse_csv

    data = open(path, "rb").read()
    if name == "product.csv":
        ops, failed = _check_product(rnd, to_blowup=False)(0, data)
    elif name == "hyper.csv":
        ops, failed = _check_hyperbolic(0, data)
    else:
        ops, failed = _check_rescale(rnd, rnd.base_row)(0, data)
    assert ops == len(parse_csv(data, lines[0])) and failed == 1


def test_verify_check_counts_violations_and_bad_exit():
    from workloads import _check_verify

    report = {"trials": 4, "seed": 9, "suite": "kato", "results": [
        {"lemma_id": "kato.3.1", "trials": 4, "violations": 1},
        {"lemma_id": "kato.3.2", "trials": 4, "violations": 0}]}
    check = _check_verify("kato", 4, 9)
    assert check(0, json.dumps(report).encode()) == (4, 1)
    assert check(1, json.dumps(report).encode()) == (4, 4)
    report["trials"] = 3
    assert check(0, json.dumps(report).encode()) == (4, 4)
