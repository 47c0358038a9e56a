"""Tests of the benchmark itself: declarations, inputs, oracle and smoke runs.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import io
import json
import math
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import hklocal.cli
import inputs
import run
import tracing
import workloads
from oracle import HarmonicOracle

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _validate(graph: Path, problem: inputs.Problem) -> int:
    with redirect_stdout(io.StringIO()):
        return hklocal.cli.run(["validate", "--graph", str(graph), "--subset",
                                str(problem.subset), "--boundary", str(problem.boundary)])


def test_every_metric_is_declared_with_a_unit():
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("make, kwargs", [
    (inputs.make_grid, {"side": 30, "patch": 10}),
    (inputs.make_communities, {"communities": 10, "size": 40, "extra": 200, "cross": 200}),
])
def test_same_seed_gives_identical_files(tmp_path, make, kwargs):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        make(tmp_path / name, seed, **kwargs)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_generated_problems_validate(tmp_path):
    small = inputs.make_communities(tmp_path, 3, communities=10, size=40, extra=200, cross=200)
    assert len(small.problems) == 10
    for problem in small.problems:
        assert _validate(small.graph, problem) == 0
    for made in (inputs.make_grid(tmp_path, 3), inputs.make_communities(tmp_path, 3)):
        assert made.problems[0].s in (900, 200)
        assert _validate(made.graph, made.problems[0]) == 0


def test_oracle_matches_a_hand_solved_path(tmp_path):
    # Path 0-1-2-3 with S = {1, 2} and b(0) = 1.  The harmonic extension is
    # f = (2/3, 1/3) on S, and x = D^{1/2} f with both degrees 2.
    path = tmp_path / "p4.edges"
    path.write_text("0 1\n1 2\n2 3\n", encoding="utf-8")
    x = HarmonicOracle(path).solve(np.array([1, 2]), {0: 1.0})
    assert x == pytest.approx([2.0 * math.sqrt(2) / 3.0, math.sqrt(2) / 3.0], abs=1e-12)


@pytest.fixture(scope="module")
def dolphins():
    return workloads.Dolphins(Path("."), 1)


def test_perturbed_and_nan_answers_count_as_failed(dolphins):
    code, text = dolphins._run(["solve-exact"] + dolphins.files)
    assert code == 0
    doc = json.loads(text)
    vid = next(iter(doc["x_s"]))
    perturbed = json.loads(text)
    perturbed["x_s"][vid] += 1e-6
    with_nan = text.replace(repr(doc["x_s"][vid]), "NaN", 1)
    missing = json.loads(text)
    del missing["x_s"][vid]
    ops = [workloads.Op("exact", [0.0, 0.0], [(0, text), (0, t)]) for t in
           (json.dumps(perturbed), with_nan, json.dumps(missing))]
    assert [ch.ok for ch in dolphins.check(ops, layers=False)] == [True, False] * 3


def test_nan_in_csv_output_counts_as_failed(dolphins):
    code, text = dolphins._run(["hkpr-approx", "--t", "20", "--eps", "0.5"] + dolphins.files)
    assert code == 0
    lines = text.splitlines()
    nan = "\n".join(lines[:-1] + [lines[-1].split(",")[0] + ",nan"]) + "\n"
    ops = [workloads.Op("hkpr", [0.0, 0.0], [(0, text), (0, nan)])]
    assert [ch.ok for ch in dolphins.check(ops, layers=False)] == [True, False]
    assert not dolphins.check([workloads.Op("hkpr", [0.0], [(1, text)])], layers=False)[0].ok


def test_a_batch_repeats_until_its_time_is_up(monkeypatch):
    monkeypatch.setattr(workloads, "BATCH_SECONDS", 0.01)
    calls = []

    def op(i):
        calls.append(i)
        time.sleep(0.002)
        return i

    batch = workloads.Timer()("exact", op)
    assert batch.outputs == calls == list(range(len(calls))) and len(calls) >= 4
    assert sum(batch.times) >= 0.01 and batch.seconds == pytest.approx(sum(batch.times) / len(calls))
    traced = workloads.Timer(tracing.Tracer())("exact", op)
    assert traced.outputs == [0] and len(traced.times) == 1


def test_end_to_end_divides_each_cycle_by_its_calibration_speed():
    # Cycle speeds are the means of the calibrations around them: 2, 1.5, 1.
    m = workloads.Measurement(seed=1, calibrations=[2.0, 2.0, 1.0, 1.0],
                              setups=[4.0, 3.0, 1.0], cycles=[8.0, 6.0, 4.0],
                              samples={"exact": [2.0, 1.5, 1.0], "local": [6.0, 4.5, 3.0]})
    assert workloads.end_to_end(m) == {"setup_s": 2.0, "exact_s": 1.0, "local_s": 3.0,
                                       "ops_per_s": 0.5}
    assert workloads.end_to_end(m, wall_clock=True) == {"setup_s": 3.0, "exact_s": 1.5,
                                                        "local_s": 4.5, "ops_per_s": 2 / 6}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    out = run.run_workload(name, seed=1, seconds=0.2, trace=trace, small=True)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert out["record"]["fail_share"] == 0
    group = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    json.loads(json.dumps(result, allow_nan=False))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dolphins",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["dolphins", "all"])
def test_a_failed_check_exits_nonzero(monkeypatch, capsys, workload):
    def failing(name, seed, seconds, trace, small=False):
        result = {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}
        return {"result": result, "record": {"workload": name, "seed": seed, "size": {},
                                             "cycles": 1, "bound_miss_share": 0.0}}

    monkeypatch.setattr(run, "run_workload", failing)
    assert run.main(["--workload", workload, "--seconds", "0.1"]) == 1
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]
