"""Benchmark of the hklocal solvers, run from the root of a source checkout.

    python3 bench/run.py --workload dolphins --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Builds nothing: it imports the library from ``src/`` next to this
directory.  Inputs are generated from ``--seed`` into a scratch directory
inside the checkout, which is removed at the end.  The run prints a table,
a JSON record of the environment and of every figure, and as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` its per-layer ones; the traced run also writes its spans
to ``.bench_out/``.  ``--workload all`` runs every workload untraced and
prints each one's end-to-end metrics by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


def _one_blas_thread() -> None:
    """Run BLAS on one thread, like the rest of the serial run; before numpy loads.

    On a shared host a second BLAS thread waits whenever another process
    holds a CPU: on a 2-vCPU VM with one CPU kept busy, ``grid``'s
    solve-exact took 3-7 s with two OpenBLAS threads and 0.6-0.7 s with one.
    On the idle VM two threads were about 10% faster.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _declared() -> dict[str, dict[str, dict]]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {group: {m["name"]: m for m in spec[group]} for group in ("end_to_end", "per_layer")}


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload; return the result line and the full record."""
    import numpy as np
    import workloads

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[name](directory, seed, small)
        m = workloads.measure(workload, seed, seconds, trace)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    group = "per_layer" if trace else "end_to_end"
    values = (workloads.per_layer(m, workload.size) if trace else workloads.end_to_end(m))
    declared = _declared()[group]
    metrics = {key: {"value": values[key], "unit": declared[key]["unit"]} for key in declared}
    record = {
        "workload": name,
        "seed": seed,
        "op_seeds": "seed * 1000000 + 10000 * cycle + 1000 * kind position + repeat",
        "seconds": seconds,
        "trace": int(trace),
        "size": workload.size,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_name(np),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
            "nproc": len(os.sched_getaffinity(0)),
            "workers": workloads.WORKERS,
        },
        "first_setup_s": m.first_setup,
        "setup_batches": len(m.setups),
        "cycles": len(m.cycles),
        "cycle_median_s": statistics.median(m.cycles) if m.cycles else 0.0,
        "calibration": {"reference_s": workloads.CALIBRATION_REFERENCE_S,
                        "per_call_over_reference": m.calibrations},
        "wall_clock": workloads.end_to_end(m, wall_clock=True),
        "kinds": workloads.kind_stats(m),
        "fail_share": m.failed / m.attempted,
        "bound_miss_share": workloads.bound_miss_share(m.checks + m.traced_checks),
    }
    if trace:
        spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
        m.tracer.write(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    return {"result": result, "record": record}


def _table(out: dict) -> str:
    record, result = out["record"], out["result"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"size {record['size']}  cycles {record['cycles']}"]
    for key, metric in result["metrics"].items():
        lines.append(f"  {key:28s} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"  fail_share {result['failed']}/{result['attempted']}  "
                 f"bound_miss_share {record['bound_miss_share']:.3f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hklocal" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: no library source under {SRC} or no {BENCHMARK.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    _one_blas_thread()
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    outs = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(_table(out))
        print(json.dumps({"record": out["record"]}))
        outs[name] = out["result"]
    if args.workload == "all":
        print(json.dumps(outs))
        return 0 if all(r["correct"] for r in outs.values()) else 1
    print(json.dumps(outs[args.workload]))
    return 0 if outs[args.workload]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
