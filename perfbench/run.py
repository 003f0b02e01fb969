"""Layered benchmark of the soficapprox certifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from the root of a source checkout; the package is imported from
``src``.  Every pass over a workload's jobs runs in a fresh interpreter at
one search worker, so it pays the package's lazily built caches as a
``sofic`` user does.

``--trace 0`` repeats untraced passes for ``--seconds`` seconds and reports
the median set-up time, wall time and peak memory of a pass.  ``--trace 1``
runs one untraced pass, one traced pass followed by the fixed probe jobs,
and the workload-independent kernel probes, and reports the per-layer
figures.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine (``nproc``, Python version).  The exit code is 1 when
any job fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

DEADLINE_S = 170
SETUP_SAMPLES = 7
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class StepFailed(RuntimeError):
    pass


def worker(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker step in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--t0", str(time.monotonic_ns())]
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{mode} step ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise StepFailed(f"{mode} step exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def untraced(workload: str, seed: int, seconds: int, deadline: float):
    """Passes until ``seconds`` have elapsed, plus set-up-only starts; medians."""
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(worker("pass", workload, seed, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker("setup", workload, seed, deadline)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    samples = {"wall_s": [p["wall_s"] for p in passes], "setup_s": setups}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            attempted, failures, samples)


def traced(workload: str, seed: int, deadline: float):
    """Per-layer figures: traced pass and probes, kernel probes, trace overhead."""
    plain = worker("pass", workload, seed, deadline)
    result = worker("traced", workload, seed, deadline)
    metrics = dict(result["metrics"])
    metrics.update(worker("kernels", workload, seed, deadline))
    metrics["trace.overhead_ratio"] = metrics["trace.wall_traced_s"] / plain["wall_s"]
    units = layer_units()
    failures = plain["failures"] + result["failures"]
    failures += [f"per-layer metric {name} was not measured" for name in units if name not in metrics]
    attempted = plain["attempted"] + result["attempted"]
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
            attempted, failures, {"spans_file": result["spans_file"]})


def layer_units() -> dict[str, str]:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    try:
        if trace:
            metrics, attempted, failures, details = traced(workload, seed, deadline)
        else:
            metrics, attempted, failures, details = untraced(workload, seed, seconds, deadline)
    except StepFailed as exc:
        metrics, attempted, failures, details = {}, 1, [str(exc)], {}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "failures": failures, "details": details}


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "search_workers": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "soficapprox", "__init__.py")):
        print("error: run from the root of a soficapprox checkout (no src/soficapprox)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    results = {}
    for name in names:
        for trace in modes:
            res = measure(name, args.seed, args.seconds, trace)
            results[(name, trace)] = res
            record = dict(res, workload=name, seed=args.seed, trace=trace, env=env)
            path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            for failure in res["failures"]:
                print(f"FAILED {name}: {failure}", file=sys.stderr)
            if args.workload == "all":
                for metric, mv in res["metrics"].items():
                    print(f"{name:14} {metric:36} {mv['value']:>16.6g} {mv['unit']}")
    print(json.dumps({"env": env}))
    if args.workload == "all":
        failed = sum(r["failed"] for r in results.values())
        summary = {"correct": failed == 0,
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": failed,
                   "metrics": {f"{n}/trace{t}/{m}": v for (n, t), r in results.items()
                               for m, v in r["metrics"].items()}}
    else:
        res = results[(args.workload, args.trace)]
        summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
