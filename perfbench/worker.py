"""One benchmark step in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py MODE --workload W --seed S --t0 NS

MODE is ``setup`` (import and input generation only), ``pass`` (one untraced
pass over the workload's jobs), ``traced`` (one pass with every public
function wrapped in spans, then the fixed probe jobs), ``kernels`` (the
workload-independent layer probes) or ``golden`` (record the digests of
every job's canonical outputs at the default seed into golden.json).
``--t0`` is the parent's ``time.monotonic_ns()`` just before it started this
process, so set-up time covers interpreter start, import and inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def run_jobs(jobs, wrap=None) -> list[dict]:
    """Run each job; a job that raises leaves its traceback instead of outputs."""
    outs = []
    for job in jobs:
        try:
            outs.append(wrap(job) if wrap else job.run())
        except Exception:  # a failed job is data for the report
            outs.append({"raised": traceback.format_exc(limit=3)})
    return outs


def check_jobs(jobs, outs, golden: dict) -> list[str]:
    """Problems per failed job, as ``key: problem`` strings (one per job)."""
    failures = []
    for job, out in zip(jobs, outs):
        if "raised" in out:
            failures.append(f"{job.key}: raised {out['raised'].strip().splitlines()[-1]}")
            continue
        try:
            problems = job.check(out)
            if job.golden and check.digest(*job.canonical(out)) != golden.get(job.key):
                problems.append("outputs differ from the golden digest")
        except Exception:  # unparsable output is a failed check
            problems = [f"check raised {traceback.format_exc(limit=1).strip().splitlines()[-1]}"]
        if problems:
            failures.append(f"{job.key}: {problems[0]}")
    return failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_pass(jobs, probes):
    """Trace the workload's jobs, then the probes; (metrics, outputs, probe outputs, tracer)."""
    from tracer import Tracer, percentile
    tracer = Tracer()
    trials = [0]
    tracer.install("soficapprox",
                   {"lazyperm.realize": lambda real: trials.__setitem__(0, trials[0] + sum(real.f))})
    start = time.perf_counter()
    outs = run_jobs(jobs, lambda job: tracer.span(f"bench.{job.key}", job.run))
    wall = time.perf_counter() - start
    probe_outs = run_jobs(probes, lambda job: tracer.span(f"bench.{job.key}", job.run))

    metrics: dict = {}
    for module, (calls, self_s) in tracer.module_totals().items():
        metrics[f"{module}.self_s"] = self_s
        metrics[f"{module}.calls"] = calls
    calls, total, _ = tracer.by_name("profile.measure")
    metrics["profile.measure_calls"] = calls
    metrics["profile.measure_s"] = total
    metrics["lazyperm.realize_s"] = tracer.by_name("lazyperm.realize")[1]
    metrics["lazyperm.realize_trials"] = trials[0]
    calls, _, samples = tracer.by_name("lazyperm.supp_quality")
    metrics["lazyperm.supp_quality_calls"] = calls
    metrics["lazyperm.supp_quality_ms.p50"] = 1e3 * percentile(samples, 50)
    metrics["lazyperm.supp_quality_ms.p99"] = 1e3 * percentile(samples, 99)
    for metric, span in (("lazyperm.build_gchunk_s", "lazyperm.build_gchunk"),
                         ("lazyperm.audit_s", "lazyperm.audit"),
                         ("growth.is_slow_s", "growth.is_slow"),
                         ("chunk.validate_s", "chunk.validate"),
                         ("chunk.parse_s", "chunk.parse_chunk"),
                         ("cli.cert_emit_s", "cli.emit_certificate"),
                         ("cli.cert_verify_s", "cli.load_certificate"),
                         ("cli.realization_load_s", "cli.load_realization")):
        metrics[metric] = tracer.by_name(span)[1]
    metrics["growth.max_m_calls"] = tracer.by_name("growth.max_m_with_value_at_most")[0]
    metrics["trace.spans"] = tracer.next_id
    metrics["trace.wall_traced_s"] = wall
    return metrics, outs, probe_outs, tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "pass", "traced", "kernels", "golden"])
    parser.add_argument("--workload", default=workloads.WORKLOADS[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--t0", type=int, default=None)
    args = parser.parse_args()
    t0 = args.t0 if args.t0 is not None else time.monotonic_ns()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.mode == "golden":
            return record_golden(workdir)
        if args.mode == "kernels":
            print(json.dumps(kernel_probes()))
            return 0
        result = step(args, t0, workdir)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def step(args, t0: int, workdir: str) -> dict:
    import soficapprox.cli  # noqa: F401  (the import is part of set-up)
    jobs = workloads.build(args.workload, args.seed, os.path.join(workdir, "in"))
    setup_s = (time.monotonic_ns() - t0) / 1e9
    if args.mode == "setup":
        return {"setup_s": setup_s}
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    result = {"setup_s": setup_s}
    if args.mode == "pass":
        start = time.perf_counter()
        outs = run_jobs(jobs)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = peak_rss_mb()
        failures = check_jobs(jobs, outs, golden)
    else:
        probes = workloads.probes(os.path.join(workdir, "probe"))
        metrics, outs, probe_outs, tracer = traced_pass(jobs, probes)
        failures = check_jobs(jobs, outs, golden) + check_jobs(probes, probe_outs, golden)
        jobs = jobs + probes
        spans = os.path.join(OUT, f"spans-{args.workload}.jsonl")
        tracer.write(spans)
        result["metrics"] = metrics
        result["spans_file"] = os.path.relpath(spans, ROOT)
    result["attempted"] = len(jobs)
    result["failures"] = failures
    return result


def kernel_probes() -> dict:
    import kernels
    inp = workloads.Inputs(os.devnull, "kernels", workloads.DEFAULT_SEED, canonical_names=True)
    text = inp.chunk_text(tuple(str(x) for x in range(8)), workloads.z_mult(8))
    metrics = kernels.micro_ops()
    metrics.update(kernels.profile_split(text, 8, 8))
    return metrics


def record_golden(workdir: str) -> int:
    """Digest every job at the default seed, and check that seeded names map
    back to exactly the bytes the canonically named inputs produce."""
    digests = {}
    for name in (*workloads.WORKLOADS, "probe"):
        def make(canon: bool) -> list:
            where = os.path.join(workdir, name, "plain" if canon else "seeded")
            if name == "probe":
                return workloads.probes(where)
            return workloads.build(name, workloads.DEFAULT_SEED, where, canon)
        seeded, plain = make(False), make(True)
        for job, out, plain_job, plain_out in zip(seeded, run_jobs(seeded), plain, run_jobs(plain)):
            if "raised" in out or "raised" in plain_out:
                raise RuntimeError(f"{job.key} raised:\n{out.get('raised') or plain_out['raised']}")
            problems = job.check(out)
            if problems:
                raise RuntimeError(f"{job.key}: {problems}")
            d = check.digest(*job.canonical(out))
            if d != check.digest(*plain_job.canonical(plain_out)):
                raise RuntimeError(f"{job.key}: renamed outputs do not map back exactly")
            digests[job.key] = d
            print(f"{job.key} {d}", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
