#!/usr/bin/env python3
"""Benchmark of novikov: seeded workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload
    python3 bench/run.py --smoke                          # gate self-check

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata.  A readable summary goes to stderr, and the full record (every
job, and with ``--trace 1`` every span) is written under ``.bench_out/``.
See bench/README.md for the workloads, the metrics and the traced run.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 8   # set-up probes before the passes, and as many again after
TAIL_BEYOND = 10   # job_tail_s: highest percentile with this many jobs beyond it
TAIL_MIN_JOBS = 20


def _require_checkout() -> str | None:
    for need in ("BENCHMARK.json", "src/novikov/__init__.py", "fixtures/torus3.json"):
        if not (ROOT / need).is_file():
            return need
    return None


# ---------------------------------------------------------------------------
# metadata


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def metadata() -> dict:
    import numpy

    src = sorted((ROOT / "src" / "novikov").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_novikov_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "load": "one process, jobs run one at a time (closed loop, one client)",
    }


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int):
    """Everything a fresh process does before the first timed job."""
    import workloads as wl

    fixtures = wl.load_fixtures(ROOT)
    OUT.mkdir(exist_ok=True)
    rng = random.Random(seed)
    jobs = wl.make_pass(workload, fixtures, rng, OUT)
    wl.warm_up(fixtures)
    return fixtures, rng, jobs


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of SETUP_REPS fresh processes that import, load and warm up.

    Each child prints CLOCK_MONOTONIC when its set-up is done, so the time
    runs from spawn to ready and does not depend on how the wait polls.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


# ---------------------------------------------------------------------------
# one run


class Run:
    """Jobs attempted in one run, with their latencies and verdicts."""

    def __init__(self, references: dict):
        self.references = references
        self.records: list[dict] = []

    def run_pass(self, jobs, pass_no: int, tracer=None) -> float:
        import workloads as wl

        gc.collect()
        t_pass = time.perf_counter()
        for i, job in enumerate(jobs):
            job_id = f"p{pass_no}.{i}"
            idx = None
            if tracer is not None:
                tracer.job = job_id
                idx = tracer.open("bench.job")
            error = None
            t0 = time.perf_counter()
            try:
                result = job.run()
            except Exception as exc:  # counted in error_rate, the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(idx)
                tracer.job = None
            try:
                ok = error is None and wl.check(
                    job.kind, result, self.references.get(job.key)
                )
            except (TypeError, KeyError, ValueError) as exc:  # malformed result
                ok, error = False, f"check: {type(exc).__name__}: {exc}"
            self.records.append({
                "job": job_id, "key": job.key, "pass": pass_no,
                "traced": tracer is not None, "latency_s": latency,
                "ok": ok, "error": error,
            })
        return time.perf_counter() - t_pass

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r["ok"])


def job_tail(latencies: list[float]):
    """(percentile, value) of the highest percentile with TAIL_BEYOND jobs above."""
    n = len(latencies)
    if n < TAIL_MIN_JOBS:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl
    from tracing import Tracer

    meta = metadata()
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.job = "setup"
    fixtures, rng, jobs = setup(workload, seed)
    if tracer is not None:
        tracer.job = None
        tracer.uninstall()

    run = Run(references)
    untraced: list[float] = []
    traced: list[float] = []
    if trace:
        # plain, traced, plain: the same seeded inputs, built afresh each time,
        # so the overhead is the traced pass minus the mean of its neighbours
        for pass_no in range(3):
            if pass_no > 0:
                jobs = wl.make_pass(workload, fixtures, random.Random(seed), OUT)
            if pass_no == 1:
                tracer.install()
                traced.append(run.run_pass(jobs, pass_no, tracer))
                tracer.uninstall()
            else:
                untraced.append(run.run_pass(jobs, pass_no))
        setups = []
    else:
        setups = setup_seconds(workload, seed)
        started = time.perf_counter()
        pass_no = 0
        while True:
            if pass_no > 0:
                jobs = wl.make_pass(workload, fixtures, rng, OUT)
            untraced.append(run.run_pass(jobs, pass_no))
            if pass_no == 0:
                # the heap creeps up by a few MB on every further pass, so
                # the peak is taken where every run has been: after one pass
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            pass_no += 1
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(untraced) > seconds:
                break
        # probes on both sides of the passes see the same host state they do
        setups += setup_seconds(workload, seed)

    plain = [r["latency_s"] for r in run.records if not r["traced"]]
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(untraced) + len(traced), "jobs": len(run.records),
        "setup_s_samples": setups, "pass_s": untraced, "traced_pass_s": traced,
        "rss_end_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": run.failed / len(run.records),
        "job_tail": job_tail(plain),
    }
    if trace:
        metrics = tracer.layer_metrics()
        metrics["trace.wall_s"] = traced[0]
        metrics["trace.overhead_s"] = traced[0] - statistics.mean(untraced)
        summary["not_observed"] = tracer.not_observed
        summary["job_identity_max_err_s"] = tracer.job_identity_error()
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "job_p50_s": statistics.median(plain),
            "peak_rss_mb": rss_mb,
        }
    # BENCHMARK.json names the metrics and their units; report exactly those
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {
        "correct": run.failed == 0,
        "attempted": len(run.records),
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer" if trace else "end_to_end"]
        },
    }
    record = {"meta": meta, "summary": summary, "result": result, "jobs": run.records}
    if trace:
        record["spans"] = tracer.spans
    OUT.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_summary(summary, result)
    print(json.dumps({"meta": meta}))
    return result


def _print_summary(summary: dict, result: dict) -> None:
    err = sys.stderr
    err.write(
        f"{summary['workload']}  seed {summary['seed']}  trace {summary['trace']}  "
        f"passes {summary['passes']}  jobs {summary['jobs']}\n"
    )
    for name, m in result["metrics"].items():
        err.write(f"  {name:34s} {m['value']:>14.6g} {m['unit']}\n")
    tail = summary["job_tail"]
    if summary["trace"]:
        err.write(f"  not observed: {summary['not_observed'] or 'none'}\n")
        err.write(f"  job time - sum of self times, max: "
                  f"{summary['job_identity_max_err_s']:.3g} s\n")
    elif tail is None:
        err.write(f"  {'job_tail_s':34s} {'-':>14} (fewer than {TAIL_MIN_JOBS} jobs)\n")
    else:
        err.write(f"  {'job_tail_s':34s} {tail[1]:>14.6g} s  (p{tail[0]:.1f} of "
                  f"{summary['jobs']} jobs, {TAIL_BEYOND} beyond)\n")
    err.write(f"  {'error_rate':34s} {summary['error_rate']:>14.6g} fraction  "
              f"({result['failed']} of {result['attempted']})\n")


# ---------------------------------------------------------------------------
# smoke: one job per workload, plus one wrong reference that must be caught


def _corrupt(expected):
    if isinstance(expected, dict):
        key = sorted(expected)[0]
        return dict(expected, **{key: _corrupt(expected[key])})
    if isinstance(expected, list):
        return [_corrupt(expected[0])] + expected[1:] if expected else [0]
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, (int, float)):
        return expected + 1
    return f"{expected}!"


def smoke(seed: int) -> int:
    import workloads as wl

    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    fixtures = wl.load_fixtures(ROOT)
    OUT.mkdir(exist_ok=True)
    ok = True
    for workload in wl.WORKLOADS:
        job = wl.make_pass(workload, fixtures, random.Random(seed), OUT)[0]
        wrong = copy.deepcopy(references)
        wrong[job.key] = _corrupt(wrong[job.key])
        good, bad = Run(references), Run(wrong)
        good.run_pass([job], 0)
        bad.run_pass([job], 0)
        caught = bad.failed == 1
        ok = ok and good.failed == 0 and caught
        sys.stderr.write(
            f"{workload:15s} {job.key:40s} true reference: error_rate "
            f"{good.failed / len(good.records):g}; wrong reference: error_rate "
            f"{bad.failed / len(bad.records):g} ({'caught' if caught else 'NOT CAUGHT'})\n"
        )
    sys.stderr.write("smoke " + ("passed" if ok else "FAILED") + "\n")
    return 0 if ok else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    import workloads as wl

    results = {}
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
        )
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one job per workload; a wrong reference must be caught")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = _require_checkout()
    if missing:
        sys.stderr.write(f"bench: run from a novikov checkout; {missing} is missing\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.smoke:
        return smoke(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)} or all")
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.monotonic())
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
