"""One workload in one fresh process; prints one JSON line with its results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Every worker first measures set-up: import ballbasis, load the config, build
the basis and the operators; ``--setup-only`` stops there. Otherwise the
worker times the ``all`` pipeline through the public functions of
``ballbasis.cli``, each repeat on a fresh basis and fresh operators. Times
are CPU seconds of this process (BLAS runs one thread) scaled to the host's
reference speed, sampled while they run (``hostspeed.py``); raw CPU and wall
seconds, less the sampling, are recorded beside them.

Untraced, it runs the pipeline once, a second time if the first took at most
``--seconds``, and again while one more repeat of average length fits in
``--seconds``. Traced, it runs one untraced pipeline (two if the first took
at most ``--seconds``, so the last is warm) and then one traced pipeline; the
difference between the last two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from hostspeed import Speedometer
from tracer import STAGES, SUITES, Tracer

OUT = workloads.ROOT / ".bench_out"
# set-up is too short to sample during; this many kernel calls follow it
SETUP_SPEED_SAMPLES = 30


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_pipeline(cli, cfg: dict, basis, ops, out_dir: Path, call=_direct):
    """The ``all`` pipeline, stage by stage and suite by suite, in the order
    ``cli.run_experiment`` emits reports. A stage that raises is recorded and
    the pipeline goes on, so one failure does not hide the others."""
    stages = {"check_basis": (cli.run_check_basis, (cfg, basis)),
              "estimate": (cli.run_estimate, (cfg, basis, ops)),
              "sparsify": (cli.run_sparsify, (cfg, basis)),
              "dominate": (cli.run_dominate, (cfg, basis, ops)),
              "mean_osc": (cli.run_mean_osc, (cfg, basis, ops))}
    steps = [(f"cli.{s}", *stages[s], {}) for s in STAGES]
    steps += [(f"cli.verify.{suite}", cli.run_verify, (cfg, basis, ops),
               {"suite_filter": suite})
              for suite in SUITES if suite in cfg["verify"]["suites"]]
    reports, raised = [], []
    for name, fn, args, kwargs in steps:
        try:
            reports += call(name, fn, *args, **kwargs)
        except Exception as exc:  # a stage failure is a measured outcome
            raised.append(f"{name}: {type(exc).__name__}: {exc}")
    files = call("cli.emit", cli.emit_report, reports, str(out_dir))
    return reports, raised, files


def bundle_digest(files: list[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(os.path.basename(path).encode() + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def bundle_consistent(reports, files) -> bool:
    """The emitted bundle says what the returned reports say."""
    by_name = {os.path.basename(p): p for p in files}
    doc = json.loads(Path(by_name["report.json"]).read_text())
    lines = Path(by_name["summary.txt"]).read_text().splitlines()
    all_passed = all(r.passed for r in reports)
    return ([r["name"] for r in doc["reports"]] == [r.name for r in reports]
            and doc["passed"] == all_passed
            and lines[-1] == ("PASS" if all_passed else "FAIL"))


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(workloads.ROOT / "src"))
    from ballbasis import cli
    cfg, make_basis = workloads.load(args.workload, cli, args.seed)
    workloads.build_operators(cli, cfg, make_basis())
    setup_cpu_s = time.process_time() - c0
    setup_wall_s = time.perf_counter() - t0
    speed = Speedometer()
    speed.burst(SETUP_SPEED_SAMPLES)
    setup = {"setup_s": setup_cpu_s * speed.speed(), "setup_cpu_s": setup_cpu_s,
             "setup_wall_s": setup_wall_s, "speed": speed.speed()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    if args.workload == "dyadic-permuted":
        workloads.check_permuted(cli, make_basis())
    out_root = OUT / "bundles" / f"{args.workload}-seed{args.seed}"

    def repeat(i, tracer=None):
        """One pipeline, with the host's speed sampled during it;
        ``pipeline_s`` is its CPU time at reference speed. Traced, the
        tracer's clock leaves out the sampling, so no span counts it."""
        basis = make_basis()
        ops = workloads.build_operators(cli, cfg, basis)
        speed = Speedometer()
        call = _direct
        if tracer is not None:
            tracer.clock = lambda: time.perf_counter() - speed.spent
            call = tracer.call
        start, cpu = time.perf_counter(), time.process_time()
        speed.start()
        try:
            reports, raised, files = run_pipeline(cli, cfg, basis, ops,
                                                  out_root / f"rep{i}", call)
        finally:
            speed.stop()
            cpu = time.process_time() - cpu - speed.spent
            wall = time.perf_counter() - start - speed.spent
        return {"pipeline_s": speed.scaled_s, "pipeline_cpu_s": cpu,
                "pipeline_wall_s": wall, "speed": speed.speed(),
                "speed_samples": len(speed.samples),
                "reports": len(reports),
                "reports_failed": sum(not r.passed for r in reports),
                "failed_names": [r.name for r in reports if not r.passed],
                "raised": raised, "digest": bundle_digest(files),
                "axioms_passed": any(r.name == "check_basis" and r.passed
                                     for r in reports),
                "consistent": bundle_consistent(reports, files)}

    reps = []
    per_layer = None
    start = time.perf_counter()
    if args.trace:
        # The first pipeline of a process pays lazy imports and first calls;
        # where a second one fits in --seconds, it is the warm baseline.
        reps.append(repeat(0))
        if time.perf_counter() - start <= args.seconds:
            reps.append(repeat(1))
        tracer = Tracer()
        tracer.install()
        try:
            traced = repeat(len(reps), tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        per_layer = tracer.metrics(
            traced["pipeline_wall_s"],
            traced["pipeline_s"] - reps[-1]["pipeline_s"])
        reps.append(traced)
    else:
        # a second repeat if the first took at most --seconds, more while one
        # more of average length still fits in --seconds
        reps.append(repeat(0))
        while True:
            n, elapsed = len(reps), time.perf_counter() - start
            projected = elapsed if n == 1 else elapsed * (n + 1) / n
            if projected > args.seconds:
                break
            reps.append(repeat(n))

    print(json.dumps({
        "setup": setup,
        "repeats": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
