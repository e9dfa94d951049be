"""Pipeline benchmark for ballbasis.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, untraced

Runs from the root of a checkout; needs only ``src/ballbasis`` and
``configs/`` from it, and writes only under ``.bench_out/``. Each workload
runs in a fresh worker process (``worker.py``) with BLAS capped at one
thread; the workloads and why they were chosen are in ``workloads.py``.

Times are CPU seconds of the worker process, which runs one thread (BLAS
is capped at one), scaled to the host's reference speed: on a shared host the
same pipeline took up to half again as long in one hour as in the next, in
CPU time as in wall time. ``hostspeed.py`` samples the host's speed with a
fixed reference kernel while the work runs. Raw CPU and wall times and the
sampled speed are printed and kept beside them.

Untraced (``--trace 0``) the last line of output reports the end-to-end
metrics:

    pipeline_s   median scaled CPU time of the ``all`` pipeline, first stage
                 to the end of report emission, over the repeats of the run
                 after the first, which pays the process's lazy imports and
                 first calls; a run makes one repeat if a pipeline takes
                 longer than ``--seconds``, and then that one counts
    setup_s      median scaled CPU time, over four fresh processes (the
                 worker and three that stop after set-up), of importing
                 ballbasis, loading the config and building the basis and
                 operators
    peak_rss_mb  peak resident memory of the worker process
    passed_frac  reports passed over reports attempted, a stage that raised
                 counting as a failed report (1 - failed_frac)

Traced (``--trace 1``) it reports the per-layer metrics of ``tracer.py`` from
one traced pipeline, after one or two untraced pipelines in the same process.

The output check: no stage raises, the emitted bundle agrees with the
returned reports, the basis passes its axiom check, and the sha256 of the
bundle is the same on every repeat. Digests are also kept in
``.bench_out/digests.json`` per input, source tree, benchmark code and
numpy/scipy version, so repeats in later runs of the same checkout are
compared too. Reports whose own check fails count in ``failed`` and
``passed_frac``, not against ``correct``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = workloads.ROOT
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 4
DEADLINE_S = 170.0
# The pipeline's matrices are at most 512 wide: a second BLAS thread spins
# more than it computes (measured: no faster, 1.6x the CPU time, noisier).
BLAS_THREADS = "1"


def source_digest(env: dict) -> str:
    """What a bundle depends on besides the workload and seed: the program,
    its configs, the benchmark's own code and the numeric libraries."""
    h = hashlib.sha256(f"numpy {env['numpy']} scipy {env['scipy']}".encode())
    for path in (sorted((ROOT / "src" / "ballbasis").glob("*.py"))
                 + sorted((ROOT / "configs").glob("*.json"))
                 + sorted(WORKER.parent.glob("*.py"))):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion (killed at the deadline) and parse its
    last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env=worker_env(), stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digests(key: str, digests: list[str]) -> int:
    """Count repeats whose bundle digest differs from the first one seen for
    this input and source tree, in this run or an earlier one."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    ref = known.setdefault(key, digests[0])
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return sum(d != ref for d in digests)


def warm_times(reps: list) -> list[float]:
    """Pipeline times after the first, which alone pays the process's lazy
    imports and first calls; the first if it is the only one."""
    return [r["pipeline_s"] for r in reps[1:] or reps]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    res = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                     deadline)
    setups = [] if trace else [res["setup"]] + [
        run_worker(common + ["--setup-only"], deadline)
        for _ in range(SETUP_SAMPLES - 1)]

    reps = res["repeats"]
    raised = sum(len(r["raised"]) for r in reps)
    attempted = sum(r["reports"] for r in reps) + raised
    mismatched = check_digests(
        f"{workloads.input_key(name, seed)}/src-{source_digest(res['env'])}",
        [r["digest"] for r in reps])
    report_failures = sum(r["reports_failed"] for r in reps) + raised
    failed_frac = report_failures / attempted
    correct = bool(not raised and not mismatched and all(
        r["axioms_passed"] and r["consistent"] for r in reps))

    if trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "pipeline_s": (statistics.median(warm_times(reps)), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "passed_frac": (1.0 - failed_frac, "ratio"),
        }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": res["env"], "repeats": reps,
              "setup_samples": setups, "mismatched": mismatched,
              "failed_frac": failed_frac,
              "result": {"correct": correct, "attempted": attempted,
                         "failed": report_failures + mismatched,
                         "metrics": {k: {"value": v, "unit": u}
                                     for k, (v, u) in metrics.items()}}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def summary(rec: dict) -> list[str]:
    env = rec["env"]
    reps = rec["repeats"]
    times = [r["pipeline_s"] for r in reps]
    res = rec["result"]
    failed_names = sorted({n for r in reps for n in r["failed_names"]})
    lines = [
        f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}",
        f"  env: nproc={env['nproc']} cpu={env['cpu']!r} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"blas_threads={env['blas_threads']}",
        "  pipeline s: " + ", ".join(f"{t:.4f}" for t in times)
        + ("  (last traced)" if rec["trace"] else
           f"  median {statistics.median(warm_times(reps)):.4f} over "
           f"{len(warm_times(reps))} (the first left out unless alone; "
           "no tail percentile: fewer than 11 samples)"),
        "  pipeline CPU s: " + ", ".join(f"{r['pipeline_cpu_s']:.4f}"
                                        for r in reps),
        "  pipeline wall s: " + ", ".join(f"{r['pipeline_wall_s']:.4f}"
                                         for r in reps),
        "  host speed: " + ", ".join(
            f"{r['speed']:.3f} ({r['speed_samples']} samples)" for r in reps),
        f"  failed_frac {rec['failed_frac']:.4f} of {res['attempted']} reports,"
        f" failing: {', '.join(failed_names) or 'none'}",
        f"  bundle sha256 {reps[0]['digest'][:16]}..., "
        f"{rec['mismatched']} mismatching repeat(s)",
    ]
    for key, label in (("setup_s", "setup s"), ("setup_cpu_s", "setup CPU s"),
                       ("setup_wall_s", "setup wall s"),
                       ("speed", "setup host speed")):
        if rec["setup_samples"]:
            lines.append(f"  {label}: " + ", ".join(
                f"{s[key]:.4f}" for s in rec["setup_samples"]))
    for r in reps:
        lines += [f"  raised: {msg}" for msg in r["raised"]]
    for key, m in res["metrics"].items():
        lines.append(f"  {key} = {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/ballbasis/__init__.py", "src/ballbasis/cli.py",
                           "configs/dyadic-martingale.json",
                           "configs/grid-hilbert.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a ballbasis checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary(rec)))
        print(json.dumps(rec["result"]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
