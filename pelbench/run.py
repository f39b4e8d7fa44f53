"""Benchmark of pelhd: one workload per call, metrics as the last stdout line.

    python3 pelbench/run.py --workload mc_level --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``src/pelhd`` and reads
``configs/``).  Every workload runs in fresh single-threaded processes with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 set before numpy loads: PROBES
processes that stop after set-up, then the worker that measures.  setup_s
is the median over all of them of the time from process start to the READY
line a worker prints just before its first timed operation.  See README.md
for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_level", "mc_power", "stat_large_n", "limit_draws")
PROBES = 4
TIMEOUT_S = 170.0
OUT_DIR = HERE / "out"


def start(args, probe, deadline):
    """Start a worker; return the process and its set-up time.

    The set-up time runs from the start to the worker's READY line.  The
    worker then prints the factor that scales it to the reference speed
    (see worker.Reference).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    waiting, _, _ = select.select([proc.stdout], [], [],
                                  max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if waiting else ""
    ready = time.perf_counter() - t0
    scale = proc.stdout.readline().split() if line.strip() == "READY" else []
    if len(scale) != 2 or scale[0] != "SCALE":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not reach READY (got {line!r})")
    return proc, ready, ready * float(scale[1])


def finish(proc, deadline):
    """Read the rest of a worker's stdout; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pelhd" / "__init__.py").is_file():
        sys.exit(f"pelbench: no pelhd sources under {ROOT / 'src'}")

    deadline = time.perf_counter() + TIMEOUT_S
    setups, scaled = [], []
    for probe in [True] * (0 if args.trace else PROBES) + [False]:
        proc, ready, at_ref = start(args, probe, deadline)
        setups.append(ready)
        scaled.append(at_ref)
        if probe:
            finish(proc, deadline)
    lines = finish(proc, deadline).splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    provenance["setup_s"] = setups
    provenance["unscaled"]["setup_s"] = statistics.median(setups)
    if not args.trace:  # set-up time is an end-to-end metric only
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled),
                                        "unit": "s"}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(
        {"provenance": provenance, "result": result}, indent=1) + "\n")
    print(json.dumps({"provenance": {k: v for k, v in provenance.items()
                                     if k not in ("op_seconds", "ref_seconds",
                                                  "round_order")}}))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except RuntimeError as exc:
        sys.exit(f"pelbench: {exc}")
