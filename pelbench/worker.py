"""One workload process: set up, run whole rounds for about --seconds,
check the outputs and print the metrics as the last line of stdout.

Started by run.py with BLAS pinned to one thread; run.py times the set-up
from the outside, from process start to the READY line printed here just
before the first timed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIB = float(1 << 20)
# Time of the reference kernel on a quiet host; see Reference.
REF_NOMINAL_S = 0.018


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pelhd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, wl, labels, import_ms):
    import numpy as np
    import scipy
    import pelhd
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except Exception:  # older numpy: no dict form
        openblas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "data_seeds": wl.seeds, "round_order": labels,
        "pelhd_version": pelhd.__version__, "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": openblas,
        "blas_threads": {k: os.environ.get(k) for k in PIN},
        "workers": 1, "cpu_count": os.cpu_count(),
        "import_pelhd_ms": import_ms,
    }


def wrapper_cost(calls=20_000):
    """Seconds a traced call adds to a call of a trivial function."""
    from spans import Recorder

    def trivial(x):
        return x

    traced = Recorder()._wrap("trivial", trivial)
    elapsed = []
    for fn in (trivial, traced):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        elapsed.append(time.perf_counter() - t0)
    return max(0.0, elapsed[1] - elapsed[0]) / calls


class Reference:
    """A fixed kernel timed before every operation and after the last.

    The host's speed drifts by 1.5-2.5x over tens of seconds, for this
    kernel and the workloads alike, so the end-to-end times are scaled by
    REF_NOMINAL_S over the mean of the kernel's two times around each
    operation.  The kernel mixes what the workloads do: small LAPACK
    solves, a BLAS matrix product and interpreted Python.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 60))
        self.a, self.b = a @ a.T + 60 * np.eye(60), np.ones(60)
        self.g = rng.standard_normal((192, 192))
        self.solve = np.linalg.solve
        self.seconds = []

    def run(self):
        t0 = time.perf_counter()
        for _ in range(250):
            self.solve(self.a, self.b)
        for _ in range(6):
            self.g @ self.g
        total = 0
        for i in range(15_000):
            total += i * i
        self.seconds.append(time.perf_counter() - t0)

    def scaled(self, times):
        """Each operation's time at the nominal speed of the kernel; the
        first kernel time belongs to set-up."""
        return [t * 2 * REF_NOMINAL_S / (self.seconds[i + 1] + self.seconds[i + 2])
                for i, t in enumerate(times)]


def measure(op, wl, rec, times, ref):
    """Time one operation; returns its result and whether it succeeded."""
    ref.run()
    rec.op = len(times)
    t0 = time.perf_counter()
    try:
        out = op.run()
        ok = not wl.failed(out)
    except Exception:
        traceback.print_exc()
        out, ok = None, False
    times.append(time.perf_counter() - t0)
    return out, ok


def first_round(ops, order, wl, rec, times, ref, trace, report):
    """Run and check every operation once; returns the outputs' digests.

    Each operation's calls are recorded for its checks, which run straight
    after it, outside its timing; its outputs are then released, so peak
    memory does not depend on the order of the round.
    """
    digests = []
    for k, op in enumerate(ops):
        rec.install()
        rec.keep = True
        out, ok = measure(op, wl, rec, times, ref)
        rec.keep = False
        rec.uninstall()
        digests.append(wl.digest(out) if ok else None)
        report["failed"] += not ok
        if ok:
            spans = rec.top(op=k)
            report["errors"] += [f"{op.label}: {e}"
                                 for e in wl.check(order[k], out, spans)]
            note_first(report, spans)
            if trace and wl.replicates:
                got = wl.resolve_blocks(order[k], spans)
                for key in ("seconds", "iters", "capped", "errors"):
                    report["blocks"][key] += got[key]
        rec.release(k)
        out = spans = None  # nothing of this op stays alive during the next
    return digests


def note_first(report, spans):
    """Counts that the per-layer metrics read from the first round."""
    for s in spans:
        if s.name == "core.solve_pel":
            report["full_iters"].append(s.result.iterations)
            report["kkt_mb"] = max(report["kkt_mb"],
                                   8 * (s.result.pi.size + 1) ** 2 / MIB)
        elif s.name.startswith("calibration.build_curve"):
            report["curve_blocks"] += len(s.result.block_stats)
            report["curve_failed"] += s.result.n_failed
        elif s.name == "simulate.generate":
            report["kinds"][s.op] = s.args[0].kind


def later_round(ops, wl, rec, times, ref, digests, report):
    """Run every operation once more; each must reproduce its digest."""
    for k, op in enumerate(ops):
        out, ok = measure(op, wl, rec, times, ref)
        report["failed"] += not ok
        if ok and digests[k] is not None and not wl.same(digests[k], wl.digest(out)):
            report["errors"].append(f"{op.label}: output differs from the first round")
        out = None


def layer_metrics(wl, rec, n_first, times, import_ms, report):
    """Per-operation means of each layer's time and counts (see README).

    Times are averaged over every measured operation; counts come from the
    first round, over its n_first operations.
    """
    n_ops = len(times)
    measured = [s for s in rec.top() if s.op >= 0]

    def ms(prefix):
        return 1e3 * sum(s.seconds for s in measured
                         if s.name.startswith(prefix)) / n_ops

    gen = {"srd": 0.0, "lrd": 0.0, "ne": 0.0}
    covered = {}
    for s in measured:
        covered[s.op] = covered.get(s.op, 0.0) + s.seconds
        if s.name == "simulate.generate":
            gen[report["kinds"][s.op % n_first]] += 1e3 * s.seconds / n_ops
    self_ms = (1e3 * sum(t - covered.get(i, 0.0) for i, t in enumerate(times))
               / n_ops) if wl.replicates else 0.0
    blocks, full = report["blocks"], report["full_iters"]
    return {
        "core.solve_pel.block.calls": len(blocks["seconds"]) / n_first,
        "core.solve_pel.block.ms": 1e3 * sum(blocks["seconds"]) / n_first,
        "core.solve_pel.block.iters": (sum(blocks["iters"]) / len(blocks["iters"])
                                       if blocks["iters"] else 0.0),
        "core.solve_pel.block.capped": blocks["capped"] / n_first,
        "core.solve_pel.full.ms": ms("core.solve_pel"),
        "core.solve_pel.full.iters": sum(full) / len(full) if full else 0.0,
        "core.solve_pel.kkt_mb": report["kkt_mb"],
        "core.compute_column_stats.ms": ms("core.compute_column_stats"),
        "calibration.build_curve.ms": ms("calibration.build_curve"),
        "calibration.build_curve.blocks": report["curve_blocks"] / n_first,
        "calibration.build_curve.n_failed": report["curve_failed"] / n_first,
        "calibration.estimate_alpha_hurst.ms": ms("calibration.estimate_alpha_hurst"),
        "calibration.decide.ms": ms("calibration.decide"),
        "simulate.generate.srd.ms": gen["srd"],
        "simulate.generate.lrd.ms": gen["lrd"],
        "simulate.generate.ne.ms": gen["ne"],
        "simulate.lrd_correlation.ms": 1e3 * sum(
            s.seconds for s in rec.spans if s.name == "simulate.lrd_correlation"),
        "limits.sample_lrd_limit.ms": ms("limits.sample_lrd_limit"),
        "limits.sample_ne_limit.ms": ms("limits.sample_ne_limit"),
        "experiments.replicate.self_ms": self_ms,
        "import.pelhd.ms": import_ms,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up (a set-up time sample)")
    args = ap.parse_args(argv)
    if any(os.environ.get(k) != "1" for k in PIN):
        sys.exit(f"worker.py must run with {'/'.join(PIN)}=1; start it via run.py")

    t0 = time.perf_counter()
    import pelhd  # noqa: F401  (timed: import.pelhd.ms)
    import_ms = 1e3 * (time.perf_counter() - t0)
    import numpy as np

    import workloads
    from spans import Recorder

    rec = Recorder()
    if args.trace:  # a traced run records set-up too
        rec.install()
    wl = workloads.make(args.workload, ROOT)
    all_ops = wl.ops()
    order = [int(i) for i in np.random.default_rng(args.seed).permutation(len(all_ops))]
    ops = [all_ops[i] for i in order]
    wl.warm(order)
    print("READY", flush=True)
    ref = Reference()
    ref.run()  # the host's speed right after set-up, to scale setup_s
    print(f"SCALE {REF_NOMINAL_S / ref.seconds[0]!r}", flush=True)
    if args.probe:
        return 0

    times = []
    report = {"failed": 0, "errors": [], "full_iters": [], "kkt_mb": 0.0,
              "curve_blocks": 0, "curve_failed": 0, "kinds": {},
              "blocks": {"seconds": [], "iters": [], "capped": 0, "errors": []}}
    digests = first_round(ops, order, wl, rec, times, ref, args.trace, report)
    if args.trace:
        rec.install()
    rounds = max(1, round(args.seconds / sum(times)))
    for _ in range(rounds - 1):
        later_round(ops, wl, rec, times, ref, digests, report)
    ref.run()
    timed = sum(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec.uninstall()
    errors = report["errors"] + report["blocks"]["errors"]
    failed = report["failed"]

    prov = provenance(args, wl, [op.label for op in ops], import_ms)
    scaled = ref.scaled(times)
    prov.update(rounds=rounds, ops_per_round=len(ops), op_seconds=times,
                ref_seconds=ref.seconds, errors=errors[:50],
                unscaled={"ops_per_s": (len(times) - failed) / timed,
                          "op_ms.p50": 1e3 * statistics.median(times)})
    if args.trace:
        spans_per_op = sum(s.op >= 0 for s in rec.spans) / len(times)
        prov["trace_overhead_pct"] = (100.0 * spans_per_op * wrapper_cost()
                                      / (timed / len(times)))
        values = layer_metrics(wl, rec, len(ops), times, import_ms, report)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        units = {m["name"]: m["unit"] for m in spec}
        if set(units) != set(values):
            sys.exit(f"per-layer metrics differ from BENCHMARK.json: "
                     f"{sorted(set(units) ^ set(values))}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        metrics = {
            "ops_per_s": {"value": (len(times) - failed) / sum(scaled),
                          "unit": "1/s"},
            "op_ms.p50": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": not errors, "attempted": len(times),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
