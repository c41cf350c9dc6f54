#!/usr/bin/env python3
"""dhankel benchmark: one closed-loop verification workload per run.

    python3 perfbench/run.py --workload tail_suite --seed 1 --seconds 10 --trace 0

One client in one process issues ops back to back (closed loop), with BLAS
capped at nproc threads before numpy is imported.  The seed fixes the op
order and the drawn op parameters.  Ops run in whole passes until --seconds
have elapsed, so every run measures the same op mix.  Every outcome is
checked against reference.json; report bytes must repeat exactly for an op
that runs more than once, and a seeded sample of ops is run once more after
timing for that purpose.

--trace 0 prints the end-to-end metrics.  setup_s is the median of three
set-ups, each in a fresh interpreter: import of dhankel plus the workload's
set-up.  All three timings are scaled to a reference machine speed (see
SpeedProbe); the raw wall-clock figures go to the result file.
--trace 1 runs one untraced pass, then traced passes (see
tracing.py), and prints the per-layer metrics per traced pass; traced and
untraced outcomes must be identical.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  A fuller result file, with the environment, goes to
.bench_results/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "HL_THREADS")
SETUP_REPS = 3
# Ops whose report bytes are checked once more after timing.
DETERMINISM_SAMPLE = {"tail_suite": 8, "route_cold": 2, "warm_apply": 8}


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["tail_suite", "route_cold", "warm_apply"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process, print it and exit")
    return ap.parse_args(argv)


def import_and_setup(ns, workdir: Path):
    """Import dhankel and set the workload up.

    Returns (workload, state, warm-up, {"raw_s", "setup_s"}): the set-up's
    wall time, and that time at reference speed from probes right after it.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    wl = workloads.WORKLOADS[ns.workload]
    state, warm = wl.setup(workdir, ns.seed)
    seconds = time.perf_counter() - start
    return wl, state, warm, {"raw_s": seconds, "setup_s": seconds / SpeedProbe().scale_now()}


def setup_in_fresh_interpreter(ns) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", ns.workload,
           "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Checker:
    """Counts attempted and failed ops and keeps the first report digest per op."""

    def __init__(self, reference: dict, mismatch):
        self.reference = reference
        self.mismatch = mismatch
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.digests: dict[str, str] = {}
        self.route_max = 0.0
        self.preconditions = 0

    def check(self, op, outcome) -> None:
        self.attempted += 1
        reason = self.mismatch(outcome, self.reference.get(op.key))
        if reason is None and outcome.digest is not None:
            first = self.digests.setdefault(op.key, outcome.digest)
            if first != outcome.digest:
                reason = "report bytes differ from an earlier run of the same op"
        if reason is not None:
            self.failures.append((op.key, reason))
        if outcome.route_agreement is not None:
            self.route_max = max(self.route_max, outcome.route_agreement)
        self.preconditions += outcome.exit == 2


class SpeedProbe:
    """Machine-speed reference: a fixed numpy loop that does not touch dhankel.

    The machine is shared, and neighbours slow every process on it by up to
    a third for tens of seconds at a time, so raw wall times of two runs
    differ by more than a code change should be judged by.  The probe runs
    between ops, at most once per EVERY_S, on preallocated buffers so that
    allocator state does not move it.  It mixes elementwise work on a
    128 KiB vector with matrix-vector products on an 8 MiB matrix, the two
    kinds of work dhankel does.  ``scale_at`` turns a latency measured at a
    given time into one at the speed where the probe takes REFERENCE_S,
    from the probes nearest in time, since the slow-downs come and go within
    a run too.
    """

    EVERY_S = 0.25
    NEAREST = 9
    REFERENCE_S = 0.0055

    def __init__(self):
        import numpy as np
        self._np = np
        self._x = np.linspace(-1.0, 1.0, 1 << 14)
        self._a = np.empty_like(self._x)
        self._b = np.empty_like(self._x)
        self._m = np.linspace(0.0, 1.0, 1 << 20).reshape(1024, 1024)
        self._mv = np.empty(1024)
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)
        self._last = -float("inf")

    def between_ops(self) -> None:
        """Probe if EVERY_S has passed since the last probe."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self._sample()

    def scale_now(self) -> float:
        """Reference speed over the speed right now, from NEAREST probes."""
        for _ in range(self.NEAREST):
            self._sample()
        return self.scale_at(time.perf_counter())

    def _sample(self) -> None:
        start = time.perf_counter()
        np, x, a, b = self._np, self._x, self._a, self._b
        for _ in range(40):
            np.sqrt(np.abs(x, out=a), out=a)
            np.exp(np.negative(x, out=b), out=b)
            np.add(np.multiply(a, b, out=a), x, out=a)
        for _ in range(16):
            np.dot(self._m, x[:1024], out=self._mv)
        self._last = time.perf_counter()
        self.samples.append((0.5 * (start + self._last), self._last - start))

    def scale_at(self, t: float) -> float:
        """Reference speed over the speed around time t (above 1 when slowed)."""
        near = heapq.nsmallest(self.NEAREST, self.samples, key=lambda s: abs(s[0] - t))
        return statistics.median(sec for _, sec in near) / self.REFERENCE_S


@dataclass(frozen=True)
class Timed:
    pass_index: int
    op: object
    outcome: object
    start: float
    seconds: float


def run_passes(wl, state, rng, seconds, checker, execute, probe, first_pass=None):
    """Whole passes until `seconds` have elapsed, probing machine speed between ops.

    Returns (timed ops, peak resident set in MB after the first pass).
    """
    import workloads
    timed, rss, passes = [], None, 0
    start = time.perf_counter()
    while True:
        batch = first_pass if (passes == 0 and first_pass) else wl.make_pass(rng)
        for op in batch:
            probe.between_ops()
            op_start = time.perf_counter()
            try:
                outcome, seconds_op = execute(len(timed), op)
            except Exception as exc:  # an op must not end the run; it fails
                outcome = workloads.Outcome(exit=-1, error=f"{type(exc).__name__}: {exc}")
                seconds_op = time.perf_counter() - op_start
            checker.check(op, outcome)
            timed.append(Timed(passes, op, outcome, op_start, seconds_op))
        passes += 1
        # How many passes fit depends on machine speed, and the kernel cache
        # grows with every pass of route_cold, so memory is read after one.
        rss = rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if time.perf_counter() - start >= seconds:
            return timed, rss


def harrell_davis_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order
    statistics.  Op costs come in clusters (route_cold has six grid sizes in
    26 ops), and the plain sample median jumps between two clusters from run
    to run; this estimate moves smoothly with them instead."""
    from scipy.special import betainc
    x = sorted(values)
    n = len(x)
    a = (n + 1) / 2.0
    cdf = [betainc(a, a, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(x))


def latency_metrics(timed, scale_at=None) -> dict[str, float]:
    """ops_per_s (median over passes) and op_ms percentiles, optionally speed-scaled."""
    lat = [t.seconds / (scale_at(t.start + 0.5 * t.seconds) if scale_at else 1.0)
           for t in timed]
    per_pass: dict[int, list[float]] = {}
    for t, sec in zip(timed, lat):
        per_pass.setdefault(t.pass_index, []).append(sec)
    out = {"ops_per_s": statistics.median(len(v) / sum(v) for v in per_pass.values()),
           "op_ms.p50": harrell_davis_median(lat) * 1e3}
    if len(lat) >= 100:   # ten or more samples beyond p90
        out["op_ms.p90"] = statistics.quantiles(lat, n=10)[-1] * 1e3
    return out


def environment(nproc: int) -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ns = parse_args(argv)
    nproc = cap_threads()
    if not (SRC / "dhankel" / "__init__.py").is_file():
        print(f"error: dhankel sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_tmp" / f"{ns.workload}-{os.getpid()}"
    try:
        return run(ns, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(ns, nproc: int, workdir: Path) -> int:
    if ns.setup_only:
        print(json.dumps(import_and_setup(ns, workdir)[3]))
        return 0
    # Fresh-interpreter set-ups go first, while this process is still small.
    setups = ([] if ns.trace else
              [setup_in_fresh_interpreter(ns) for _ in range(SETUP_REPS - 1)])
    wl, state, warm, own_setup = import_and_setup(ns, workdir)
    setups.append(own_setup)
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    checker = Checker(reference, workloads.mismatch)
    for op, outcome in warm:
        checker.check(op, outcome)
    rng = random.Random(ns.seed)
    RESULTS.mkdir(exist_ok=True)
    result = {"workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
              "trace": ns.trace, "environment": environment(nproc),
              "closed_loop": {"clients": 1, "processes": 1}}

    def plain(index, op):
        return wl.execute(op, state)

    if ns.trace:
        values, timed = traced_run(ns, wl, state, rng, checker, plain, result)
    else:
        probe = SpeedProbe()
        timed, peak_rss_mb = run_passes(wl, state, rng, ns.seconds, checker, plain, probe)
        raw = latency_metrics(timed)
        scaled = latency_metrics(timed, probe.scale_at)
        values = {"setup_s": statistics.median(t["setup_s"] for t in setups),
                  "ops_per_s": scaled["ops_per_s"],
                  "op_ms.p50": scaled["op_ms.p50"],
                  "peak_rss_mb": peak_rss_mb}
        result.update(setup_runs_s=setups, timed_ops=len(timed),
                      passes=timed[-1].pass_index + 1, raw_wall=raw, speed_scaled=scaled,
                      probe_median_s=statistics.median(sec for _, sec in probe.samples),
                      probes=len(probe.samples))

    # Determinism: a seeded sample of ops runs once more; Checker compares bytes.
    keys = sorted({t.op.key: t.op for t in timed}.items())
    sample = random.Random(ns.seed + 1).sample(keys, min(DETERMINISM_SAMPLE[ns.workload], len(keys)))
    for _, op in sample:
        checker.check(op, wl.execute(op, state)[0])
    result["determinism_sample"] = [key for key, _ in sample]

    units = declared_metrics(ns.trace)
    if set(units) != set(values):
        raise SystemExit(f"metrics computed {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    failed = len(checker.failures)
    correct = failed == 0 and not result.get("uncovered")
    result.update(metrics=metrics, attempted=checker.attempted, failed=failed,
                  failed_ops_ratio=failed / checker.attempted,
                  failed_ops=[{"op": k, "reason": r} for k, r in checker.failures],
                  correct=correct)
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {ns.workload} seed {ns.seed} trace {ns.trace}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in result.get("raw_wall", {}).items():
        print(f"raw {name} {value!r} {'1/s' if name == 'ops_per_s' else 'ms'} (wall clock, not speed-scaled)")
    print(f"failed_ops_ratio {result['failed_ops_ratio']!r} ratio "
          f"({failed} of {checker.attempted} ops)")
    for key, reason in checker.failures:
        print(f"FAILED {key}: {reason}")
    for name, holds in result.get("predictions", {}).items():
        print(f"prediction {name}: {'holds' if holds else 'DOES NOT HOLD'}")
    for name in result.get("uncovered", []):
        print(f"UNTRACED {name}")
    print(f"result file {RESULTS.name}/{stem}.json")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(ns, wl, state, rng, checker, plain, result):
    """One untraced pass, then traced passes; returns (per-layer values, timed ops)."""
    from tracing import Tracer
    probe = SpeedProbe()
    untraced, _ = run_passes(wl, state, rng, 0.0, checker, plain, probe)
    tracer = Tracer()
    tracer.install()
    result["uncovered"] = tracer.uncovered()
    try:
        def traced(index, op):
            return tracer.op(index, wl.execute, op, state)

        checker.route_max, checker.preconditions = 0.0, 0
        timed, _ = run_passes(wl, state, rng, ns.seconds, checker, traced, probe,
                              first_pass=[t.op for t in untraced])
    finally:
        tracer.uninstall()
    for before, after in zip(untraced, timed):
        if before.outcome != after.outcome:
            checker.failures.append((before.op.key, "traced outcome differs from the untraced one"))
    passes = timed[-1].pass_index + 1
    values = tracer.layer_metrics(passes)
    values.update({
        "titchmarsh.preconditions": checker.preconditions / passes,
        "titchmarsh.route_agreement.max": checker.route_max,
        "trace.overhead_ratio": (sum(t.seconds for t in timed[:len(untraced)])
                                 / sum(t.seconds for t in untraced)),
    })
    result["traced_passes"] = passes
    result["predictions"] = predictions(ns.workload, values)
    tracer.write_spans(RESULTS / f"{ns.workload}-seed{ns.seed}-spans.jsonl")
    return values, timed


def predictions(workload: str, v: dict) -> dict[str, bool]:
    """The per-layer predictions this benchmark was defined to confirm."""
    if workload == "tail_suite":
        return {"transform.kernel_matrix.builds == 0": v["transform.kernel_matrix.builds"] == 0,
                "transform.forward.calls == 0": v["transform.forward.calls"] == 0}
    if workload == "warm_apply":
        return {"transform.kernel_matrix.hit_ratio == 1.0":
                v["transform.kernel_matrix.hit_ratio"] == 1.0}
    return {"specfun.kernel_B.op_share >= 0.9": v["specfun.kernel_B.op_share"] >= 0.9}


if __name__ == "__main__":
    sys.exit(main())
