"""One benchmark process: set up dvqkd, then run one workload as a closed loop.

Started by run.py with the checkout's ``src`` as PYTHONPATH and BLAS pools
pinned to one thread.  The last line of standard output is one JSON object.

    worker.py --workload W --setup-only             set up, report when ready
    worker.py --workload W --seed N --seconds S     untraced timed run
    worker.py --workload W --seed N --trace         untraced and traced pass over
                                                    the same fixed operations
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# operations in a traced pass: whole cycles, fixed so that counts repeat exactly
TRACE_OPS = {"sweep": 54, "mc": 16, "cli": 6}
IMPORTTIME_RUNS = 3


def set_up(workload: str) -> float:
    """Import dvqkd (dvqkd.cli for the cli workload) and run its lazy one-time set-up."""
    import dvqkd

    if workload == "cli":
        import dvqkd.cli  # noqa: F401
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(dvqkd.__file__).resolve().parent.parent != src:
        raise SystemExit(f"dvqkd imported from {dvqkd.__file__}, not from {src}")
    dvqkd.witness.ng_boundary(1e-3)  # builds the non-Gaussianity boundary table
    dvqkd.qber_threshold()
    return time.monotonic()


def _execute(workload, op, tally: dict):
    """Time one call, then check it untimed: (seconds, output, failure or None)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:  # a library failure is data, never the end of the run
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, out, _check(workload, op, out, tally)


def _percentile(values: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


class Samples:
    """Counts every operation; keeps (class, seconds, work) of the completed ones."""

    def __init__(self) -> None:
        self.done: list[tuple] = []
        self.attempted = self.failed = 0
        self.failures: list[str] = []  # the first distinct messages

    def add(self, cls: str, dt: float, work: float, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            message = f"{cls}: {failure}"
            if len(self.failures) < 20 and message not in self.failures:
                self.failures.append(message)
        else:
            self.done.append((cls, dt, work))

    def summary(self) -> dict:
        done = self.done
        durations = [dt for _, dt, _ in done]
        by_class: dict[str, list] = {}
        for cls, dt, work in done:
            by_class.setdefault(cls, []).append((dt, work))
        # throughput of a basket of one typical call per class, so that every run
        # weighs the classes alike whichever calls failed (failures are counted on
        # their own) and a stall on the shared machine moves it no more than a median
        basket_work = sum(statistics.median(w for _, w in v) for v in by_class.values())
        basket_time = sum(statistics.median(dt for dt, _ in v) for v in by_class.values())
        p90 = _percentile(durations, 90)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "work_per_s": basket_work / basket_time if basket_time > 0 else 0.0,
            "op_ms_p50": 1e3 * _percentile(durations, 50),
            "op_ms_p90": 1e3 * p90,
            "samples": len(durations),
            "beyond_p90": sum(dt > p90 for dt in durations),
            "class_ms_p50": {c: 1e3 * _percentile([dt for dt, _ in v], 50) for c, v in by_class.items()},
        }


def run_timed(workload, seed: int, seconds: float) -> dict:
    """Closed loop over whole cycles, ending at the cycle boundary nearest to ``seconds``
    of wall time (checks included, so that the run's length is bounded)."""
    cycle = len(workload.classes)
    samples = Samples()
    tally: dict = {}
    started = time.perf_counter()
    for op in workload.inputs(seed):
        dt, out, failure = _execute(workload, op, tally)
        samples.add(op.cls, dt, 0.0 if failure else workload.work(op, out), failure)
        n = samples.attempted
        wall = time.perf_counter() - started
        if n % cycle == 0 and wall * (1.0 + 0.5 * cycle / n) >= seconds:
            break
    result = samples.summary()
    result["tally"] = tally
    return result


class _RescanCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "dense rescan" in record.getMessage():
            self.count += 1


def run_traced(workload, name: str, seed: int, outdir: Path) -> dict:
    """Per-layer values from a traced pass over a fixed prefix of the seeded inputs.

    The same operations also run untraced first; the ratio of the two passes'
    times is the tracing overhead.
    """
    from tracing import MODELS, Tracer

    ops = list(itertools.islice(workload.inputs(seed), TRACE_OPS[name]))
    plain_s = sum(_execute(workload, op, {})[0] for op in ops)

    tracer = Tracer()
    root = tracer.wrap(workload.run, f"op.{name}")
    rescans = _RescanCounter()
    boundary_log = logging.getLogger("dvqkd.boundary")
    boundary_log.addHandler(rescans)
    traced = []
    try:
        with tracer.installed():
            for op in ops:
                t0 = time.perf_counter()
                out = error = None
                try:
                    out = root(op)
                except Exception as exc:  # counted as failed, as in the timed run
                    error = f"raised {type(exc).__name__}: {exc}"
                traced.append((op, time.perf_counter() - t0, out, error))
    finally:
        boundary_log.removeHandler(rescans)
    tally: dict = {}
    records = []
    for op, dt, out, error in traced:  # checks run with the tracer removed
        records.append((op, dt, out, error or _check(workload, op, out, tally)))
    traced_s = sum(r[1] for r in traced)
    tracer.write(outdir / f"spans-{name}-{seed}.npz")
    spans = tracer.summary()

    m: dict = {}
    for layer in (
        "boundary.sweep", "boundary.mu_max_numeric", "boundary.t_min_numeric",
        "roots.bisect_predicate", "photon_stats.prob_at_least", "security.binary_entropy",
        "security.secret_fraction_ideal", "security.secret_fraction_multiphoton",
    ):
        calls, self_s, _ = spans.get(layer)
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = self_s
    per_call = [f"{model}.{fn}" for model in MODELS for fn in ("key_rate", "click_stats", "omega")]
    for layer in per_call + ["witness.ng_boundary", "witness.nc_boundary", "witness.is_nongaussian"]:
        calls, self_s, _ = spans.get(layer)
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    evals = spans.calls_under(("boundary.delta_i", "boundary.model_clicks"), "boundary.sweep")
    points = spans.calls_under(("boundary.mu_max_numeric",), "boundary.sweep")
    m["boundary.predicate_evals"] = evals
    m["boundary.predicate_evals_per_point"] = evals / points if points else 0.0
    m["boundary.dense_rescans"] = rescans.count
    m["boundary.points_ceiling"] = tally.get("points_ceiling", 0)
    m["boundary.points_infeasible"] = tally.get("points_infeasible", 0)
    m["boundary.noisy_boundaries"] = tally.get("noisy_boundaries", 0)
    for model in MODELS:
        calls, self_s, _ = spans.get(f"montecarlo.simulate.{model}")
        m[f"montecarlo.simulate.self_s.{model}"] = self_s / calls if calls else 0.0
        done = [
            (dt, workload.work(op, out))
            for op, dt, out, failure in records
            if failure is None and type(op.args[0]).__module__.endswith(model)
        ] if name == "mc" else []
        busy = sum(dt for dt, _ in done)
        m[f"montecarlo.samples_per_s.{model}"] = sum(w for _, w in done) / busy if busy else 0.0
    m["montecarlo.poisson_ppf_s"] = spans.get("montecarlo.poisson_ppf")[1]
    m["montecarlo.max_sigma"] = tally.get("max_sigma", 0.0)
    from workloads import CLI_EXAMPLES

    for command, _, _ in CLI_EXAMPLES:
        calls, self_s, _ = spans.get(f"cli.main.{command}")
        m[f"cli.main.self_s.{command}"] = self_s / calls if calls else 0.0
    m["cli.byte_identical"] = tally.get("byte_identical", 0)
    m["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    m["trace.spans"] = spans.spans
    m.update(import_times(name))
    accounting = Samples()
    for op, dt, out, failure in records:
        accounting.add(op.cls, dt, 0.0, failure)
    result = accounting.summary()
    result["per_layer"] = m
    return result


def _check(workload, op, out, tally: dict):
    from workloads import CheckFailure

    try:
        workload.check(op, out, tally)
    except CheckFailure as exc:
        return f"check: {exc}"
    return None


def import_times(workload: str) -> dict:
    """Import layer from ``python -X importtime`` in fresh interpreters (median of runs)."""
    target = "dvqkd.cli" if workload == "cli" else "dvqkd"
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {target}"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        self_us = {"total": 0, "scipy": 0, "numpy": 0, "dvqkd": 0}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, _, module = line.split(":", 1)[1].split("|")
            top = module.strip().split(".")[0]
            self_us["total"] += int(own)
            if top in self_us:
                self_us[top] += int(own)
        runs.append(self_us)
    med = {k: statistics.median(r[k] for r in runs) / 1e6 for k in runs[0]}
    return {
        "import.total_s": med["total"],
        "import.scipy_s": med["scipy"],
        "import.numpy_s": med["numpy"],
        "import.dvqkd_self_s": med["dvqkd"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--outdir", type=Path, required=True)
    args = parser.parse_args()

    ready = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import workloads

    cli_dir = args.outdir / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, cli_dir, dict(os.environ), in_process_cli=args.trace)
    if args.trace:
        result = run_traced(workload, args.workload, args.seed, args.outdir)
    else:
        result = run_timed(workload, args.seed, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
