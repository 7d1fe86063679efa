"""dvqkd benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a dvqkd checkout; it uses the sources in ./src and
builds nothing else.  Workloads (see workloads.py for how each is drawn):

    sweep   one boundary.sweep (60-point log T grid) plus t_min_numeric per call
    mc      one montecarlo.simulate call at 1e6 samples
    cli     one README CLI example as a child process

With --trace 0 it prints the end-to-end metrics: setup_s (median over fresh
interpreters), peak_rss_mb, work_per_s, op_ms_p50 and op_ms_p90.  With
--trace 1 it replays a fixed prefix of the same inputs untraced and then
traced, and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object; the lines before it are a report
that names each metric as the workload knows it (sweep_ms_p50, mc_samples_per_s
and so on) with its sample count.

``failed`` counts operations that raised, exited non-zero or failed a check.
The workloads are drawn where every operation succeeds at the commit that
defined them, so ``correct`` is false as soon as one fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "mc", "cli")
SETUP_RUNS = 3  # fresh interpreters per run for setup_s, the worker's own included
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}
# the names each workload reports its generic metrics under: (name, unit, scale)
WORKLOAD_NAMES = {
    "sweep": {
        "work_per_s": ("boundary_points_per_s", "1/s", 1.0),
        "op_ms_p50": ("sweep_ms_p50", "ms", 1.0),
        "op_ms_p90": ("sweep_ms_p90", "ms", 1.0),
    },
    "mc": {
        "work_per_s": ("mc_samples_per_s", "1/s", 1.0),
        "op_ms_p50": ("mc_run_s_p50", "s", 1e-3),
        "op_ms_p90": ("mc_run_s_p90", "s", 1e-3),
    },
    "cli": {
        "work_per_s": ("cli_cmds_per_s", "1/s", 1.0),
        "op_ms_p50": ("cli_cmd_s_p50", "s", 1e-3),
        "op_ms_p90": ("cli_cmd_s_p90", "s", 1e-3),
    },
}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("montecarlo.simulate.self_s") or ".self_s." in name:
        return "s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_per_s") or ".samples_per_s." in name:
        return "1/s"
    if name.endswith("_ratio") or name.endswith("max_sigma"):
        return "ratio"
    if name.endswith("_per_point"):
        return "evals/point"
    return "count"


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, env: dict, deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return (monotonic spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    # a session of its own, so that a timeout also ends any CLI child it started
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: worker exceeded the {DEADLINE_S:.0f} s deadline: {' '.join(args)}")
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr[-4000:])
        raise SystemExit(f"error: worker exited with code {proc.returncode}: {' '.join(args)}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def _report(workload: str, seed: int, result: dict, metrics: dict, trace: bool) -> None:
    n, failed = result["attempted"], result["failed"]
    print(f"# dvqkd benchmark: workload={workload} seed={seed} trace={int(trace)}")
    print(f"# {n} operations attempted, {failed} failed (fail_ratio {failed / n:.4f})")
    for message in result["failures"][:5]:
        print(f"#   failure: {message[:200]}")
    if trace:
        for name, value in metrics.items():
            print(f"{name:44s} {value:14.6g} {_unit(name)}")
        return
    print(f"{'setup_s':28s} {metrics['setup_s']:14.6g} s     median of {SETUP_RUNS} fresh interpreters")
    print(f"{'peak_rss_mb':28s} {metrics['peak_rss_mb']:14.6g} MB")
    print(f"{'fail_ratio':28s} {failed / n:14.6g} ratio {failed}/{n}")
    done, beyond = result["samples"], result["beyond_p90"]
    for key, (name, unit, scale) in WORKLOAD_NAMES[workload].items():
        note = f"{done} samples" + (f", {beyond} beyond p90" if key == "op_ms_p90" else "")
        print(f"{name:28s} {metrics[key] * scale:14.6g} {unit:5s} {note}")
    for cls, ms in sorted(result["class_ms_p50"].items()):
        print(f"#   p50 {cls:36s} {ms:12.4f} ms")
    for name, value in sorted(result.get("tally", {}).items()):
        print(f"#   {name:40s} {value:12.6g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "dvqkd" / "__init__.py").is_file():
        print(f"error: no dvqkd sources in {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    env = _child_env(src)
    common = ["--workload", args.workload, "--outdir", str(outdir)]

    if args.trace:
        _, result = _worker([*common, "--seed", str(args.seed), "--trace"], env, deadline)
        metrics = result["per_layer"]
        units = {name: _unit(name) for name in metrics}
    else:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            spawned, ready = _worker([*common, "--setup-only"], env, deadline)
            setups.append(ready["ready"] - spawned)
        spawned, result = _worker(
            [*common, "--seed", str(args.seed), "--seconds", str(args.seconds)], env, deadline
        )
        setups.append(result["ready"] - spawned)
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update({k: result[k] for k in END_TO_END_UNITS if k != "setup_s"})
        units = END_TO_END_UNITS
    _report(args.workload, args.seed, result, metrics, bool(args.trace))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
