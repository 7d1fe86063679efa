"""Repeat the benchmark over seeds and record the baseline with its spread.

    python3 perfbench/prove.py [--seeds 10] [--workloads sweep,mc,cli]
                               [--out perfbench/baseline.json]

Run from the root of a checkout.  For every workload it runs run.py once per
seed (untraced), then once traced.  For each end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json and a third of it (the target for a steady benchmark).  It
also checks the rough baseline rows of ROADMAP.md against the matching
per-layer numbers and flags any that differ by more than 2x.  The result,
with machine notes, is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import SpanSummary  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def _class_p50(report: str) -> dict:
    return {m[1]: float(m[2]) for m in re.finditer(r"#   p50 (\S+)\s+([0-9.]+) ms", report)}


def machine_notes() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _cross_check(traced: dict, class_p50: dict, seed: int) -> list:
    """ROADMAP baseline rows against this benchmark's numbers (low, high, measured)."""
    rows = []
    spans_file = Path(".perfbench_out") / f"spans-sweep-{seed}.npz"
    if "sweep" in traced and spans_file.exists():
        import numpy as np

        with np.load(spans_file) as z:
            spans = SpanSummary(z["names"], z["name_id"], z["parent"], z["start"], z["end"])
        calls, _, total = spans.get("thermal_bath.key_rate")
        rows.append(("thermal_bath.key_rate per call, traced, inclusive (us)", 9.0, 9.0,
                     1e6 * total / calls if calls else None))
    if "cli" in traced:
        rows.append(("import dvqkd.cli (s), import.total_s", 1.1, 1.1,
                     traced["cli"]["import.total_s"]["value"]))
    if "mc" in traced:
        rate = traced["mc"]["montecarlo.samples_per_s.spdc"]["value"]
        rows.append(("spdc Monte Carlo per 1e6 samples (s), traced", 2.0, 2.2,
                     1e6 / rate if rate else None))
        spdc = [v for k, v in class_p50.get("mc", {}).items() if k.startswith("spdc|")]
        if spdc:
            rows.append(("spdc Monte Carlo per 1e6 samples (s), untraced p50", 2.0, 2.2,
                         statistics.median(spdc) / 1e3))
    ng = [v for k, v in class_p50.get("sweep", {}).items() if k.endswith("|nongaussian")]
    if ng:
        rows.append(("60-point NG sweep plus t_min (s), untraced p50 per model", 0.05, 0.17,
                     statistics.median(ng) / 1e3))
    out = []
    for what, low, high, value in rows:
        off = value is not None and (value > 2.0 * high or value < 0.5 * low)
        out.append({"row": what, "roadmap": [low, high], "measured": value, "off_by_2x": off})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="sweep,mc,cli")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"machine": machine_notes(), "run_seconds": seconds, "workloads": {}}
    traced, class_p50 = {}, {}
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        attempted = failed = 0
        started = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, report = _run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for cls, ms in _class_p50(report).items():
                class_p50.setdefault(workload, {}).setdefault(cls, []).append(ms)
        wall = time.monotonic() - started
        class_p50[workload] = {c: statistics.median(v) for c, v in class_p50.get(workload, {}).items()}
        stats = {}
        print(f"{workload}: {args.seeds} runs in {wall:.0f} s, {failed}/{attempted} failed")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name], "values": vals}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.3f} (/3 = {bounds[name] / 3:.4f}){flag}")
        trace_result, _ = _run(workload, args.first_seed, seconds, 1)
        traced[workload] = trace_result["metrics"]
        record["workloads"][workload] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "attempted": attempted,
            "failed": failed,
            "end_to_end": stats,
            "class_ms_p50": class_p50[workload],
            "per_layer_seed": args.first_seed,
            "per_layer": {k: v["value"] for k, v in trace_result["metrics"].items()},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    record["roadmap_cross_check"] = _cross_check(traced, class_p50, args.first_seed)
    for row in record["roadmap_cross_check"]:
        flag = "  <-- off by more than 2x" if row["off_by_2x"] else ""
        print(f"  {row['row']:58s} roadmap {row['roadmap']}  measured {row['measured']:.4g}{flag}")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
