"""Run every workload over two sets of seeds and summarise the end-to-end metrics.

    python3 bench/baseline.py --out bench/baseline.json

Each run is a separate ``bench/run.py`` process of BENCHMARK.json's
``run_seconds``, one after another: first every workload at seeds 1 to 10,
then every workload at seeds 11 to 20.  For every set, workload and
end-to-end metric the summary holds every run's value, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and the number of runs.  ``agreement`` gives,
per workload and metric, how much worse the second set's median is than
the first's, as a share of the first, next to the metric's bound.  One
traced run per workload at the default seed adds the per-layer metrics,
and the run environment is recorded.
Run it from the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import DEFAULT_SEED  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))


def environment() -> dict:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_once(workload: str, seed: int, trace: int) -> dict:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = perf_counter() - start
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "runs": len(values),
        "values": values,
    }


def run_set(seeds: list[int]) -> dict:
    summary = {"seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, s, 0) for s in seeds]
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"seeds {seeds[0]}-{seeds[-1]} {workload:<11} {name:<12} "
                  f"median {m['median']:.6g}  spread {m['spread']:.4f}", flush=True)
    return summary


def agreement(first: dict, second: dict) -> dict:
    """How much worse the second set's median is than the first's, per metric."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for spec in SPEC["end_to_end"]:
            a = first["workloads"][workload]["metrics"][spec["name"]]["median"]
            b = second["workloads"][workload]["metrics"][spec["name"]]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            out[workload][spec["name"]] = {
                "worse_by": worse, "bound": spec["bound"], "within": worse <= spec["bound"],
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the report here, not to stdout")
    args = parser.parse_args()
    sets = [run_set(seeds) for seeds in SEED_SETS]
    report = {
        "environment": environment(),
        "seconds": SPEC["run_seconds"],
        "sets": sets,
        "agreement": agreement(*sets),
        "per_layer": {},
    }
    for workload in WORKLOADS:
        traced = run_once(workload, DEFAULT_SEED, 1)
        report["per_layer"][workload] = {
            "correct": traced["correct"],
            "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
