"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py --seeds 10 [--workload NAME ...] [--trace 0]

Runs ``bench/run.py`` once per seed and workload, one run at a time, with
the ``run_seconds`` of ``BENCHMARK.json``, and prints for each metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.  With
``--trace 0`` it also compares each spread with a third of the metric's
bound, the steadiness target.  ``--json FILE`` writes every run's result
and the summary there.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(config, workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(config["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2])["context"]
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} was not correct:\n"
                           f"{proc.stderr}")
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    report = {"run_seconds": config["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(config, workload, seed, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in
                runs[-1]["metrics"].items()
                if args.trace == 0 or k.startswith("trace.")), flush=True)
        table = {}
        for metric in runs[0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in runs])
            bound = bounds.get(metric) if args.trace == 0 else None
            if bound is not None and metric != "setup_s":
                stats["within_third_of_bound"] = stats["spread"] < bound / 3
                steady &= stats["within_third_of_bound"]
            table[metric] = stats
        report["workloads"][workload] = {"runs": runs, "summary": table}
        for metric, s in table.items():
            if args.trace == 0 or metric.startswith("trace."):
                flag = {True: "ok", False: "WIDE"}.get(
                    s.get("within_third_of_bound"), "")
                print(f"  {metric:32s} median {s['median']:10.4g}  "
                      f"q1 {s['q1']:10.4g}  q3 {s['q3']:10.4g}  "
                      f"spread {s['spread']:.3f} {flag}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
