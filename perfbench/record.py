"""Run every workload over several seeds and record the results.

    python3 perfbench/record.py --seeds 0-9 --label baseline

For each workload this runs run.py once per seed with tracing off and once,
on the first seed, with tracing on.  It prints each end-to-end metric's
median, quartiles and sample count across the seeds, with its spread (the
interquartile range as a share of the median) against the metric's bound,
and writes everything to perfbench/results/<label>.json.  The exit code is
1 when any run failed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import UNITS, quartiles

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    extra = next((json.loads(line[len("# extra "):]) for line in lines
                  if line.startswith("# extra ")), {})
    return {"seed": seed, "trace": trace, "exit": proc.returncode,
            "elapsed_s": time.monotonic() - t0, "summary": lines[:-1],
            "stderr": proc.stderr[-2000:], "result": result, "extra": extra}


# printed by run.py but not end-to-end metrics of BENCHMARK.json: fail_frac
# is 0 on a good run, ari_min exists on cluster900 only, input_gen_s is untimed
EXTRA = ["fail_frac", "ari_min", "input_gen_s"]


def spread(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 0,3,5")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONFIG["workloads"]))
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    record: dict = {"label": args.label, "seeds": seeds, "run_seconds": CONFIG["run_seconds"],
                    "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], 1)
        ok &= all(r["exit"] == 0 for r in runs + [traced])
        end_to_end = {}
        print(f"== {workload}: {len(runs)} seeds, run_seconds={CONFIG['run_seconds']}")
        bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
        for name in list(bounds) + EXTRA:
            values = [(r["result"]["metrics"] if name in bounds else r["extra"])[name]["value"]
                      for r in runs if r["result"].get("metrics")
                      and (name in bounds or name in r["extra"])]
            if not values:
                continue
            stats = end_to_end[name] = spread(values)
            print(f"  {name:16s} {UNITS[name]:4s} median={stats['median']:.6g} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']} "
                  f"spread={stats['spread']:.4f} bound={bounds.get(name, '-')}")
        for r in runs + [traced]:
            if r["exit"] != 0:
                print(f"  seed {r['seed']} trace {r['trace']} exited {r['exit']}: {r['stderr']}")
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["result"].get("metrics", {}).items()},
            "runs": runs + [traced],
        }
    out = HERE / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results -> {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
