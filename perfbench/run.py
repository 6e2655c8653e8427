"""Layered benchmark of spectol: three workloads, each call in a fresh process.

    python3 perfbench/run.py --workload sweep900 --seed 0 --seconds 40 --trace 0

With --trace 0 the runner first starts 25 set-up-only child processes
(they time set-up and warm the file cache), then one child per call, one
after the other (a closed loop with one client), until --seconds have
passed in all; it reports the medians.  With --trace 1 it runs one
set-up-only child, then pairs of an untraced call and a call with span
wrappers installed for --seconds, and reports per-layer totals from the
spans.  Outputs are checked after every call; a failed check or operation makes the exit code 1.  The
last line of standard output is the result as JSON; the lines before it give
each metric's median, quartiles and sample count, the environment, and,
on a line starting "# extra ", the medians of the printed samples that are
not metrics (such as fail_frac), as JSON.

The benchmark builds nothing: it imports spectol from src/ of the checkout
it sits in and exits 2 when that is missing.  Temporary files live under
perfbench/_work/ and are removed at the end.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUDGET_S = 170.0
MIN_SETUPS = 25
MAX_CALLS = 50


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.prepared: dict = {}
        self.deadline = time.monotonic() + BUDGET_S
        self.children = 0

    def out_of_time(self, start: float, seconds: float, done: int) -> bool:
        """Would one more round, at the mean pace so far, overrun ``seconds``
        from ``start`` or the run's hard deadline?"""
        now = time.monotonic()
        pace = (now - start) / done
        return now - start + pace > seconds or now + 2 * pace > self.deadline

    def spawn(self, mode: str, workers: int = 1) -> dict:
        """One child process; a crash or time-out comes back as a failure."""
        self.children += 1
        request_path = self.work / f"request{self.children}.json"
        result_path = self.work / f"result{self.children}.json"
        request = {"workload": self.workload, "seed": self.seed, "mode": mode,
                   "workers": workers, "src": str(SRC), "work": str(self.work),
                   "prepared": self.prepared, "result": str(result_path)}
        timeout = max(1.0, self.deadline - time.monotonic())
        request["spawned_at"] = time.monotonic()
        request_path.write_text(json.dumps(request))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(request_path)],
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"attempted": 1, "failed": 1, "problems": [f"{mode} child timed out"]}
        if proc.returncode != 0 or not result_path.exists():
            return {"attempted": 1, "failed": 1,
                    "problems": [f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
        return json.loads(result_path.read_text())


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "limits": "no CPU pinning, no frequency control, no cache dropping",
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git without running git, which would
    search the parent directories; "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "procrustes_err": "1",
         "ari_min": "1", "fail_frac": "1", "input_gen_s": "s", "untraced_wall_s": "s",
         "traced_wall_s": "s", "workers2_wall_s": "s"}


def measure(runner: Runner, seconds: float):
    """Set-up-only children, which also warm the file cache, then untraced
    calls for what is left of ``seconds``."""
    setups = []
    t0 = time.monotonic()
    for _ in range(MIN_SETUPS):
        result = runner.spawn("setup")
        if "setup_s" not in result:
            return [result], setups
        setups.append(result["setup_s"])
    calls = []
    start = time.monotonic()
    seconds -= start - t0
    while len(calls) < MAX_CALLS:
        result = runner.spawn("call")
        calls.append(result)
        if "setup_s" in result:
            setups.append(result["setup_s"])
        if result["failed"]:
            break
        if runner.out_of_time(start, seconds, len(calls)):
            break
    return calls, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spectol" / "__init__.py").is_file():
        print(f"error: no spectol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        t0 = time.perf_counter()
        runner.prepared = workloads.WORKLOADS[args.workload].prepare(args.seed, work)
        prepare_s = time.perf_counter() - t0
        if args.trace:
            metrics, children, extra = traced(runner, args.seconds)
        else:
            children, setups = measure(runner, args.seconds)
            metrics, extra = end_to_end(children, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c.get("problems", [])]
    correct = not problems and all("wall_s" in c for c in children)
    extra["fail_frac"] = [failed / attempted]
    if "gen_s" in runner.prepared:
        extra["input_gen_s"] = [runner.prepared["gen_s"]]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"processes={runner.children} prepare_s={prepare_s:.3f}")
    print("# env " + json.dumps(environment()))
    print("# extra " + json.dumps({name: {"value": statistics.median(values),
                                          "unit": UNITS.get(name, "1")}
                                   for name, values in extra.items() if name not in metrics}))
    for name, values in {**{k: [v["value"]] for k, v in metrics.items()}, **extra}.items():
        unit = metrics[name]["unit"] if name in metrics else UNITS.get(name, "1")
        q1, q2, q3 = quartiles(values)
        print(f"{name:52s} {unit:6s} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    for problem in problems:
        print("# FAILED: " + problem.replace("\n", "\n# "), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def end_to_end(children, setups):
    done = [c for c in children if "accuracy" in c]
    samples = {
        "wall_s": [c["wall_s"] for c in done],
        "setup_s": setups,
        "peak_rss_mb": [c["peak_rss_mb"] for c in done],
        "procrustes_err": [c["accuracy"]["procrustes_err"] for c in done
                           if "procrustes_err" in c["accuracy"]],
    }
    metrics = {name: {"value": statistics.median(values), "unit": UNITS[name]}
               for name, values in samples.items() if values}
    extra = {name: values for name, values in samples.items() if len(values) > 1}
    ari = [c["accuracy"]["ari_min"] for c in done if "ari_min" in c["accuracy"]]
    if ari:
        extra["ari_min"] = ari
    return metrics, extra


def traced(runner: Runner, seconds: float):
    """Pairs of an untraced and a traced call while ``seconds`` last (at
    least one); per-layer totals come from the last traced call."""
    import spans

    warm = runner.spawn("setup")
    if "setup_s" not in warm:
        return {}, [warm], {}
    children, plain_walls, traced_walls = [], [], []
    start = time.monotonic()
    while len(children) < MAX_CALLS:
        pair = [runner.spawn("call"), runner.spawn("traced")]
        children += pair
        if any(c["failed"] or "accuracy" not in c for c in pair):
            break
        plain_walls.append(pair[0]["wall_s"])
        traced_walls.append(pair[1]["wall_s"])
        if runner.out_of_time(start, seconds, len(plain_walls)):
            break
    extra, layer, overhead, speedup = {}, {}, 0.0, 0.0
    if traced_walls:
        layer = spans.layer_metrics(spans.load(runner.work / "spans.jsonl"))
        overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        extra = {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}
        if runner.workload == "sweep900":
            threaded = runner.spawn("call", workers=2)
            children.append(threaded)
            if "accuracy" in threaded:
                speedup = statistics.median(plain_walls) / threaded["wall_s"]
                extra["workers2_wall_s"] = [threaded["wall_s"]]
    else:
        layer = spans.layer_metrics([])
    layer["experiments.run_tolerance_sweep.speedup_2w"] = speedup
    layer["trace.overhead_frac"] = overhead
    metrics = {name: {"value": value, "unit": spans.unit_of(name)}
               for name, value in layer.items()}
    return metrics, children, extra


if __name__ == "__main__":
    sys.exit(main())
