"""One measured process: set up, make the workload's one call, check it.

Started by run.py as
    python3 perfbench/child.py <request.json>
The request names the workload, seed, mode and the monotonic clock reading
taken just before the process was spawned; set-up time runs from that
reading to the start of the call.  CLOCK_MONOTONIC is system wide on Linux,
so the two processes' readings compare.  The result goes to the path the
request names, as JSON.

Modes: "setup" stops after set-up; "call" also makes the call and checks
it; "traced" does the same with span wrappers installed.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    src = Path(request["src"])
    sys.path.insert(0, str(src))
    import spectol

    if Path(spectol.__file__).resolve().parent != (src / "spectol").resolve():
        raise ImportError(f"spectol imported from {spectol.__file__}, not {src}")
    import workloads

    workload = workloads.WORKLOADS[request["workload"]]
    work = Path(request["work"])
    mode = request["mode"]
    recorder = None
    if mode == "traced":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    state = workload.setup(request["seed"], work, request["prepared"], request["workers"])
    if recorder is not None:
        recorder.spans.clear()
    t_call = time.monotonic()
    result = {"setup_s": t_call - request["spawned_at"]}
    if mode != "setup":
        try:
            out = workload.call(state)
        except Exception:
            result.update(wall_s=time.monotonic() - t_call, attempted=1, failed=1,
                          problems=[traceback.format_exc()])
        else:
            result["wall_s"] = time.monotonic() - t_call
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if recorder is not None:
                recorder.dump(work / "spans.jsonl")
                recorder.spans.clear()
            attempted, failed, problems, accuracy = workload.check(state, out)
            result.update(attempted=attempted, failed=failed, problems=problems,
                          accuracy=accuracy)
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
