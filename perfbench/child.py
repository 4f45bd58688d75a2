"""One sample of a workload, in a fresh interpreter started by run.py.

Usage: python3 child.py JOB.json

The job names the workload, its generated inputs, the ellq source tree and
whether to trace. The child imports the workload's ellq modules, notes the
time (the end of set-up) and the machine's speed (speed.py), runs and times
every operation while sampling the speed, checks the outputs outside the
timed region and writes result.json next to the job. A "setup" job stops
after the imports.
"""
from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time


def _cpu() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def main(job_path: str) -> int:
    with open(job_path) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    import workloads
    for module in workloads.MODULES[job["workload"]]:
        importlib.import_module(module)
    ready = time.monotonic()
    import speed
    meter = speed.Speedometer()
    result = {"ready": ready, "setup_ref": meter.setup_ref()}
    if job["mode"] == "run":
        result.update(_run(job, meter))
        result["run_ref"] = meter.run_ref()
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["peak_rss_kb"] = max(usage)
    with open(os.path.join(os.path.dirname(job_path), "result.json"), "w") as f:
        json.dump(result, f)
    return 0


def _run(job, meter) -> dict:
    import checks
    import workloads
    with open(job["expected"]) as f:
        expected = json.load(f)
    names = workloads.op_names(job["workload"], job["inputs"])
    ops = [(name, workloads.build_op(name, job["inputs"])) for name in names]
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer(job["run_id"])
        tracer.install()
        meter.context = tracer.current
    timings, outputs, errors = [], {}, {}
    meter.start()
    for name, fn in ops:
        rec = tracer.open("bench.op") if tracer else None
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            outputs[name] = fn()
        except Exception as e:  # a failed operation is counted, not fatal
            errors[name] = repr(e)
        t1, cpu1 = time.perf_counter(), _cpu()
        if rec:
            tracer.close(rec)
            rec["sizes"] = {"op": name}
        ref_wall, ref_cpu = meter.within(t0, t1)
        timings.append({"name": name, "wall": t1 - t0 - ref_wall,
                        "cpu": cpu1 - cpu0 - ref_cpu, "span": (t0, t1)})
    meter.stop()
    for op in timings:  # the ticks just after an operation are in now
        op["ref"] = meter.local_ref(*op.pop("span"))
    out = {"ops": timings}
    if tracer:
        tracer.enabled = False
        tracer.write(job["spans"])
        out["ticks"] = [[t["context"], t["wall"]] for t in meter.ticks]
    errors.update(checks.check(job["workload"], job["inputs"], outputs, expected))
    out["failed"] = errors
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
