"""One measured execution of a workload, in a fresh process.

Run by ``run.py``, once per repetition, so that the peak resident size
is that of this execution alone. Reads the config that ``run.py`` set up, times
the workload's pipeline calls, hashes every output and prints one JSON
line. With ``--trace`` it also records spans (see ``tracing.py``) and
writes them to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from checkout import use_checkout_source


def _peak_rss_mb() -> float:
    # VmHWM is the high-water mark of this process's own address space;
    # ru_maxrss also carries the parent's resident size at fork
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-alloc", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    use_checkout_source()
    import workloads
    from freight_resilience.pipeline import load_config
    from tracing import Tracer, span_metrics

    workload = workloads.get(args.workload, args.smoke)
    config = load_config(args.work_dir / "config.json")
    for out in workloads.out_dirs(args.work_dir):
        if out.exists():
            shutil.rmtree(out)
    tracer = None
    if args.trace:
        tracer = Tracer(trace_alloc=args.trace_alloc)
        tracer.install(workloads)
    result: dict = {}
    try:
        started = time.perf_counter()
        bundles = workloads.execute(workload, config, args.work_dir)
        result["run_s"] = time.perf_counter() - started
        result["peak_rss_mb"] = _peak_rss_mb()
        digests, total = workloads.output_digests(bundles)
    except Exception as exc:  # report, do not crash: the harness counts it as failed
        result["error"] = "".join(traceback.format_exception_only(exc)).strip()
        traceback.print_exc(file=sys.stderr)
    else:
        result["digests"] = digests
        result["output_bytes"] = total
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None and "error" not in result:
        layer = span_metrics(tracer.spans)
        layer.update(tracer.sweep_counts())
        layer["pipeline.output_bytes"] = result["output_bytes"]
        result["layer"] = layer
        args.spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
