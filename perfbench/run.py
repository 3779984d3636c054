"""Benchmark of the freight-resilience pipeline on four synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload static-500 --seed 1 --seconds 10 --trace 0

One run executes the workload in a fresh process per repetition until
the repetitions have taken ``--seconds``. Its inputs are set up before
repetitions, at least three times in all and before every repetition
when set-up is cheap; ``setup_s`` is the median of the set-ups, ``run_s``
and ``peak_rss_mb`` the medians of the repetitions. The two times are wall
times scaled to a reference host speed measured by a fixed kernel between
intervals (see ``calibrate.py``); the raw wall times are printed too. It prints
the environment and every metric by name with its unit, and as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics (``run_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer metrics
from one untraced and two traced repetitions.

A repetition fails when the pipeline raises or its outputs do not check:
every manifest must say ``complete`` and match the bytes on disk, the
per-file digests must repeat across repetitions and equal the reference
recorded for the seed (``reference.json``), and networkx must reproduce
the centrality scores and surviving-component sizes. ``error_rate`` is
failed / attempted. ``--smoke`` runs tiny inputs through the same code.
Work files and per-run result documents go to ``.perfbench/`` at the
root of the checkout; a result document holds each repetition's combined
output digest, the value ``reference.json`` records for a seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from checkout import ROOT, SRC, STATE, use_checkout_source

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
BASELINE = HERE / "baseline.json"
THREADS_ENV = "FREIGHT_RESILIENCE_THREADS"

DEADLINE_S = 165.0  # a run must end within 180 s, set-up and checks included
# Set-up runs before repetitions, so its samples span the run like run_s.
# A batch repeats a cheap set-up until it has taken SETUP_BATCH_S; batches
# continue until there are SETUP_MIN_SAMPLES samples, and for cheap
# set-ups before every repetition.
SETUP_MIN_SAMPLES = 3
SETUP_BATCH_S = 1.0

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        # removed from the workers' environment, so the default pool is used
        THREADS_ENV: os.environ.get(THREADS_ENV),
    }


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


class Harness:
    def __init__(self, args, workloads):
        self.args = args
        self.wl = workloads
        self.workload = workloads.get(args.workload, args.smoke)
        self.size = "smoke" if args.smoke else "full"
        self.work = STATE / "work" / args.workload
        self.results = STATE / "results"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}

    def setup_batch(self) -> list[float]:
        times: list[float] = []
        while sum(times) < SETUP_BATCH_S:
            started = time.perf_counter()
            self.wl.setup(self.workload, self.args.seed, self.work)
            times.append(time.perf_counter() - started)
        return times

    def rep(self, trace: bool = False, trace_alloc: bool = False, spans: Path | None = None):
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            self.args.workload,
            "--work-dir",
            str(self.work),
        ]
        if self.args.smoke:
            cmd.append("--smoke")
        if trace:
            cmd += ["--trace", "--spans", str(spans)]
        if trace_alloc:
            cmd.append("--trace-alloc")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            return {"error": f"repetition exceeded {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"worker exited {proc.returncode} without a result"}

    def check(self, reps: list[dict]) -> list[str]:
        """Mark failing repetitions in place; return run-level findings."""
        import oracle

        notes = []
        ok = [r for r in reps if "error" not in r]
        if not ok:
            return notes
        for r in ok:
            r["combined"] = self.wl.combined_digest(r["digests"])
        recorded = _load(REFERENCE).get(self.size, {}).get(self.args.workload, {})
        expected = recorded.get(str(self.args.seed))
        if expected is None:
            expected = ok[0]["combined"]
            notes.append(f"no reference digest for seed {self.args.seed}; repeats compared")
        else:
            notes.append(f"reference digest for seed {self.args.seed} compared")
        for r in ok:
            if r["combined"] != expected:
                r["error"] = f"output digests {r['combined'][:16]} != expected {expected[:16]}"
        last = reps[-1]
        if "error" in last:
            return notes
        problems = oracle.check(self.wl.out_dirs(self.work)[0])
        notes.append("oracle: " + ("; ".join(problems) if problems else "ok"))
        if problems:
            for r in ok:
                if r["combined"] == last["combined"]:
                    r["error"] = "oracle: " + problems[0]
        return notes

    def measure(self) -> tuple[dict, list[dict], dict]:
        kernel = calibrate.Kernel()
        marks = [kernel.seconds()]  # host speed between consecutive intervals
        setup_s: list[float] = []
        setup_wall_s: list[float] = []
        reps: list[dict] = []
        measured = 0.0  # --seconds counts repetitions only, not set-up
        while (
            len(setup_s) < SETUP_MIN_SAMPLES or measured < self.args.seconds
        ) and time.monotonic() < self.deadline:
            if len(setup_s) < SETUP_MIN_SAMPLES or statistics.median(setup_s) < SETUP_BATCH_S:
                walls = self.setup_batch()
                marks.append(kernel.seconds())
                setup_wall_s += walls
                setup_s += [calibrate.scaled(w, marks[-2], marks[-1]) for w in walls]
            started = time.monotonic()
            rep = self.rep()
            measured += time.monotonic() - started
            marks.append(kernel.seconds())
            if "run_s" in rep:
                rep["wall_s"] = rep["run_s"]
                rep["run_s"] = calibrate.scaled(rep["wall_s"], marks[-2], marks[-1])
            reps.append(rep)
        notes = self.check(reps)
        ok = [r for r in reps if "error" not in r]
        metrics = {}
        if ok:
            metrics = {
                "run_s": statistics.median(r["run_s"] for r in ok),
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            }
        detail = {
            "notes": notes,
            "samples": {
                "run_s": [r.get("run_s") for r in reps],
                "run_wall_s": [r.get("wall_s") for r in reps],
                "peak_rss_mb": [r.get("peak_rss_mb") for r in reps],
                "setup_s": setup_s,
                "setup_wall_s": setup_wall_s,
                "kernel_s": marks,
            },
        }
        return metrics, reps, detail

    def measure_traced(self) -> tuple[dict, list[dict], dict]:
        from tracing import EXACT, PER_LAYER, Tracer

        tracer = Tracer()
        tracer.wrap(self.wl, "generate_synthetic", "synth.generate_synthetic")
        try:
            self.setup_batch()
        finally:
            tracer.restore()
        self.results.mkdir(parents=True, exist_ok=True)
        stem = f"spans-{self.args.workload}-{self.size}-seed{self.args.seed}"
        # the untraced and traced repetitions are scaled like run_s in measure()
        kernel = calibrate.Kernel()
        marks = [kernel.seconds()]
        plain = self.rep()
        marks.append(kernel.seconds())
        traced = self.rep(trace=True, spans=self.results / f"{stem}.json")
        marks.append(kernel.seconds())
        alloc = self.rep(trace=True, trace_alloc=True, spans=self.results / f"{stem}-alloc.json")
        reps = [plain, traced, alloc]
        notes = self.check(reps)
        if any("error" in r for r in reps):
            return {}, reps, {"notes": notes}
        layer = dict(traced["layer"])
        for name in EXACT:
            if alloc["layer"][name] != layer[name]:
                traced["error"] = alloc["error"] = (
                    f"{name} did not repeat: {layer[name]} then {alloc['layer'][name]}"
                )
        peak = "climate.read_series_csv.peak_alloc_mb"
        layer[peak] = alloc["layer"][peak]
        layer["synth.generate_synthetic.s"] = statistics.median(
            s["end"] - s["start"] for s in tracer.spans
        )
        layer["trace.overhead_s"] = calibrate.scaled(
            traced["run_s"], marks[1], marks[2]
        ) - calibrate.scaled(plain["run_s"], marks[0], marks[1])
        counts = {name: layer[name] for name in EXACT}
        recorded = _load(BASELINE).get("exact_counts", {}).get(self.args.workload)
        if self.size == "full" and recorded:
            changed = {k: (v, counts[k]) for k, v in recorded.items() if counts.get(k) != v}
            notes.append(
                f"counts differ from baseline (baseline, now): {changed}"
                if changed
                else "counts equal the baseline"
            )
        metrics = {name: layer[name] for name, _ in PER_LAYER}
        return metrics, reps, {"notes": notes, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same code paths")
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads
    from tracing import PER_LAYER

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    harness = Harness(args, workloads)
    env = environment(args.seed)
    try:
        if args.trace:
            metrics, reps, detail = harness.measure_traced()
            units = dict(PER_LAYER)
        else:
            metrics, reps, detail = harness.measure()
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(harness.work, ignore_errors=True)

    attempted = len(reps)
    failed = sum("error" in r for r in reps)
    print(f"perfbench {args.workload} ({harness.size}) seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for r in reps:
        if "error" in r:
            print(f"failed repetition: {r['error']}")
    for note in detail["notes"]:
        print(f"check: {note}")
    if not metrics:
        print("perfbench: no repetition succeeded; no metrics", file=sys.stderr)
        return 1
    n_ok = attempted - failed
    for name, value in metrics.items():
        print(f"{name:45s} {value:>16.6f} {units[name]}")
    if not args.trace:
        samples = detail["samples"]
        walls = [w for w, r in zip(samples["run_wall_s"], reps) if "error" not in r]
        print(f"  run_s and peak_rss_mb: median of {n_ok} repetitions; "
              f"setup_s: median of {len(samples['setup_s'])} set-ups")
        print(f"  run_s and setup_s are scaled to reference host speed (calibrate.py); "
              f"raw wall medians: run {statistics.median(walls):.6f} s, "
              f"setup {statistics.median(samples['setup_wall_s']):.6f} s")
    print(f"{'error_rate':45s} {failed / attempted:>16.6f} ratio ({failed} of {attempted} failed)")
    correct = failed == 0
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    harness.results.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload,
        "size": harness.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": reported,
        "combined_digests": [r.get("combined") for r in reps],
        **detail,
    }
    out = harness.results / f"{args.workload}-{harness.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
