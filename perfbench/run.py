"""hopforders benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its src/ (no
install step).  Every measurement happens in a fresh worker process
(perfbench/worker.py), so each run pays the real interpreter start and
import, and peak memory is the workload's own.

--trace 0 prints the end-to-end metrics: set-up is timed in nine fresh
interpreters (median), then one untraced timed phase; times are scaled to
reference seconds (probe.py).  --trace 1 prints the
per-layer metrics: the micro-op suite, one untraced and two traced passes
of the same seed (at most TRACE_SECONDS of work each, so a traced run stays
well inside its time limit); the traced passes must make identical call
counts, and their difference to the untraced pass is the tracing overhead.

Human-readable lines (environment, every metric with its unit, sample
counts, error rate) come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
from workloads import WORKLOADS, cli_env  # noqa: E402

SETUP_PROBES = 9          # fresh interpreters timed for set-up; median
TRACE_SECONDS = 10        # work of a traced pass, whatever --seconds says
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def worker(mode: str, workload: str, seed: int, seconds: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
           str(seconds), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{mode} worker printed no result:\n{proc.stdout[-500:]}") from exc


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search directories above the checkout); 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args) -> tuple[dict, dict, list]:
    """Set-up probes plus one untraced timed phase."""
    setup, raw_setup = [], []
    for _ in range(SETUP_PROBES):
        # set-up is start-up and imports: scale it by the child probe
        ref = probe.REF["child"] / probe.child_probe()
        raw_setup.append(worker("setup", args.workload, args.seed, args.seconds)["setup_s"])
        setup.append(raw_setup[-1] * ref)
    run = worker("run", args.workload, args.seed, args.seconds)
    wall = run["wall_s"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (run["points"] / wall, "1/s"),
        "req_per_s": (run["requests"] / wall, "1/s"),
        "req_p50_ms": (run["req_p50_ms"], "ms"),
        "req_p95_ms": (run["req_p95_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    extra = {
        "points": run["points"], "requests": run["requests"],
        "latency_samples": run["requests"], "setup_samples": len(setup),
        "error_rate": run["failed"] / run["requests"],
        "raw_setup_s": statistics.median(raw_setup), "raw_wall_s": run["raw_wall_s"],
        "speed_factor": run["speed_factor"],
    }
    if args.workload == "cli_session":
        extra["cmd_p50_ms"] = run["req_p50_ms"]
        extra["cmd_ms"] = run["cmd_ms"]
    return metrics, extra, [run]


def per_layer(args) -> tuple[dict, dict, list]:
    """Micro-ops, then one untraced and two traced passes of the same seed."""
    seconds = min(args.seconds, TRACE_SECONDS)
    micro = worker("micro", args.workload, args.seed, seconds)
    base = worker("untraced", args.workload, args.seed, seconds)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    first = worker("traced", args.workload, args.seed, seconds, str(spans))
    second = worker("traced", args.workload, args.seed, seconds)
    units = declared("per_layer")
    metrics = {name: (value, units.get(name, "?"))
               for name, value in {**micro, **first["layers"]}.items()}
    overhead = first["wall_s"] - base["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    repeat = first["repeatable"] == second["repeatable"]
    extra = {
        "untraced_wall_s": base["wall_s"], "traced_wall_s": first["wall_s"],
        "second_traced_wall_s": second["wall_s"], "tracing_overhead_s": overhead,
        "spans": first["spans"], "spans_file": str(spans.relative_to(ROOT)),
        "call_counts_repeat": repeat, "call_counts": first["repeatable"],
    }
    if not repeat:
        second["errors"] = second["errors"] + ["call counts differ between traced passes"]
        second["failed"] += 1
    return metrics, extra, [base, first, second]


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hopforders" / "__init__.py").is_file():
        print(f"error: no hopforders sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        # compile the bytecode caches once, so no timed import pays for it
        subprocess.run([sys.executable, "-c", "import hopforders.cli"], env=cli_env(),
                       cwd=ROOT, check=True, capture_output=True, timeout=WORKER_TIMEOUT_S)
        metrics, extra, passes = (per_layer if args.trace else end_to_end)(args)
        want = declared("per_layer" if args.trace else "end_to_end")
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        print(f"error: metrics {sorted(set(got) ^ set(want))} or their units do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(p["requests"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print("env " + json.dumps(environment(args)))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("detail " + json.dumps(extra))
    for p in passes:
        for err in p["errors"]:
            print(f"failed: {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
