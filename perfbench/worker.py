"""One measured process of a benchmark run; prints one JSON object.

    python3 perfbench/worker.py <mode> <workload> <seed> <seconds> [spans-path]

Modes:
  setup     fresh-interpreter set-up only: import hopforders, build the
            program-side inputs, report raw setup_s
  run       set-up, then the timed phase untraced, then the output checks;
            times scaled to reference seconds (see probe.py)
  untraced  the same in raw seconds, CLI argv run in-process: the baseline
            of the tracing overhead
  traced    the untraced pass with spans around every layer boundary
  micro     the layer micro-op suite (see micro.py)

Inputs are generated before the clock starts, so set-up time is the
program's alone.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import probe  # noqa: E402
import workloads  # noqa: E402

PROBE_EVERY_S = 0.1       # in-process probe cadence: 4-8% of a run
CHILD_PROBE_EVERY_S = 0.6 # a child probe costs about 0.2 s


def percentile(values, q):
    """Linear-interpolated q-th percentile (statistics 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


class Speed:
    """Samples the workload's probe (see probe.py) through a run; factor()
    converts raw seconds of that run to reference seconds."""

    def __init__(self, kind: str):
        self.kind = kind
        self.every = CHILD_PROBE_EVERY_S if kind == "child" else PROBE_EVERY_S
        self.samples: list[float] = []
        self.last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self.last < self.every:
            return
        if self.kind == "child":
            self.samples.append(probe.child_probe())
        else:
            self.samples.append(probe.probe(self.kind))
        self.last = time.perf_counter()

    def factor(self) -> float:
        return probe.REF[self.kind] / statistics.fmean(self.samples)


def timed_phase(w, hf, ctx, items, speed: Speed | None):
    """Run every request back to back; wall time is the sum of request times,
    so probes between requests are not part of it."""
    outputs, latencies = [], []
    clock = time.perf_counter
    for item in items:
        if speed is not None:
            speed.tick()
        t0 = clock()
        try:
            out = w.request(hf, ctx, item)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    if speed is not None:
        speed.tick()
    return outputs, latencies, math.fsum(latencies)


def check_outputs(w, hf, ctx, items, outputs):
    errors = []
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            err = f"{type(out).__name__}: {out}"
        else:
            try:
                err = w.check(hf, ctx, item, out)
            except Exception as exc:  # a check that cannot run is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            errors.append(f"{item!r:.160}: {err}")
    return errors


def layer_metrics(tr, np, wall):
    """Per-layer figures of one traced pass (see README.md for the mapping)."""
    s = tr.summary(np)
    counts = tr.counts()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    ratfunc_ops = [n for n in s if n.startswith("ratfunc.RatFunc.")]
    gcd_calls = get("ratfunc.poly_gcd", "calls")
    oracle_calls = get("families.oracle_is_order", "calls")
    oracle_s = get("families.oracle_is_order", "incl_s")
    m = {
        "fields.mul_calls": counts.get("fields.mul", 0),
        "fields.bool_calls": counts.get("fields.bool", 0),
        "ratfunc.calls": sum(get(n, "calls") for n in ratfunc_ops),
        "ratfunc.self_s": sum(get(n, "self_s") for n in ratfunc_ops),
        "ratfunc.gcd_calls": gcd_calls,
        "ratfunc.gcd_s": get("ratfunc.poly_gcd", "incl_s"),
        "ratfunc.gcd_useful_ratio": ratio(tr.hooks.get("ratfunc.gcd_useful", 0), gcd_calls),
        "matrix.inv_calls": get("matrix.Mat.inv", "calls"),
        "matrix.inv_self_s": get("matrix.Mat.inv", "self_s"),
        "matrix.matmul_self_s": get("matrix.Mat.matmul", "self_s"),
    }
    for fn in ("order_from_theta", "ddl_normalize", "same_order", "special_fibre"):
        m[f"orders.{fn}.calls"] = get(f"orders.{fn}", "calls")
        m[f"orders.{fn}.self_s"] = get(f"orders.{fn}", "self_s")
    m["orders.integral_ratio"] = ratio(get("orders.order_from_theta", "returned"),
                                       get("orders.order_from_theta", "calls"))
    m["families.oracle_calls"] = oracle_calls
    m["families.oracle_us_per_call"] = ratio(oracle_s * 1e6, oracle_calls)
    m["families.crosscheck_share"] = ratio(oracle_s, wall)
    m["families.record_build_s"] = get("families.record_build", "incl_s")
    m["batch.grid_s"] = get("_batch.grid", "incl_s")
    m["batch.kernel_s"] = get("_batch.kernel", "incl_s")
    m["batch.points"] = tr.hooks.get("batch.points", 0)
    m["cli.parse_s"] = get("cli.parse", "incl_s")
    repeatable = {"spans": {n: v["calls"] for n, v in s.items()},
                  "counters": counts, "hooks": dict(tr.hooks)}
    return m, repeatable, len(tr.name)


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), int(argv[3])
    w = workloads.WORKLOADS[name]
    if mode == "micro":
        import micro
        print(json.dumps(micro.run(seed)))
        return 0

    items = w.inputs(seed, seconds)
    t0 = time.perf_counter()
    import hopforders as hf
    ctx = w.prepare(hf, items)
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))   # run.py scales it
        return 0

    tr = speed = None
    if mode == "run":
        speed = Speed(w.PROBE)
    else:
        # spans cannot cross a process boundary: both sides of the tracing
        # overhead send CLI argv to cli.main in this process
        w.in_process = True
    if mode == "traced":
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr, hf)
    try:
        outputs, latencies, wall = timed_phase(w, hf, ctx, items, speed)
    finally:
        if tr is not None:
            tr.uninstall()
    # only the end-to-end pass is scaled; traced figures are raw seconds
    ref = speed.factor() if speed is not None else 1.0
    errors = check_outputs(w, hf, ctx, items, outputs)
    result = {
        "speed_factor": ref,
        "wall_s": wall * ref,
        "raw_wall_s": wall,
        "requests": len(items),
        "failed": len(errors),
        "errors": errors[:5],
        "points": sum(w.points(item) for item in items),
        "req_p50_ms": statistics.median(latencies) * 1e3 * ref,
        "req_p95_ms": percentile(latencies, 95) * 1e3 * ref,
        "peak_rss_mb": peak_rss_mb(children=name == "cli_session" and mode == "run"),
    }
    if name == "cli_session":
        by_sub: dict[str, list[float]] = {}
        for item, lat in zip(items, latencies):
            by_sub.setdefault(item[0], []).append(lat)
        result["cmd_ms"] = {k: statistics.median(v) * 1e3 * ref for k, v in by_sub.items()}
    if tr is not None:
        import numpy as np
        metrics, repeatable, n_spans = layer_metrics(tr, np, wall)
        result.update({"layers": metrics, "repeatable": repeatable, "spans": n_spans})
        if len(argv) > 4:
            tr.write(argv[4], np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
