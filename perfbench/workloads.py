"""The four workloads: inputs, the timed request, and the output check.

Each workload is a closed loop from one process: the next request goes out
only when the previous one has returned.  The amount of work per run is fixed
by `--seconds` (about that many seconds of work at the baseline on a 2-core
Xeon), never by a clock, so a faster program finishes sooner and `wall_s`
shows it; the same seed gives the same requests and the same call counts.

`request` runs inside the timed phase; `check` runs after it, outside, and a
failed check makes the request count as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent


def cli_env() -> dict:
    """Environment for CLI subprocesses: this checkout's src/ on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class AgreeP2:
    """oracle_check_family on criterion-2 cells over F_2, every point
    cross-checked by the object-level oracle."""

    ROUND_S = 2.9   # 14 cells of 2^8 points each
    PROBE = "python"

    def inputs(self, seed, seconds):
        return gen.agree_cells(seed, max(1, round(seconds / self.ROUND_S)))

    def prepare(self, hf, items):
        return {"spec": hf.FieldSpec(2), "family": {f: hf.Family(f) for f, _, _ in items}}

    def request(self, hf, ctx, item):
        fam, i, j = item
        return hf.oracle_check_family(ctx["family"][fam], ctx["spec"], [i], [j],
                                      depth=gen.AGREE_DEPTH)

    def check(self, hf, ctx, item, report):
        if not report.all_agree:
            return f"predicate and oracle disagree: {report.summary()}"
        # rows 1..2^d - 1 of the grid plus the T^j record
        if report.total != 2 ** gen.AGREE_DEPTH:
            return f"total {report.total} != 2^{gen.AGREE_DEPTH}"
        return None

    def points(self, item):
        return 2 ** gen.AGREE_DEPTH


class EnumDeep:
    """enumerate_orders on deep cells over F_3 and F_5: kernel-bound."""

    ROUND_S = 1.1   # 6 cells: 2 at p=3 depth 11, 4 at p=5 depth 7
    PROBE = "numpy"
    SAMPLE = 4      # survivors per cell re-decided by the object oracle

    def inputs(self, seed, seconds):
        return gen.enum_cells(seed, max(1, round(seconds / self.ROUND_S)))

    def prepare(self, hf, items):
        return {"spec": {p: hf.FieldSpec(p) for p in gen.ENUM_DEPTHS},
                "family": {f: hf.Family(f) for f, *_ in items}}

    def request(self, hf, ctx, item):
        fam, p, i, j, depth = item
        return hf.enumerate_orders(ctx["family"][fam], ctx["spec"][p], [i], [j],
                                   depth=depth)

    def check(self, hf, ctx, item, records):
        bad = [r for r in records if not hf.predicate(r)]
        if bad:
            return f"{len(bad)} records fail the closed-form predicate"
        rng = random.Random(repr(item))
        for rec in rng.sample(records, min(self.SAMPLE, len(records))):
            if not hf.oracle_is_order(rec):
                return f"record {rec.to_json()} fails oracle_is_order"
        return None

    def points(self, item):
        return item[1] ** item[4]


class ThetaStream:
    """Seeded Theta requests over F_2, F_3, F_4 in 2x2 and 3x3."""

    PER_S = 62      # requests per second at the baseline
    PROBE = "python"

    def inputs(self, seed, seconds):
        return gen.theta_requests(seed, max(6, round(seconds * self.PER_S)))

    def prepare(self, hf, items):
        return {name: hf.parse_field_spec(text) for name, text in gen.FIELDS.items()}

    def request(self, hf, ctx, item):
        name, b_text, theta_text = item
        spec = ctx[name]
        B = hf.parse_matrix(b_text, spec)
        theta = hf.parse_matrix(theta_text, spec)
        try:
            result = hf.order_from_theta(B, theta)
        except hf.NotIntegralError as exc:
            result, text = None, str(exc.witness)
        else:
            fibre = hf.special_fibre(result.A)
            text = f"{result.A} {result.presentation.text()} {fibre.classification}"
        ddl = hf.ddl_normalize(theta)
        same = hf.same_order(theta, ddl)
        return B, theta, result, ddl, same, f"{text} {ddl}"

    def check(self, hf, ctx, item, out):
        B, theta, result, ddl, same, _ = out
        if result is not None and not hf.verify_twisted_equation(theta, result.A, B):
            return "Theta * A != B * Theta^(p)"
        if not hf.is_ddl(ddl):
            return "normalized matrix is not DDL"
        if not same:
            return "normalized matrix is not the same order"
        return None

    def points(self, item):
        return 1


class CliSession:
    """Sequential `python -m hopforders.cli` runs over all nine subcommands
    plus malformed argv; with in_process set (the traced run and its
    untraced baseline) the same argv go to cli.main in this process."""

    ROUND_S = 3.9   # 11 cold-start invocations
    PROBE = "child"

    def __init__(self):
        self.in_process = False

    def inputs(self, seed, seconds):
        return gen.cli_commands(seed, max(1, round(seconds / self.ROUND_S)))

    def prepare(self, hf, items):
        import hopforders.cli  # noqa: F401  (the CLI module is part of set-up)
        return {"env": cli_env()}

    def request(self, hf, ctx, item):
        argv = item[1]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hf.cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "hopforders.cli", *argv],
                              capture_output=True, text=True, env=ctx["env"],
                              cwd=ROOT, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, hf, ctx, item, out):
        sub, argv, expected, _ = item
        code, stdout, stderr = out
        if code != expected:
            return f"{sub}: exit {code}, expected {expected}: {stderr.strip()[-200:]}"
        if "Traceback" in stderr:
            return f"{sub}: traceback on stderr"
        if sub == "check" and stdout.splitlines()[0] != f"A = {gen.WORKED_A}":
            return f"check printed {stdout.splitlines()[0]!r}"
        if sub == "enumerate":
            lo, hi = gen.ENUM_I
            want = 2 * sum(2 ** i for i in range(lo, hi + 1))
            got = len(json.loads(stdout))
            if got != want:
                return f"enumerate listed {got} records, expected {want}"
        return None

    def points(self, item):
        return item[3]


WORKLOADS = {
    "agree_p2": AgreeP2(),
    "enum_deep": EnumDeep(),
    "theta_stream": ThetaStream(),
    "cli_session": CliSession(),
}
