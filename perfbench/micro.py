"""Layer micro-ops on fixed operands drawn, by seed, from the workloads.

Each figure is the median over five repeats of the mean time per call, with
the loop count calibrated so that a repeat takes a few tens of milliseconds.
The CLI figures are fresh-interpreter subprocess timings (median of a few).
Everything goes through public names, so a rewrite of a layer's internals
is measured, not broken.
"""

from __future__ import annotations

import operator
import random
import statistics
import subprocess
import sys
import time

import gen
import workloads

REPEATS = 5
KERNEL_DEPTHS = {2: 16, 3: 11, 5: 7}


def per_call_s(fn, operands, repeat_s=0.03):
    """Median seconds per call of fn(*args) over the operand list."""
    clock = time.perf_counter
    loops = 1
    while True:
        t0 = clock()
        for _ in range(loops):
            for args in operands:
                fn(*args)
        if clock() - t0 >= repeat_s / 2 or loops >= 1 << 20:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = clock()
        for _ in range(loops):
            for args in operands:
                fn(*args)
        samples.append((clock() - t0) / (loops * len(operands)))
    return statistics.median(samples)


def _field_elements(rng, spec, n):
    out = []
    while len(out) < n:
        x = spec.element([rng.randrange(spec.p) for _ in range(spec.k)])
        if x:
            out.append(x)
    return out


def _stream_thetas(hf, specs, seed):
    """Parsed (field, n) -> [(B, Theta)] from the theta_stream generator."""
    by = {}
    for name, b_text, theta_text in gen.theta_requests(seed, 48):
        spec = specs[name]
        theta = hf.parse_matrix(theta_text, spec)
        by.setdefault((name, theta.n), []).append((hf.parse_matrix(b_text, spec), theta))
    return by


def _record(hf, rng, family, spec, i, j, depth):
    """A canonical record with seeded digits at exponents [j - depth, j)."""
    terms = []
    while not terms:
        for d in range(depth):
            c = rng.randrange(spec.q)
            if c:
                coeff = gen.Fq("F4").text(c) if spec.k > 1 else str(c)
                terms.append(f"{coeff}*T^{j - depth + d}")
    theta = hf.parse_element("+".join(terms), spec)
    return hf.OrderRecord.make(hf.Family(family), i, j, theta)


def _order(hf, B, theta):
    try:
        return hf.order_from_theta(B, theta)
    except hf.NotIntegralError:
        return None


def _subprocess_ms(argv, runs):
    env = workloads.cli_env()
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, capture_output=True, env=env, cwd=workloads.ROOT,
                       timeout=120, check=False)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _import_ms(module, runs=5):
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    env = workloads.cli_env()
    samples = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, cwd=workloads.ROOT, timeout=120,
                             check=True).stdout
        samples.append(float(out) * 1e3)
    return statistics.median(samples)


def run(seed: int) -> dict:
    import hopforders as hf
    rng = random.Random(f"micro|{seed}")
    specs = {name: hf.parse_field_spec(text) for name, text in gen.FIELDS.items()}
    m = {}

    for name, spec in specs.items():
        xs = _field_elements(rng, spec, 32)
        m[f"fields.mul_ns.{name}"] = per_call_s(operator.mul, list(zip(xs, xs[1:]))) * 1e9
    m["fields.inv_ns.F4"] = per_call_s(lambda x: x.inverse(),
                                       [(x,) for x in _field_elements(rng, specs["F4"], 32)]) * 1e9

    thetas = _stream_thetas(hf, specs, seed)
    all_scalars = []
    for name in specs:
        # entries of Theta^-1: the general-denominator scalars Mat.inv produces
        xs = [x for _, th in thetas[(name, 2)] for row in th.inv().rows for x in row if x]
        all_scalars += xs
        m[f"ratfunc.mul_ns.{name}"] = per_call_s(operator.mul, list(zip(xs, xs[1:]))) * 1e9
    pairs = list(zip(all_scalars, all_scalars[1:]))
    pairs = [(x, y) for x, y in pairs if x.spec == y.spec]
    m["ratfunc.add_ns"] = per_call_s(operator.add, pairs) * 1e9
    m["ratfunc.inv_ns"] = per_call_s(lambda x: x.inverse(), [(x,) for x in all_scalars]) * 1e9
    m["ratfunc.poly_mul_ns"] = per_call_s(operator.mul,
                                          [(x.num, x.den) for x in all_scalars]) * 1e9
    m["ratfunc.poly_divmod_ns"] = per_call_s(lambda a, b: a.divmod(b),
                                             [(x.num * x.den + x.num, x.den)
                                              for x in all_scalars]) * 1e9

    for name in specs:
        two = [(th,) for _, th in thetas[(name, 2)]]
        three = [(th,) for _, th in thetas[(name, 3)]]
        m[f"matrix.inv_ms.2x2.{name}"] = per_call_s(lambda t: t.inv(), two) * 1e3
        m[f"matrix.inv_ms.3x3.{name}"] = per_call_s(lambda t: t.inv(), three) * 1e3
        m[f"matrix.det_ms.3x3.{name}"] = per_call_s(lambda t: t.det(), three) * 1e3
        m[f"matrix.twist_us.3x3.{name}"] = per_call_s(lambda t: t.twist(), three) * 1e6

    req3 = [pair for name in specs for pair in thetas[(name, 3)]]
    m["orders.order_from_theta_ms.3x3"] = per_call_s(
        lambda B, th: _order(hf, B, th), req3) * 1e3
    m["orders.ddl_normalize_ms.3x3"] = per_call_s(
        hf.ddl_normalize, [(th,) for _, th in req3]) * 1e3
    m["orders.same_order_ms.3x3"] = per_call_s(
        lambda th: hf.same_order(th, th), [(th,) for _, th in req3]) * 1e3
    integral = [r.A for r in (_order(hf, B, th) for B, th in req3) if r is not None]
    m["orders.special_fibre_ms.3x3"] = per_call_s(
        hf.special_fibre, [(A,) for A in integral]) * 1e3

    for name, spec in specs.items():
        depth = 2 * (spec.p + 2)
        recs = [(_record(hf, rng, fam, spec, i, j, depth),)
                for fam, i, j in gen.agree_cells(seed, 1)[:8]]
        m[f"families.oracle_ms.{name}"] = per_call_s(hf.oracle_is_order, recs, 0.1) * 1e3

    for p, depth in KERNEL_DEPTHS.items():
        spec = hf.FieldSpec(p)
        fam = hf.Family("alpha_p2")
        i, j = rng.choice(gen.I_VALUES), rng.choice(gen.J_VALUES)
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            hf.enumerate_orders(fam, spec, [i], [j], depth=depth)
            samples.append(time.perf_counter() - t0)
        m[f"batch.ns_per_point.p{p}"] = statistics.median(samples) / p ** depth * 1e9

    m["cli.import_ms"] = _import_ms("hopforders.cli")
    m["cli.numpy_import_ms"] = _import_ms("numpy")
    seen = set()
    for sub, argv, _, _ in gen.cli_commands(seed, 1):
        if sub != "malformed" and sub not in seen:
            seen.add(sub)
            m[f"cli.cmd_ms.{sub}"] = _subprocess_ms(
                [sys.executable, "-m", "hopforders.cli", *argv], 3)
    return m
