"""Fuzz the command line: every argv drawn from the grammar's tokens, good or
bad, ends in exit code 0, 1 or 2 in bounded time, and no exception escapes
`cli.main`."""

import contextlib
import io
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hopforders import _walk, cli, families, orders
from hopforders.families import Family

# Every argv gets SECONDS plus an allowance for the work the limits admit,
# which the fixed cross-check policy makes large: SOLVE_SECONDS (about ten
# times the cost of one 2x2 solve) per solve of the matrix equation, as the
# object path re-decides up to 4095 rows of each sweep cell and `enumerate`
# solves once per record it prints, and POINT_SECONDS (about ten times the
# walk's cost per point) per point of each cell.  A sweep of 81 cells at
# depth 6 takes up to a minute.
SECONDS = 5
SOLVE_SECONDS = 2e-3
POINT_SECONDS = 2e-5


def mostly(good, bad):
    """Draw from `good` nine times in ten, else from `bad`."""
    return st.integers(0, 9).flatmap(lambda n: st.sampled_from(bad if n == 0 else good))


FIELDS = mostly(
    ["p=2", "p=3", "p=5", "p=2;k=2;mod=a^2+a+1", "p=3;k=2;mod=a^2+1"],
    ["p=4", "p=1", "p=2;k=2", "p=2;k=2;mod=a^2+1", "p=3;k=2;mod=a^2+a+1",
     "p=2;k=3;mod=a^3+a", "p=2;mod=a+1", "p=x", "q=2", "p=2;p=3", ""])
ATOMS = mostly(["0", "1", "2", "-1", "T", "a", "T^2", "T^-1", "T^-3", "1/T", "T^5"],
               ["T^513", "x", "", "(T+1", "T^", "@/nonexistent"])
ELEMENTS = st.recursive(ATOMS, lambda inner: st.one_of(
    st.tuples(inner, mostly(["+", "-", "*", "/"], ["", "^", "**"]), inner).map("".join),
    st.tuples(inner, mostly(["-3", "-1", "0", "1", "2", "7"], ["x", "", "1000"])).map(
        lambda t: f"({t[0]})^{t[1]}"),
    inner.map(lambda e: f"({e})")), max_leaves=6)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 3))
    rows = [[draw(ELEMENTS) for _ in range(n)] for _ in range(n)]
    shape = draw(mostly(["square"], ["short row", "long row", "unclosed", "unopened",
                                     "nested"]))
    if shape == "short row":
        rows[draw(st.integers(0, n - 1))].pop()
    elif shape == "long row":
        rows[draw(st.integers(0, n - 1))].append("1")
    text = ";".join(",".join(row) for row in rows)
    return {"unclosed": f"[{text}", "unopened": f"{text}]",
            "nested": f"[[{text}]]"}.get(shape, f"[{text}]")


RANGES = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.integers(-4, 4).map(str),
    st.sampled_from(["-4..4", "3..1", "x..y", "..", "1..", "0..200"]))
DEPTHS = mostly([str(d) for d in range(-1, 7)], ["x", "2.5"])
FAMILIES = mostly([f.value for f in Family], ["nope", ""])
EXPONENTS = mostly([str(i) for i in range(-4, 5)], ["1000", "x"])

SWEEP = {"family": FAMILIES, "field": FIELDS, "i": RANGES, "j": RANGES,
         "depth": DEPTHS, "json": None}
GRAMMAR = {
    "check": {"field": FIELDS, "B": matrices(), "theta": matrices(), "json": None},
    "verify": {"field": FIELDS, "theta": matrices(), "A": matrices(), "B": matrices()},
    "normalize": {"field": FIELDS, "theta": matrices()},
    "same-order": {"field": FIELDS, "theta": matrices(), "theta2": matrices()},
    "fibre": {"field": FIELDS, "A": matrices()},
    "present": {"field": FIELDS, "A": matrices()},
    "enumerate": SWEEP,
    "oracle-check": SWEEP,
    "rank1": {"field": FIELDS, "b": ELEMENTS, "i": EXPONENTS},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for flag, values in GRAMMAR[command].items():
        if values is None:                          # a switch
            if draw(st.booleans()):
                argv.append(f"--{flag}")
        elif draw(st.integers(0, 19)) == 0:         # now and then a flag goes missing
            continue
        elif draw(st.booleans()):
            argv.append(f"--{flag}={draw(values)}")
        else:                                       # a value with a leading '-' is a usage error
            argv += [f"--{flag}", draw(values)]
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=argvs())
def test_every_argv_ends_in_a_verdict_or_a_clean_error(argv):
    out, err = io.StringIO(), io.StringIO()
    allowance = []

    def allow(fn, seconds):
        def counted(*args):
            allowance.append(seconds(*args))
            return fn(*args)
        return counted

    solve = allow(orders._twisted_quotient, lambda *_: SOLVE_SECONDS)
    walk = allow(_walk.cylinders,
                 lambda B, i, j, depth, form: POINT_SECONDS * B.spec.q ** depth)
    start = time.perf_counter()
    with mock.patch.object(families, "_twisted_quotient", solve), \
            mock.patch.object(orders, "_twisted_quotient", solve), \
            mock.patch.object(_walk, "cylinders", walk), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert seconds < SECONDS + sum(allowance), (argv, seconds, sum(allowance))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=argvs())
def test_every_argv_ends_in_a_verdict_or_a_clean_error_at_a_pinned_seed(argv):
    """The same argv strategy and time allowance at a seed fixed by this
    test's source: every run draws the same argv, so a failure reproduces."""
    test_every_argv_ends_in_a_verdict_or_a_clean_error.hypothesis.inner_test(argv)
