"""The cylinder walk must be indistinguishable from the object-level path.

These tests compare full grids point by point across primes, depths and
families, including negative j, so any divergence between the two
implementations of the oracle computation fails loudly here (beyond the
in-run cross-checks the sweep already performs).
"""

import collections
import functools
import hashlib
import itertools
import random
import tracemalloc

import pytest

from hopforders import _walk, families
from hopforders.cli import main
from hopforders.families import (Family, OrderRecord, _record_from_row,
                                 alpha_p2_loose_predicate, enumerate_orders, family_matrix,
                                 oracle_check_family, oracle_is_order, predicate,
                                 theta_for_record)
from hopforders.fields import FieldSpec
from hopforders.matrix import Mat
from hopforders.orders import _twisted_quotient
from hopforders.ratfunc import INF, RatFunc

from helpers import F2, F3, F4, F5, F8, F9, F25, brute_force_points, rand_poly

F7 = FieldSpec(7)

MATRIX_FAMILIES = [Family.ALPHA_P_N, Family.ALPHA_P2, Family.ZP_X_AP,
                   Family.ZP_SQUARED, Family.MONO_P2]

FORMS = {predicate: families._closed_form,
         alpha_p2_loose_predicate: families._loose_closed_form}

B_INTS = {
    Family.ALPHA_P_N: [[0, 0], [0, 0]],
    Family.ALPHA_P2: [[0, 1], [0, 0]],
    Family.ZP_X_AP: [[1, 0], [0, 0]],
    Family.ZP_SQUARED: [[1, 0], [0, 1]],
    Family.MONO_P2: [[0, 1], [1, 0]],
}


def _held(spec, depth, cylinders):
    """Each row of the cell with the cylinder that holds it, checking that the
    cylinders partition the q^depth rows."""
    n, held = spec.q ** depth, {}
    for cyl in cylinders:
        k, base = cyl[:2]
        for row in range(base, n, spec.q ** k):
            assert row not in held, (row, cyl, held[row])
            held[row] = cyl
    assert len(held) == n
    return held


@pytest.mark.parametrize("spec", [F2, F3, F5, F7, F4, F8, F9, F25])
@pytest.mark.parametrize("family", MATRIX_FAMILIES)
def test_full_grid_oracle_equivalence(spec, family):
    """Every row lies in one cylinder, whose verdict is the oracle's."""
    B = family_matrix(family, spec)
    cases = [(1 if spec is F25 else 3 if spec.q in (2, 4) else 2, (-1, 0, 2, 5))]
    if spec is F3:
        cases.append((3, (-3, -1)))     # negative i at depth 3
    for depth, i_values in cases:
        for i in i_values:
            for j in (-2, 0, 1, 3):
                held = _held(spec, depth, _walk.cylinders(B, i, j, depth))
                for row, cyl in held.items():   # row 0, theta = 0, is the T^j record
                    rec = _record_from_row(family, spec, row, i, j, depth)
                    assert oracle_is_order(rec) == cyl[2], rec.to_json()
                if family is Family.ZP_SQUARED and (i < 0 or j < 0):
                    # the cells the sweep skips hold no order
                    assert not any(cyl[2] for cyl in held.values())


@pytest.mark.parametrize("spec", [F2, F3, F4, F8, F9, F25])
@pytest.mark.parametrize("family", MATRIX_FAMILIES)
def test_full_grid_predicate_twin_equivalence(spec, family):
    """Each closed form, run on a whole grid, gives the verdict it gives on
    each row's record, row 0 (theta = 0) included: that is the T^j record."""
    B = family_matrix(family, spec)
    depth = 1 if spec is F25 else 3 if spec.q in (2, 4) else 2
    preds = [predicate] + ([alpha_p2_loose_predicate] if family is Family.ALPHA_P2 else [])
    for i in (-1, 0, 1, 4):
        for j in (-2, 0, 2):
            if family is Family.ZP_SQUARED and (i < 0 or j < 0):
                continue

            def record(row):
                return _record_from_row(family, spec, row, i, j, depth)

            for pred in preds:
                form = functools.partial(FORMS[pred], family, spec.p, i, j)
                held = _held(spec, depth, _walk.cylinders(B, i, j, depth, form))
                for row, cyl in held.items():
                    assert pred(record(row)) == cyl[3], record(row).to_json()


@pytest.mark.parametrize("spec, depth", [(F3, 8), (F2, 13)])
@pytest.mark.parametrize("family", MATRIX_FAMILIES)
def test_blocks_across_a_boundary_match_one_grid(spec, depth, family):
    """A cell of more than 2^12 rows, 3^8 = 6561 over F_3: its cylinders
    partition the rows, the oracle agrees with them on each side of row 2^12,
    and the closed form's cylinders agree with `predicate` on every row."""
    n, i, j, B = spec.q ** depth, 2, 2, family_matrix(family, spec)

    def record(row):
        return _record_from_row(family, spec, row, i, j, depth)

    held = _held(spec, depth, _walk.cylinders(B, i, j, depth))
    for row in (0, 4095, 4096, n - 1):
        assert oracle_is_order(record(row)) == held[row][2], record(row).to_json()
    form = functools.partial(families._closed_form, family, spec.p, i, j)
    held = _held(spec, depth, _walk.cylinders(B, i, j, depth, form))
    assert [predicate(record(row)) for row in range(n)] == [held[row][3] for row in range(n)]


# SHA-256 of the --json stdout of mono_p2 over F_3 at i, j in -1..1 and depth
# 9: 3^9 = 19683 rows per cell, each cross-checked on seeded rows
BLOCK_DIGESTS = {
    "oracle-check": "6a6c062812720cf9d37bb9acc085038fdd85a65b347f567c2d2cfcd452317acf",
    "enumerate": "a4ac9cbd0d7a09caa06254b9bc86e4135457acb14405c200afd8eb0ea61b9759",
}


@pytest.mark.parametrize("command", sorted(BLOCK_DIGESTS))
def test_multi_block_sweep_json_bytes_are_pinned(command, capsys):
    assert main([command, "--family", "mono_p2", "--field", "p=3",
                 "--i=-1..1", "--j=-1..1", "--depth", "9", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BLOCK_DIGESTS[command]


def test_sweep_memory_does_not_grow_with_depth():
    """A cell of 2^16 rows is decided in blocks: after a warm-up sweep, the
    peak of traced allocations stays far below what the whole cell's columns
    and products would take."""
    enumerate_orders(Family.MONO_P2, F2, [1], [1], depth=4)
    tracemalloc.start()
    try:
        enumerate_orders(Family.MONO_P2, F2, [1], [1], depth=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_enumerate_batch_matches_generic():
    for family in MATRIX_FAMILIES:
        fast = enumerate_orders(family, F2, range(-1, 3), range(-1, 3), depth=3)
        slow = sorted((r for r, orc, _ in brute_force_points(
            family, F2, range(-1, 3), range(-1, 3), 3) if orc),
            key=OrderRecord.sort_key)
        assert fast == slow


def test_report_batch_matches_generic_with_disagreements():
    fast = oracle_check_family(Family.ALPHA_P2, F2, range(0, 3), range(0, 3),
                               depth=3, predicate_fn=alpha_p2_loose_predicate)
    slow = brute_force_points(Family.ALPHA_P2, F2, range(0, 3), range(0, 3), 3,
                              alpha_p2_loose_predicate)
    assert fast.total == len(slow)
    assert fast.agreements == sum(orc == prd for _, orc, prd in slow)
    assert [d.record for d in fast.disagreements] == [r for r, orc, prd in slow if orc != prd]


def test_grid_valuations_match_records():
    """A form left UNKNOWN until theta is exact makes the walk split down to
    single rows, where theta's valuation is the record's, and row 0's
    theta = 0 has valuation INF."""
    def exact_val(theta, T):
        return theta.val if theta.prec == INF else _walk.UNKNOWN

    cyls = _walk.cylinders(family_matrix(Family.ALPHA_P_N, F3), 0, 1, 3, exact_val)
    assert sorted(base for k, base, _, _ in cyls if k == 3) == list(range(27))
    for _, row, _, v in cyls:
        rec = _record_from_row(Family.ALPHA_P_N, F3, row, 0, 1, 3)
        assert v == (INF if row == 0 else rec.theta.val)


def test_extension_field_sweeps_agree():
    F9 = FieldSpec(3, 2, (1, 0, 1))
    for family in (Family.ZP_SQUARED, Family.MONO_P2):
        report = oracle_check_family(family, F4, range(0, 3), range(0, 2), depth=2)
        assert report.all_agree, report.summary()
        assert report.total == 3 * 2 * 4 ** 2
    report = oracle_check_family(Family.ZP_X_AP, F9, range(0, 2), range(-1, 2), depth=1)
    assert report.all_agree, report.summary()


def test_sweeps_at_the_max_q_edge():
    """Depth-1 cells over fields of MAX_Q size: code products near 2^32 keep
    their int64 headroom, and the extension field's tables index right."""
    report = oracle_check_family(Family.MONO_P2, FieldSpec(65521), [0], [0], depth=1)
    assert report.all_agree and report.total == 65521
    F2_16 = FieldSpec(2, 16, (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,))
    for family in MATRIX_FAMILIES[1:]:
        report = oracle_check_family(family, F2_16, [0], [0], depth=1)
        assert report.all_agree and report.total == 2 ** 16, report.summary()


def test_family_matrix_is_the_one_preset_table():
    """Family is exactly the five presets, and family_matrix gives each B."""
    assert set(Family) == set(B_INTS)
    for family in Family:
        assert families.family_matrix(family, F2) == Mat.from_ints(F2, B_INTS[family])


def test_mono_p2_column_skips_the_twist_when_pj_below_i(monkeypatch):
    """A cell with p*j < i fails on every row: the closed form decides the
    cylinder of all its rows, theta = O(T^(j - depth)), without theta^(p)."""
    def no_twist(self):
        raise AssertionError("theta^(p) built for a cell whose bound fails")
    monkeypatch.setattr(_walk.Laurent, "pth_power", no_twist)
    ar = F3.arith
    theta = _walk.Laurent(ar, {}, 1 - 3)
    assert families._closed_form(Family.MONO_P2, 3, 4, 1, theta,
                                 lambda e: _walk.Laurent(ar, {e: 1})) is False


def _count_calls(monkeypatch, owner, name, fn=None):
    calls = []
    fn = fn or getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cross_check_policy_call_counts(monkeypatch):
    # The closed form stands in for the oracle, which it matches on every
    # grid tested here, so a 4095-row cell costs milliseconds; only the
    # number of calls matters.
    calls = _count_calls(monkeypatch, families, "oracle_is_order", predicate)
    for depth, expected in ((12, 4095), (13, 64)):     # 2^12 - 1 <= 4096 < 2^13 - 1
        calls.clear()
        report = oracle_check_family(Family.ALPHA_P2, F2, [3], [2], depth=depth)
        assert report.all_agree and report.total == 2 ** depth
        assert len(calls) == expected + 1               # plus the T^j record
    calls.clear()
    records = enumerate_orders(Family.ALPHA_P2, F2, [3], [2], depth=13)
    assert records and len(calls) == 16 + 1
    for depth, expected in ((6, 4095), (8, 64)):       # 4^6 - 1 <= 4096 < 4^8 - 1
        calls.clear()
        report = oracle_check_family(Family.ALPHA_P2, F4, [3], [2], depth=depth)
        assert report.all_agree and report.total == 4 ** depth
        assert len(calls) == expected + 1
    calls.clear()
    records = enumerate_orders(Family.ALPHA_P2, F4, [3], [2], depth=8)
    assert records and len(calls) == 16 + 1


@pytest.mark.parametrize("spec", [F2, F3, F4, F9])
def test_kernel_runs_on_every_field(monkeypatch, spec):
    grids = _count_calls(monkeypatch, _walk, "cylinders")
    oracle_check_family(Family.MONO_P2, spec, [0, 1], [0], depth=2)
    enumerate_orders(Family.MONO_P2, spec, [0, 1], [0], depth=2)
    assert len(grids) == 4


def _coefficients(x: RatFunc) -> dict:
    """{e: code} of a Laurent polynomial, whose denominator is a power of T."""
    shift = x.den.degree
    assert x.den == RatFunc.pi_power(x.spec, shift).num
    return {e - shift: c for e, c in enumerate(x.num.codes) if c}


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_precision_rules_claim_only_true_coefficients(spec):
    """For random prefixes theta = P + O(T^m) and random completions of them,
    every coefficient that +, -, * and the twist claim as known is the exact
    result's, and a valuation bound holds."""
    rng = random.Random(f"precision|{spec.spec_text()}")
    ar, q = spec.arith, spec.q

    def prefix():
        prec = INF if rng.random() < 0.2 else rng.randint(-4, 4)
        top = 3 if prec == INF else prec
        terms = {e: c for e in range(top - rng.randint(0, 4), top) if (c := rng.randrange(q))}
        return _walk.Laurent(ar, terms, prec)

    def completion(x):
        tail = [] if x.prec == INF else range(x.prec, x.prec + rng.randint(0, 5))
        terms = {**x.terms, **{e: rng.randrange(q) for e in tail}}
        return sum((RatFunc.constant(spec, spec._make(c)) * RatFunc.pi_power(spec, e)
                    for e, c in terms.items()), RatFunc.zero(spec))

    def check(claimed, exact):
        known, coeffs = claimed.terms, _coefficients(exact)
        assert all(c and e < claimed.prec for e, c in known.items())
        for e in set(known) | set(coeffs):
            if e < claimed.prec:
                assert known.get(e, 0) == coeffs.get(e, 0), (e, known, coeffs)
        v = claimed.val
        if isinstance(v, _walk._AtLeast):
            assert exact.val >= v.bound
        else:
            assert exact.val == v

    for _ in range(150):
        x, y = prefix(), prefix()
        for _ in range(4):
            X, Y = completion(x), completion(y)
            for claimed, exact in ((x + y, X + Y), (x - y, X - Y), (x * y, X * Y),
                                   (x.pth_power(), X.pth_power())):
                check(claimed, exact)
    # an exact one-term operand c T^e shifts the exponents and the precision by e
    for _ in range(60):
        x, e, c = prefix(), rng.randint(-4, 4), rng.randrange(1, q)
        y = _walk.Laurent(ar, {e: c})
        Y = RatFunc.constant(spec, spec._make(c)) * RatFunc.pi_power(spec, e)
        for claimed in (x * y, y * x):
            assert claimed.prec == x.prec + e
            check(claimed, completion(x) * Y)


# The random-B fields and depths: each cell has 8, 9, 16, 25 or 9 rows
RANDOM_B_DEPTHS = [(F2, 3), (F3, 2), (F4, 2), (F5, 2), (F9, 1)]


def _random_bs(spec):
    """Four seeded 2x2 B over F_q[T] of degree <= 2, codes from all of F_q;
    b12 is nonzero in the first two and 0 in the last two."""
    rng = random.Random(f"random B|{spec.spec_text()}")
    out = []
    for n in range(4):
        b = [RatFunc.from_poly(rand_poly(rng, spec, 2, nonzero=(e == 1))) for e in range(4)]
        if n >= 2:
            b[1] = RatFunc.zero(spec)
        out.append(Mat([b[:2], b[2:]]))
    return out


def _is_zero_or_power(count, p):
    while count and count % p == 0:
        count //= p
    return count in (0, 1)


@pytest.mark.parametrize("spec, depth", RANDOM_B_DEPTHS, ids=["F2", "F3", "F4", "F5", "F9"])
def test_walk_matches_the_object_oracle_on_random_b(spec, depth):
    """The walk reads any 2x2 B of polynomials in T: on seeded random B its
    cylinders partition each cell, and each row's verdict is the object
    oracle's on the row's record."""
    for B in _random_bs(spec):
        for i in range(3):
            for j in range(-1, 2):
                held = _held(spec, depth, _walk.cylinders(B, i, j, depth))
                for row, cyl in held.items():
                    rec = _record_from_row(Family.ALPHA_P_N, spec, row, i, j, depth)
                    forms = B._polynomial_form(), theta_for_record(rec)._polynomial_form()
                    verdict = _twisted_quotient(*forms)[2] is None
                    assert verdict == cyl[2], (B.rows, rec.to_json())


LAW_DEPTHS = [(F2, 6), (F3, 4), (F4, 3), (F5, 3), (F9, 2)]


@pytest.mark.parametrize("spec, depth", LAW_DEPTHS, ids=["F2", "F3", "F4", "F5", "F9"])
def test_b12_zero_cells_count_zero_or_a_power_of_p(spec, depth):
    """With b12 = 0, N = adj(Theta) B Theta^(p) is affine in theta and
    theta^(p), so F_p-linear in the digits: the accepted rows of a cell form
    an affine F_p-subspace, and each cell's count is 0 or a power of p."""
    cells = list(itertools.product(range(-1, 4), range(-1, 3)))
    for family in (Family.ALPHA_P_N, Family.ZP_X_AP, Family.ZP_SQUARED):
        counts = collections.Counter((r.i, r.j) for r in enumerate_orders(
            family, spec, range(-1, 4), range(-1, 3), depth=depth))
        assert all(_is_zero_or_power(counts[cell], spec.p) for cell in cells), (family, counts)
    if spec is F3:      # the control: mono_p2 (b12 = 1) breaks the law
        counts = collections.Counter((r.i, r.j) for r in enumerate_orders(
            Family.MONO_P2, spec, range(-1, 4), range(-1, 3), depth=depth))
        assert 2 in counts.values()
    # through the walk, for the random B with b12 = 0
    walk_depth = dict(RANDOM_B_DEPTHS)[spec]
    for B in _random_bs(spec)[2:]:
        for i, j in cells:
            count = sum(spec.q ** (walk_depth - k)
                        for k, _, orc, _ in _walk.cylinders(B, i, j, walk_depth) if orc)
            assert _is_zero_or_power(count, spec.p), (B.rows, i, j, count)
